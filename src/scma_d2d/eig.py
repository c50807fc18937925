"""Cyclic Jacobi eigensolver for complex Hermitian matrices.

A Hermitian Q = A + iB (A symmetric, B antisymmetric) is embedded as the
real symmetric 2n x 2n matrix [[A, -B], [B, A]], whose spectrum is that of
Q with every eigenvalue doubled; classic two-sided Jacobi rotations then
drive the off-diagonal mass to zero.  Matrices in this package are tiny
(K <= 8), where Jacobi's simplicity and unconditional convergence beat any
fancier scheme.
"""

from __future__ import annotations

import numpy as np


class NonHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class JacobiConvergenceError(RuntimeError):
    """Sweep limit reached before the off-diagonal threshold."""


def _rotate_rows(m, p, q, c, s):
    """Apply the rotation [[c, -s], [s, c]] to rows p and q of m in place."""
    row_p = m[p].copy()
    m[p] = c * row_p - s * m[q]
    m[q] = s * row_p + c * m[q]


def jacobi_eigenvalues(a, off_diag_rel_tol=1e-12, max_sweeps=60):
    """Eigenvalues of a real symmetric matrix by cyclic Jacobi, ascending.

    Sweeps rotate every (p, q) pair whose magnitude exceeds
    off_diag_rel_tol times the Frobenius norm of the input, until none
    does.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if n == 1:
        return a.reshape(1).copy()
    thresh = off_diag_rel_tol * np.linalg.norm(a)
    for _ in range(max_sweeps):
        off = np.abs(a - np.diag(np.diag(a))).max()
        if off <= thresh:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= thresh:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                _rotate_rows(a, p, q, c, s)     # rows of a
                _rotate_rows(a.T, p, q, c, s)   # columns of a
                a[p, q] = a[q, p] = 0.0
    else:
        raise JacobiConvergenceError(f"no convergence in {max_sweeps} sweeps")
    return np.sort(np.diag(a), kind="stable")


def _check_hermitian(q):
    q = np.asarray(q, dtype=complex)
    n = q.shape[0]
    if q.shape != (n, n):
        raise ValueError("matrix must be square")
    scale = np.linalg.norm(q)
    if np.linalg.norm(q - q.conj().T) > 1e-10 * max(scale, 1e-300):
        raise NonHermitianError("matrix is not Hermitian within 1e-10 relative")
    return q


def hermitian_eigenvalues(q):
    """Real eigenvalues of a Hermitian matrix in nondecreasing order."""
    q = _check_hermitian(q)
    a, b = q.real, q.imag
    return jacobi_eigenvalues(np.block([[a, -b], [b, a]]))[0::2]
