"""Cyclic Jacobi eigensolver for complex Hermitian matrices.

A Hermitian Q = A + iB (A symmetric, B antisymmetric) is embedded as the
real symmetric 2n x 2n matrix [[A, -B], [B, A]], whose spectrum is that of
Q with every eigenvalue doubled; classic two-sided Jacobi rotations then
drive the off-diagonal mass to zero.  Matrices in this package are tiny
(K <= 8), where Jacobi's simplicity and unconditional convergence beat any
fancier scheme.

The sweeps run on nested lists of Python floats: at these sizes a numpy
call per row costs far more than the arithmetic it does.  Each entry goes
through the same IEEE double operations in the same order as the
row-at-a-time numpy form, so the eigenvalues are bit-identical to it.
"""

from __future__ import annotations

import math

import numpy as np


class NonHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class JacobiConvergenceError(RuntimeError):
    """Sweep limit reached before the off-diagonal threshold."""


def _frobenius_norm(a):
    """Frobenius norm of a; a ValueError for non-finite entries or a norm
    beyond float64, where no off-diagonal threshold is meaningful."""
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if norm == math.inf:
        raise ValueError("matrix Frobenius norm overflows float64")
    return norm


def jacobi_eigenvalues(a, off_diag_rel_tol=1e-12, max_sweeps=60):
    """Eigenvalues of a real symmetric matrix by cyclic Jacobi, ascending.

    Sweeps rotate every pair (p, q), p < q, whose entry a[p, q] exceeds
    off_diag_rel_tol times the Frobenius norm of the input in magnitude,
    until a sweep finds none.  Only the upper triangle is tested: a
    rotation zeroes both a[p, q] and a[q, p], and a lower entry that no
    rotation reaches (an input symmetric only up to rounding) is no reason
    to sweep again.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    thresh = off_diag_rel_tol * _frobenius_norm(a)
    if n == 1:
        return a.reshape(1).copy()
    a = a.tolist()
    for _ in range(max_sweeps):
        rotated = False
        for p in range(n - 1):
            row_p = a[p]
            for q in range(p + 1, n):
                apq = row_p[q]
                if abs(apq) <= thresh:
                    continue
                rotated = True
                row_q = a[q]
                theta = (row_q[q] - row_p[p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                # rows p and q, then columns p and q: [[c, -s], [s, c]]
                new_p = [c * x - s * y for x, y in zip(row_p, row_q)]
                a[q] = row_q = [s * x + c * y for x, y in zip(row_p, row_q)]
                a[p] = row_p = new_p
                for row in a:
                    x, y = row[p], row[q]
                    row[p] = c * x - s * y
                    row[q] = s * x + c * y
                row_p[q] = row_q[p] = 0.0
        # a sweep that rotates nothing leaves every entry it tests within
        # thresh; a NaN tests false and keeps the sweeps going
        if not rotated:
            break
    else:
        raise JacobiConvergenceError(f"no convergence in {max_sweeps} sweeps")
    return np.sort([row[i] for i, row in enumerate(a)], kind="stable")


def _check_hermitian(q):
    q = np.asarray(q, dtype=complex)
    n = q.shape[0]
    if q.shape != (n, n):
        raise ValueError("matrix must be square")
    scale = _frobenius_norm(q)
    if np.linalg.norm(q - q.conj().T) > 1e-10 * max(scale, 1e-300):
        raise NonHermitianError("matrix is not Hermitian within 1e-10 relative")
    return q


def hermitian_eigenvalues(q):
    """Real eigenvalues of a Hermitian matrix in nondecreasing order."""
    q = _check_hermitian(q)
    n = q.shape[0]
    a = np.empty((2 * n, 2 * n))
    a[:n, :n] = a[n:, n:] = q.real
    a[:n, n:] = -q.imag
    a[n:, :n] = q.imag
    return jacobi_eigenvalues(a)[0::2]
