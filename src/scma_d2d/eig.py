"""Cyclic Jacobi eigensolver for Hermitian matrices, real symmetric ones
included.  Matrices here are tiny (K <= 8), where Jacobi's simplicity and
unconditional convergence beat any fancier scheme.

A sweep visits each upper-triangle entry q_pr = |q_pr| e (p < r, |e| = 1)
and rotates when |q_pr| exceeds 1e-12 times the Frobenius norm of Q: the
unitary [[c, -s e], [s conj(e), c]] acts on rows p and r, and its
conjugate transpose on columns p and r, with (c, s) the real Jacobi
rotation for theta = (Re q_rr - Re q_pp) / (2 |q_pr|).  At theta = 0 both
t = +-1 zero the entry; t = copysign(1, Re e) makes s e = c, so on a real
matrix (e = +-1) every entry rounds as in real Jacobi with its t = 1.  The
eigenvalues are the sorted real parts of the final diagonal.  The sweeps
run on nested lists of Python numbers: at these sizes a numpy call per
row costs far more than the arithmetic it does.
"""

from __future__ import annotations

import math

import numpy as np


# below this, a sum of squares (rounding included) cannot overflow float64
_SAFE_SUM_OF_SQUARES = np.finfo(float).max / 2


class NonHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class JacobiConvergenceError(RuntimeError):
    """Sweep limit reached before the off-diagonal threshold."""


def _frobenius_norm(a):
    """Frobenius norm of a; a ValueError for non-finite entries or a norm
    beyond float64, where no off-diagonal threshold is meaningful.  The
    checks and the overflow guard run only when the largest real or
    imaginary part is non-finite or parts * max^2 could overflow the sum
    of squares.  The parts are read as floats: the modulus of a complex
    entry with finite parts can itself overflow."""
    parts = np.ascontiguousarray(a).view(np.float64)
    big = float(np.abs(parts).max(initial=0.0))
    if big * big * parts.size < _SAFE_SUM_OF_SQUARES:
        return float(np.linalg.norm(a))
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if norm == math.inf:
        raise ValueError("matrix Frobenius norm overflows float64")
    return norm


def _sweeps(a, thresh, max_sweeps):
    """Sorted real parts of the diagonal of the square nested list a,
    rotated in place until a sweep finds no upper entry above thresh.  A
    rotation zeroes both a[p][r] and a[r][p]; a lower entry that none
    reaches (an input Hermitian only up to rounding) is never tested."""
    n = len(a)
    for _ in range(max_sweeps):
        rotated = False
        for p in range(n - 1):
            row_p = a[p]
            for r in range(p + 1, n):
                apr = row_p[r]
                mag = abs(apr)
                if mag <= thresh:
                    continue
                rotated = True
                row_r = a[r]
                e = apr / mag
                theta = (row_r[r].real - row_p[p].real) / (2.0 * mag)
                if theta == 0.0:
                    t = math.copysign(1.0, e.real)
                else:
                    t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                se = t * c * e
                se_conj = se.conjugate()
                new_p = [c * x - se * y for x, y in zip(row_p, row_r)]
                a[r] = row_r = [se_conj * x + c * y for x, y in zip(row_p, row_r)]
                a[p] = row_p = new_p
                for row in a:
                    x, y = row[p], row[r]
                    row[p] = c * x - se_conj * y
                    row[r] = se * x + c * y
                row_p[r] = row_r[p] = 0.0
        # a sweep that rotates nothing leaves every entry it tests within
        # thresh; a NaN tests false and keeps the sweeps going
        if not rotated:
            break
    else:
        raise JacobiConvergenceError(f"no convergence in {max_sweeps} sweeps")
    return np.sort([row[i].real for i, row in enumerate(a)], kind="stable")


def hermitian_eigenvalues(q):
    """Real eigenvalues of a Hermitian matrix in nondecreasing order; a
    real symmetric q gives real Jacobi's bits (see the module docstring)."""
    q = np.asarray(q, dtype=complex)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("matrix must be square")
    norm = _frobenius_norm(q)
    if np.linalg.norm(q - q.conj().T) > 1e-10 * max(norm, 1e-300):
        raise NonHermitianError("matrix is not Hermitian within 1e-10 relative")
    return _sweeps(q.tolist(), 1e-12 * norm, 60)
