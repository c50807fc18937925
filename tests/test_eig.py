"""Tests for the Jacobi Hermitian eigensolver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scma_d2d.eig import (
    JacobiConvergenceError,
    NonHermitianError,
    hermitian_eigenvalues,
    jacobi_eigenvalues,
)


def random_hermitian(rng, n, scale=1.0):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (m + m.conj().T) / 2


class TestEigenvalues:
    def test_identity(self):
        assert np.allclose(hermitian_eigenvalues(np.eye(3)), [1.0, 1.0, 1.0])

    def test_diagonal_sorted(self):
        w = hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(w, [1.0, 2.0, 3.0])

    def test_trace_identity(self):
        """Eigenvalue sum equals the trace for a random Hermitian 6x6."""
        q = random_hermitian(np.random.default_rng(0), 6)
        w = hermitian_eigenvalues(q)
        assert w.sum() == pytest.approx(np.trace(q).real, abs=1e-9)

    def test_matches_lapack(self):
        """Independent route: numpy's LAPACK eigvalsh agrees."""
        rng = np.random.default_rng(1)
        for n in (2, 3, 4, 6, 8):
            q = random_hermitian(rng, n, scale=rng.uniform(0.1, 10))
            assert np.allclose(hermitian_eigenvalues(q), np.linalg.eigvalsh(q),
                               rtol=1e-9, atol=1e-9 * np.linalg.norm(q))

    def test_tiny_scale(self):
        """Eigenvalues of physically tiny matrices (noise-power scale)."""
        rng = np.random.default_rng(2)
        q = random_hermitian(rng, 4, scale=1e-15)
        assert np.allclose(hermitian_eigenvalues(q), np.linalg.eigvalsh(q),
                           atol=1e-15 * 1e-9)

    def test_zero_matrix(self):
        assert np.allclose(hermitian_eigenvalues(np.zeros((3, 3))), 0.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            hermitian_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestRealSymmetric:
    def test_known_2x2(self):
        w = jacobi_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(w, [1.0, 3.0])

    def test_agrees_with_lapack(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(7, 7))
        sym = (m + m.T) / 2
        w = jacobi_eigenvalues(sym)
        assert np.allclose(w, np.linalg.eigvalsh(sym), atol=1e-10)


class TestWeylInequality:
    def test_additive_eigenvalue_bounds(self):
        """lambda_k(A) + lambda_1(B) <= lambda_k(A+B) <= lambda_k(A) + lambda_K(B)
        for random Hermitian pairs."""
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            a = random_hermitian(rng, n)
            b = random_hermitian(rng, n)
            wa = hermitian_eigenvalues(a)
            wb = hermitian_eigenvalues(b)
            wab = hermitian_eigenvalues(a + b)
            slack = 1e-9 * (np.linalg.norm(a) + np.linalg.norm(b))
            assert np.all(wa + wb[0] <= wab + slack)
            assert np.all(wab <= wa + wb[-1] + slack)


# six significant digits in [-10, 10]: keeps entries away from the
# subnormal range, where no eigensolver's relative accuracy is defined
_entries = st.integers(-10**6, 10**6).map(lambda i: i / 1e5)


@st.composite
def hermitian_matrices(draw):
    """Random Hermitian K x K (K <= 8), either with free entries or built as
    U diag(w) U^H from a few distinct eigenvalues, so that some repeat."""
    n = draw(st.integers(1, 8))
    scale = 10.0 ** draw(st.integers(-12, 3))
    m = np.array(draw(st.lists(_entries, min_size=2 * n * n, max_size=2 * n * n)))
    m = m[:n * n].reshape(n, n) + 1j * m[n * n:].reshape(n, n)
    if draw(st.booleans()):
        q = (m + m.conj().T) / 2
    else:
        distinct = draw(st.lists(_entries, min_size=1, max_size=n))
        w = np.array([distinct[draw(st.integers(0, len(distinct) - 1))]
                      for _ in range(n)])
        u, _ = np.linalg.qr(m)
        q = (u * w) @ u.conj().T
        q = (q + q.conj().T) / 2
    return scale * q


@settings(max_examples=50, deadline=None)
@given(hermitian_matrices())
def test_property_matches_eigvalsh(q):
    """Jacobi eigenvalues match LAPACK's to 1e-9 of the largest magnitude,
    repeated eigenvalues included (they exercise the pairing of the doubled
    spectrum of the real embedding)."""
    want = np.linalg.eigvalsh(q)
    got = hermitian_eigenvalues(q)
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def _numpy_row_jacobi(a, off_diag_rel_tol=1e-12, max_sweeps=60):
    """The solver's earlier form, rotating whole numpy rows and columns:
    the reference the Python-float sweeps must match bit for bit."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    thresh = off_diag_rel_tol * np.linalg.norm(a)
    for _ in range(max_sweeps):
        if np.abs(a - np.diag(np.diag(a))).max() <= thresh:
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
                for m in (a, a.T):
                    row_p = m[p].copy()
                    m[p] = c * row_p - s * m[q]
                    m[q] = s * row_p + c * m[q]
                a[p, q] = a[q, p] = 0.0
    else:
        raise AssertionError("reference did not converge")
    return np.sort(np.diag(a), kind="stable")


@settings(max_examples=50, deadline=None)
@given(hermitian_matrices())
def test_property_bit_identical_to_numpy_rows(q):
    """The Python-float sweeps round every entry as the numpy row form
    does, so the eigenvalues of the real embedding agree to the last bit."""
    a = np.block([[q.real, -q.imag], [q.imag, q.real]])
    want = _numpy_row_jacobi(a)
    assert jacobi_eigenvalues(a).tobytes() == want.tobytes()
    assert hermitian_eigenvalues(q).tobytes() == want[0::2].tobytes()


class TestInvalidInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        a = np.eye(3)
        a[0, 2] = a[2, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            jacobi_eigenvalues(a)
        with pytest.raises(ValueError, match="non-finite"):
            hermitian_eigenvalues(a.astype(complex))
        with pytest.raises(ValueError, match="non-finite"):
            jacobi_eigenvalues([[bad]])

    def test_norm_overflow_rejected(self):
        """Entries near 1e200 are finite, but their Frobenius norm is not,
        and a threshold of inf would end the sweeps before any rotation."""
        a = np.array([[0.0, 1e200], [1e200, 0.0]])
        with pytest.raises(ValueError, match="overflows"):
            jacobi_eigenvalues(a)
        with pytest.raises(ValueError, match="overflows"):
            hermitian_eigenvalues(a)

    def test_sweep_limit_raises(self):
        m = np.random.default_rng(3).normal(size=(6, 6))
        with pytest.raises(JacobiConvergenceError, match="1 sweeps"):
            jacobi_eigenvalues(m + m.T, max_sweeps=1)

    def test_lower_triangle_asymmetry_converges(self):
        """A matrix Hermitian within the 1e-10 acceptance tolerance but
        with a lower entry above the rotation threshold: no rotation can
        reach that entry, so it must not keep the sweeps going."""
        q = np.array([[1.0, 0.0], [1e-11, 1.0]], dtype=complex)
        assert np.allclose(hermitian_eigenvalues(q), [1.0, 1.0])
