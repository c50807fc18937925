"""Tests for the monomial/posynomial algebra and its convex transform."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import unpack_blocks
from scma_d2d.posynomial import (
    MERGE_DECIMALS,
    ConvexFormProblem,
    Monomial,
    Posynomial,
    RegistryMismatchError,
    condense,
    _merge_product,
    _merge_terms,
    _radix_codes,
    product,
    to_convex_form,
)

REG2 = ("x1", "x2")


def eval_by_hand(coefficients, exponents, x):
    """Independent scalar evaluation loop (second route, kept deliberately
    separate from the vectorized implementation)."""
    total = 0.0
    for c, row in zip(coefficients, exponents):
        term = c
        for xi, ai in zip(x, row):
            term *= math.pow(xi, ai)
        total += term
    return total


def random_posynomial(rng, registry, n_terms):
    coeff = rng.uniform(0.1, 5.0, size=n_terms)
    expo = rng.uniform(-2.0, 2.0, size=(n_terms, len(registry)))
    return Posynomial(registry, coeff, expo)


class TestEvaluate:
    def test_two_variable_product(self):
        """2*x1*x2 at (3,4) is 24."""
        p = Monomial.from_powers(REG2, 2.0, {"x1": 1, "x2": 1}).as_posynomial()
        assert p.evaluate([3.0, 4.0]) == pytest.approx(24.0, rel=1e-12)

    def test_reciprocal_pair(self):
        """x + 1/x at x=1 is 2."""
        reg = ("x",)
        p = Posynomial.from_monomials([
            Monomial.from_powers(reg, 1.0, {"x": 1}),
            Monomial.from_powers(reg, 1.0, {"x": -1}),
        ])
        assert p.evaluate([1.0]) == pytest.approx(2.0, rel=1e-12)

    def test_matches_independent_loop(self):
        """Vectorized evaluation agrees with a digit-by-digit scalar loop."""
        rng = np.random.default_rng(7)
        reg = ("a", "b", "c")
        p = random_posynomial(rng, reg, 5)
        for _ in range(10):
            x = rng.uniform(0.2, 4.0, size=3)
            expected = eval_by_hand(p.coefficients, p.exponents, x)
            assert p.evaluate(x) == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonpositive_argument(self):
        p = Posynomial.constant(REG2, 1.0)
        with pytest.raises(ValueError):
            p.evaluate([1.0, 0.0])
        with pytest.raises(ValueError):
            p.evaluate([-1.0, 2.0])


class TestConstruction:
    def test_merges_equal_exponent_vectors(self):
        """(x+1)(x+1) has 3 terms with the middle coefficient merged to 2."""
        reg = ("x",)
        p = Posynomial.from_monomials([
            Monomial.from_powers(reg, 1.0, {"x": 1}),
            Monomial.from_powers(reg, 1.0),
        ])
        sq = p * p
        assert len(sq) == 3
        by_exp = {float(a[0]): c for c, a in zip(sq.coefficients, sq.exponents)}
        assert by_exp == {0.0: 1.0, 1.0: 2.0, 2.0: 1.0}

    def test_merge_rounds_to_twelve_decimals(self):
        """Exponents that agree after rounding to 12 decimals merge."""
        reg = ("x",)
        p = Posynomial(reg, [1.0, 2.0], np.array([[1.0], [1.0 + 1e-13]]))
        assert len(p) == 1
        assert p.coefficients[0] == pytest.approx(3.0)
        q = Posynomial(reg, [1.0, 2.0], np.array([[1.0], [1.0 + 1e-11]]))
        assert len(q) == 2

    def test_rejects_nonpositive_coefficients(self):
        with pytest.raises(ValueError):
            Monomial.from_powers(REG2, 0.0)
        with pytest.raises(ValueError):
            Posynomial(REG2, [1.0, -2.0], np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_coefficients(self, bad):
        """Every constructor rejects a zero, negative, infinite or NaN
        coefficient, the merge-free one included."""
        c = np.array([1.0, bad])
        with pytest.raises(ValueError, match="positive and finite"):
            Posynomial(REG2, c, np.eye(2))
        with pytest.raises(ValueError, match="positive and finite"):
            Posynomial.from_distinct_rows(REG2, c, np.eye(2))

    def test_distinct_rows_stored_as_merged(self):
        """Distinct integer rows in any order are stored as the merge
        stores them, byte for byte."""
        rng = np.random.default_rng(8)
        reg = ("a", "b", "c", "d")
        for _ in range(20):
            rows = np.unique(rng.integers(-2, 3, size=(12, 4)).astype(float), axis=0) + 0.0
            rows = rows[rng.permutation(len(rows))]
            c = rng.uniform(0.1, 5.0, size=len(rows))
            got = Posynomial.from_distinct_rows(reg, c, rows)
            want = Posynomial(reg, c, rows)
            assert got.registry == want.registry
            assert got.coefficients.tobytes() == want.coefficients.tobytes()
            assert got.exponents.tobytes() == want.exponents.tobytes()

    def test_empty_registry_rejected(self):
        """A posynomial over no variables is a clear ValueError, not an
        error from deep inside the term merge."""
        with pytest.raises(ValueError, match="at least one variable"):
            Posynomial.constant((), 1.0)
        with pytest.raises(ValueError, match="at least one variable"):
            Posynomial((), [1.0, 2.0], np.zeros((2, 0)))
        with pytest.raises(ValueError, match="at least one variable"):
            Monomial.from_powers((), 3.0).as_posynomial()

    def test_format_lines(self):
        p = Posynomial.from_monomials([
            Monomial.from_powers(REG2, 2.0, {"x1": 1.0, "x2": -0.5}),
        ])
        (line,) = p.format_lines()
        assert line == "2.0 * x1^1 * x2^-0.5"


def _merge_terms_reference(coefficients, exponents):
    """The merge by np.unique(axis=0): an independent route to the same
    unique rows, lexicographic order and input-order coefficient sums."""
    keys = np.round(exponents, MERGE_DECIMALS) + 0.0
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    merged = np.zeros(len(uniq))
    np.add.at(merged, inverse, coefficients)
    order = np.lexsort(uniq.T[::-1])
    return merged[order], uniq[order]


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()     # tells -0.0 from 0.0


# integer and half-integer exponents (what the allocator's products hold),
# a third, and zeros of both signs
_EXPONENT_POOL = (-2.0, -1.0, -0.5, 0.0, -0.0, 1.0 / 3.0, 0.5, 1.0, 2.0)


@st.composite
def merge_inputs(draw):
    """(coefficients, exponents) with up to 500 rows over up to 8 columns,
    most of them copies of a few base rows.  Copied entries may turn 0.0
    into -0.0 or move by 1e-13 (still merges after rounding) or 1e-11
    (does not).  Coefficients mix 1.0 with 1e-16, so that a sum over
    three or more duplicates depends on the order of addition."""
    n_cols = draw(st.integers(1, 8))
    n_base = draw(st.integers(1, 20))
    n_rows = draw(st.integers(1, 500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.choice(_EXPONENT_POOL, size=(n_base, n_cols))
    free = rng.random(base.shape) < 0.2
    base[free] = rng.uniform(-3.0, 3.0, size=free.sum())
    rows = base[rng.integers(n_base, size=n_rows)]
    kind = rng.integers(6, size=rows.shape)
    rows = np.where((kind == 0) & (rows == 0), -0.0, rows)
    rows = np.where(kind == 1, rows + rng.choice([-1e-13, 1e-13], size=rows.shape), rows)
    rows = np.where(kind == 2, rows + 1e-11, rows)
    coefficients = np.where(rng.random(n_rows) < 0.6,
                            rng.choice([1.0, 1e-16], size=n_rows),
                            rng.uniform(0.1, 10.0, size=n_rows))
    return coefficients, rows


class TestMergeTerms:
    @settings(max_examples=200, deadline=None)
    @given(case=merge_inputs())
    @example(case=(np.array([2.0]), np.array([[0.5, -0.0]])))
    @example(case=(np.array([1.0, 1e-16, 1e-16]), np.full((3, 2), 0.5)))
    @example(case=(np.array([1e-16, 1e-16, 1.0]), np.full((3, 2), 0.5)))
    @example(case=(np.array([1.0, 1.0]), np.array([[-0.0], [0.0]])))
    def test_property_matches_unique_reference(self, case):
        """Same unique rows, order and coefficient sums as the np.unique
        merge, bit for bit."""
        coefficients, exponents = case
        got_c, got_a = _merge_terms(coefficients, exponents)
        want_c, want_a = _merge_terms_reference(coefficients, exponents)
        _assert_same_bits(got_a, want_a)
        _assert_same_bits(got_c, want_c)


def _merge_terms_lexsort(coefficients, exponents):
    """The merge by np.lexsort and a Python loop: rows in lexicographic
    order, each group's coefficients added one at a time in input order."""
    keys = np.round(exponents, MERGE_DECIMALS) + 0.0
    rows, sums = [], []
    for i in np.lexsort(keys.T[::-1]):
        if rows and np.array_equal(keys[i], rows[-1]):
            sums[-1] += coefficients[i]
        else:
            rows.append(keys[i])
            sums.append(0.0 + coefficients[i])
    return np.array(sums), np.array(rows)


@st.composite
def integer_merge_inputs(draw):
    """(coefficients, exponents, kind): up to 400 rows over up to 16
    columns, copies of a few base rows with entries in a drawn integer
    range (negative ones included); copied zeros may turn into -0.0.
    kind "perturbed" moves some copied entries by 1e-13 (integers again
    after rounding); "fractional" puts 0.5 or 1/3 on some entries; "wide"
    spreads the integers up to 6e8, past the magnitude the single-key path
    takes, and far enough that with many columns its codes could not be
    exact.  Coefficients mix 1.0 with 1e-16, so that a sum over three or
    more duplicates depends on the order of addition."""
    kind = draw(st.sampled_from(["integer", "perturbed", "fractional", "wide"]))
    n_cols = draw(st.integers(1, 16))
    n_base = draw(st.integers(1, 30))
    n_rows = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.integers(-4, 0))
    hi = lo + draw(st.integers(0, 6))
    base = rng.integers(lo, hi + 1, size=(n_base, n_cols)).astype(float)
    if kind == "fractional":
        frac = rng.random(base.shape) < 0.1
        frac[0, 0] = True
        base[frac] += rng.choice([0.5, 1.0 / 3.0], size=frac.sum())
    elif kind == "wide":
        base *= 10.0 ** rng.integers(0, 9, size=base.shape)
    pick = rng.integers(n_base, size=n_rows)
    pick[0] = 0
    rows = base[pick]
    rows = np.where((rng.random(rows.shape) < 0.3) & (rows == 0), -0.0, rows)
    if kind == "perturbed":
        moved = rng.random(rows.shape) < 0.05
        rows[moved] += rng.choice([-1e-13, 1e-13], size=moved.sum())
    coefficients = np.where(rng.random(n_rows) < 0.6,
                            rng.choice([1.0, 1e-16], size=n_rows),
                            rng.uniform(0.1, 10.0, size=n_rows))
    return coefficients, rows, kind


class TestSingleKeyMerge:
    @settings(max_examples=200, deadline=None)
    @given(case=integer_merge_inputs())
    @example(case=(np.array([1.0, 1e-16, 1e-16]), np.array([[-1.0, 0.0]] * 3), "integer"))
    @example(case=(np.array([1e-16, 1e-16, 1.0]), np.array([[-1.0, -0.0]] * 3), "integer"))
    @example(case=(np.array([1.0, 2.0, 3.0]), np.array([[0.0], [-0.0], [-1.0]]), "integer"))
    @example(case=(np.array([1.0, 1.0]), np.array([[1.0, 0.5], [1.0, 0.5]]), "fractional"))
    # rounding to 12 decimals moves this integer to 54927319.00000001
    @example(case=(np.array([1.0, 2.0]), np.array([[54927319.0], [3.0]]), "wide"))
    # 64 copies of one row: an unstable sort would reorder the 1e-16 terms
    @example(case=(np.tile([1.0, 1e-16, 1e-16, 1e-16], 16), np.zeros((64, 3)), "integer"))
    def test_matches_lexsort_reference(self, case):
        """Same rows, order and coefficient bits as the lexsort merge that
        sums each group in input order, on the single-key product merge
        (the rows times a one-term factor 1 * x^0) and on _merge_terms
        alike."""
        coefficients, exponents, kind = case
        want_c, want_a = _merge_terms_lexsort(coefficients, exponents)
        for merge in (_merge_terms, _merge_by_codes):
            got = merge(coefficients, exponents)
            if got is None:
                assert kind != "integer"
                continue
            _assert_same_bits(got[1], want_a)
            _assert_same_bits(got[0], want_c)
        if kind == "fractional":
            assert _merge_by_codes(coefficients, exponents) is None

    def test_codes_sort_like_rows(self):
        """Integer rows get one code each, ordered as np.lexsort orders the
        rows; fractional rows and ranges whose codes could not be exact
        get None.  A product's codes are those of its rows a[i] + b[j],
        and the bound covers the factors' entries as well as the rows'."""
        rng = np.random.default_rng(7)
        keys = rng.integers(-3, 4, size=(300, 16)).astype(float) + 0.0
        zero = np.zeros((1, 16))
        codes = _radix_codes(keys, zero)
        np.testing.assert_array_equal(np.argsort(codes, kind="stable"),
                                      np.lexsort(keys.T[::-1]))
        assert len(np.unique(codes)) == len(np.unique(keys, axis=0))
        assert _radix_codes(keys + 0.5, zero) is None
        assert _radix_codes(zero, keys + 0.5) is None
        wide = keys.copy()
        wide[0, 0] = 20.0    # base 24 over 16 columns: 24**16 > 2**53
        assert _radix_codes(wide, zero) is None
        assert _radix_codes(np.array([[2.0 ** 25, 0.0]]), np.zeros((1, 2))) is None
        assert _radix_codes(np.ones((2, 400)) * np.array([[1.0], [-1.0]]),
                            np.zeros((1, 400))) is None
        assert _radix_codes(np.zeros((4, 3)), np.zeros((1, 3))) is not None
        # rows of 2**25 from factors below it, and factors of 2**25 whose
        # rows are 0
        half = np.array([[2.0 ** 24]])
        assert _radix_codes(half, half) is None
        assert _radix_codes(2 * half, -2 * half) is None
        a, b = keys[:40, :8], keys[40:70, :8]
        rows = (a[:, None] + b[None]).reshape(-1, 8)
        np.testing.assert_array_equal(_radix_codes(a, b), _radix_codes(rows, zero[:, :8]))
        np.testing.assert_array_equal(np.argsort(_radix_codes(a, b), kind="stable"),
                                      np.lexsort(rows.T[::-1]))


def _merge_by_codes(coefficients, exponents):
    """_merge_product of the rows times the one-term factor 1 * x^0."""
    return _merge_product(coefficients, exponents, np.ones(1),
                          np.zeros((1, exponents.shape[1])))


@st.composite
def product_factors(draw):
    """(p, q, kind): two posynomials over one registry of up to 8 (kind
    "wide": 12 to 16) variables, with 1 to 60 terms each (often one).
    kind "integer" draws entries in {-2, ..., 2} (zeros of either
    sign), so the raw product has many equal rows; "fractional" puts 0.5
    or 1/3 on an entry of p; "large" puts 2**25 or more on an entry of q;
    "wide" spreads entries over -20..20, so that base 41 over 12 or more
    columns cannot give exact codes.  The last three take the raw-row
    merge.  Coefficients mix 1.0 with 1e-16, so that a sum over three or
    more equal rows depends on the order of addition."""
    kind = draw(st.sampled_from(["integer", "integer", "fractional", "large", "wide"]))
    n_cols = draw(st.integers(12, 16) if kind == "wide" else st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    reg = tuple(f"x{i}" for i in range(n_cols))

    def factor():
        n_terms = draw(st.sampled_from([1, 1, 2, 5, 20, 60]))
        rows = rng.integers(-2, 3, size=(n_terms, n_cols)).astype(float)
        rows = np.where((rng.random(rows.shape) < 0.3) & (rows == 0), -0.0, rows)
        coefficients = np.where(rng.random(n_terms) < 0.6,
                                rng.choice([1.0, 1e-16], size=n_terms),
                                rng.uniform(0.1, 10.0, size=n_terms))
        return coefficients, rows

    (cp, ap), (cq, aq) = factor(), factor()
    if kind == "fractional":
        ap[0, 0] += rng.choice([0.5, 1.0 / 3.0])
    elif kind == "large":
        aq[0, 0] = 2.0 ** rng.integers(25, 40)
    elif kind == "wide":
        ap[0, 0], aq[0, 1] = 20.0, -20.0
    return Posynomial(reg, cp, ap), Posynomial(reg, cq, aq), kind


class TestProductMerge:
    @settings(max_examples=200, deadline=None)
    @given(case=product_factors())
    @example(case=(Posynomial(("x",), [1.0, 1e-16, 1e-16], [[-1.0], [0.0], [1.0]]),
                   Posynomial(("x",), [1e-16, 1.0, 1e-16], [[1.0], [-0.0], [-1.0]]),
                   "integer"))
    @example(case=(Posynomial(("x", "y"), [2.0], [[0.0, -0.0]]),
                   Posynomial(("x", "y"), [3.0], [[-0.0, 0.0]]), "integer"))
    def test_matches_merge_of_raw_rows(self, case):
        """p * q is _merge_terms of the materialized raw product rows, bit
        for bit in coefficients and exponents, on the single-key merge and
        on the raw-row fallback alike."""
        p, q, kind = case
        n = len(p.registry)
        raw_c = np.outer(p.coefficients, q.coefficients).reshape(-1)
        raw_a = (p.exponents[:, None] + q.exponents[None]).reshape(-1, n)
        want_c, want_a = _merge_terms(raw_c, raw_a)
        got = p * q
        _assert_same_bits(got.exponents, want_a)
        _assert_same_bits(got.coefficients, want_c)
        codes = _radix_codes(p.exponents, q.exponents)
        assert (codes is None) == (kind != "integer")


class TestMultiply:
    def test_identity_monomial(self):
        rng = np.random.default_rng(3)
        p = random_posynomial(rng, REG2, 4)
        one = Monomial.from_powers(REG2, 1.0)
        q = p * one
        assert np.allclose(q.coefficients, p.coefficients)
        assert np.allclose(q.exponents, p.exponents)

    def test_evaluation_homomorphism(self):
        """Product of 5 random trinomials evaluates to the product of the
        individual evaluations."""
        rng = np.random.default_rng(11)
        reg = ("u", "v", "w", "z")
        factors = [random_posynomial(rng, reg, 3) for _ in range(5)]
        prod = product(factors)
        assert len(prod) <= 3 ** 5
        for _ in range(10):
            x = rng.uniform(0.3, 3.0, size=4)
            expected = 1.0
            for f in factors:
                expected *= f.evaluate(x)
            assert prod.evaluate(x) == pytest.approx(expected, rel=1e-12)

    def test_registry_mismatch(self):
        p = Posynomial.constant(("x",), 1.0)
        q = Posynomial.constant(("y",), 1.0)
        with pytest.raises(RegistryMismatchError):
            p * q


class TestCondense:
    def test_single_term_unchanged(self):
        m = Monomial.from_powers(REG2, 3.0, {"x1": 2.0})
        g = m.as_posynomial()
        tilde = condense(g, [0.7, 1.3])
        assert tilde.coefficient == pytest.approx(3.0, rel=1e-12)
        assert np.allclose(tilde.exponents, m.exponents)

    def test_reciprocal_pair_becomes_constant(self):
        """x + 1/x condensed at x0=1 gives the constant monomial 2."""
        reg = ("x",)
        g = Posynomial.from_monomials([
            Monomial.from_powers(reg, 1.0, {"x": 1}),
            Monomial.from_powers(reg, 1.0, {"x": -1}),
        ])
        tilde = condense(g, [1.0])
        assert tilde.coefficient == pytest.approx(2.0, rel=1e-12)
        assert tilde.exponents[0] == pytest.approx(0.0, abs=1e-12)

    def test_underflowing_weight_contributes_factor_one(self):
        """A term whose weight underflows to zero changes neither the
        coefficient nor the exponents: the result is the condensation of
        the other terms, and finite."""
        reg = ("x", "y")
        kept = [Monomial.from_powers(reg, 2.0, {"x": 1}),
                Monomial.from_powers(reg, 0.5, {"y": -1})]
        faint = Monomial.from_powers(reg, 1e-300, {"x": -100, "y": 3})
        x0 = [1e5, 2.0]
        assert faint.evaluate(x0) == 0.0
        got = condense(Posynomial.from_monomials(kept + [faint]), x0)
        want = condense(Posynomial.from_monomials(kept), x0)
        assert np.isfinite(got.coefficient) and np.all(np.isfinite(got.exponents))
        assert got.coefficient == pytest.approx(want.coefficient, rel=1e-14)
        np.testing.assert_allclose(got.exponents, want.exponents, rtol=0, atol=1e-15)

    def test_underestimates_everywhere_tight_at_center(self):
        """AM-GM sweep: gtilde <= g at sampled points, equality at x0."""
        rng = np.random.default_rng(23)
        reg = ("a", "b", "c")
        for _ in range(50):
            g = random_posynomial(rng, reg, rng.integers(2, 6))
            x0 = rng.uniform(0.2, 4.0, size=3)
            tilde = condense(g, x0)
            assert tilde.evaluate(x0) == pytest.approx(g.evaluate(x0), rel=1e-10)
            for _ in range(50):
                x = rng.uniform(0.05, 10.0, size=3)
                assert tilde.evaluate(x) <= g.evaluate(x) * (1 + 1e-12)

    def test_gradient_matches_at_center(self):
        """Best local monomial approximation: central finite differences of
        g and gtilde agree at the expansion point."""
        rng = np.random.default_rng(29)
        reg = ("a", "b")
        for _ in range(10):
            g = random_posynomial(rng, reg, 4)
            x0 = rng.uniform(0.5, 2.0, size=2)
            tilde = condense(g, x0)
            h = 1e-6
            for i in range(2):
                ei = np.zeros(2)
                ei[i] = h
                dg = (g.evaluate(x0 + ei) - g.evaluate(x0 - ei)) / (2 * h)
                dt = (tilde.evaluate(x0 + ei) - tilde.evaluate(x0 - ei)) / (2 * h)
                assert dt == pytest.approx(dg, rel=1e-4)


_FACTOR = st.lists(
    st.tuples(st.floats(0.1, 10.0),
              st.tuples(*[st.sampled_from((-1.0, -0.5, 0.0, 1.0, 2.0))] * 3)),
    min_size=1, max_size=5)


@settings(max_examples=100, deadline=None)
@given(factors=st.lists(_FACTOR, min_size=1, max_size=4),
       x0=st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3))
def test_property_condensed_product_is_product_of_condensations(factors, x0):
    """Condensing the expanded (merged) product at x0 gives the product of
    the per-factor condensations: both are the monomial matching the
    product's value and log-gradient at x0."""
    reg = ("a", "b", "c")
    posys = [Posynomial(reg, [c for c, _ in f], [a for _, a in f]) for f in factors]
    whole = condense(product(posys), x0)
    parts = condense(posys[0], x0)
    for p in posys[1:]:
        parts = parts * condense(p, x0)
    assert whole.coefficient == pytest.approx(parts.coefficient, rel=1e-10)
    np.testing.assert_allclose(whole.exponents, parts.exponents, rtol=0, atol=1e-12)


class TestConvexForm:
    def test_monomial_objective_is_affine(self):
        """c*x^a maps to the single-term form a.y + log c."""
        m = Monomial.from_powers(REG2, 4.0, {"x1": 2.0, "x2": -1.0})
        cp = to_convex_form(m.as_posynomial())
        assert cp.objective_exponents.shape == (1, 2)
        assert np.allclose(cp.objective_exponents[0], [2.0, -1.0])
        assert cp.objective_offsets[0] == pytest.approx(np.log(4.0))

    def test_simple_cap_constraint(self):
        """x1 <= 1 becomes the affine constraint y1 <= 0."""
        obj = Posynomial.constant(REG2, 1.0)
        cap = Monomial.from_powers(REG2, 1.0, {"x1": 1.0}).as_posynomial()
        cp = to_convex_form(obj, constraints=[cap])
        assert cp.constraints.count == 1
        assert np.allclose(cp.constraints.A[0], [1.0, 0.0])
        assert cp.constraints.b[0] == pytest.approx(0.0)

    def test_round_trip_value_identity(self):
        """G0(x) = exp(G0'(log x)) for random problems and points."""
        rng = np.random.default_rng(31)
        reg = ("a", "b", "c")
        for _ in range(5):
            obj = random_posynomial(rng, reg, 4)
            cons = [random_posynomial(rng, reg, 3) for _ in range(2)]
            cp = to_convex_form(obj, constraints=cons)
            for _ in range(4):
                x = rng.uniform(0.2, 5.0, size=3)
                y = np.log(x)
                lse = cp.objective_exponents @ y + cp.objective_offsets
                val = np.exp(lse).sum()
                assert val == pytest.approx(obj.evaluate(x), rel=1e-12)
                for (a, b), g in zip(unpack_blocks(cp.constraints), cons, strict=True):
                    assert np.exp(a @ y + b).sum() == pytest.approx(
                        g.evaluate(x), rel=1e-12)
