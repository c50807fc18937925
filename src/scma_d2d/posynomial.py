"""Monomial/posynomial algebra over positive variables.

Everything is expressed against a shared variable *registry* (an ordered
tuple of names), with dense exponent vectors.  Problem sizes in this
package are small (tens of variables at most), so dense layout keeps the
solver interface simple.  Coefficients are strictly positive; evaluation
and condensation run in log space so that physically tiny coefficients
(thermal-noise watts and products thereof) never underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

Registry = tuple  # ordered tuple of variable names

# exponent vectors are compared after rounding to this many decimals when
# merging terms; keeps the product expansion from blowing up in term count
# while leaving integer-exponent algebra exact
MERGE_DECIMALS = 12


class RegistryMismatchError(ValueError):
    """Raised when two operands live over different variable registries."""


def _check_registry(a, b):
    if tuple(a) != tuple(b):
        raise RegistryMismatchError(f"registries differ: {a!r} vs {b!r}")


def _as_exponents(registry, exponents):
    a = np.asarray(exponents, dtype=float).reshape(-1)
    if a.shape != (len(registry),):
        raise ValueError(f"expected {len(registry)} exponents, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("exponents must be finite")
    return a


def _log_values(log_coefficients, exponents, x):
    """log of each term c * prod(x**a), for strictly positive x."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise ValueError("arguments must be strictly positive and finite")
    return log_coefficients + exponents @ np.log(x)


@dataclass(frozen=True)
class Monomial:
    """A single positive term c * x1^a1 * ... * xn^an."""

    coefficient: float
    exponents: np.ndarray
    registry: Registry

    def __post_init__(self):
        object.__setattr__(self, "registry", tuple(self.registry))
        c = float(self.coefficient)
        if not (c > 0 and np.isfinite(c)):
            raise ValueError(f"monomial coefficient must be positive, got {c}")
        object.__setattr__(self, "coefficient", c)
        a = _as_exponents(self.registry, self.exponents)
        a.flags.writeable = False
        object.__setattr__(self, "exponents", a)

    @classmethod
    def from_powers(cls, registry, coefficient, powers=None):
        """Build from a {variable name: exponent} mapping (others 0)."""
        registry = tuple(registry)
        a = np.zeros(len(registry))
        for name, exp in (powers or {}).items():
            a[registry.index(name)] = exp
        return cls(coefficient, a, registry)

    def evaluate(self, x) -> float:
        return float(np.exp(_log_values(np.log(self.coefficient),
                                        self.exponents[None, :], x)[0]))

    def as_posynomial(self) -> "Posynomial":
        return Posynomial(self.registry, [self.coefficient], self.exponents[None, :])

    def __mul__(self, other):
        if isinstance(other, Monomial):
            _check_registry(self.registry, other.registry)
            return Monomial(self.coefficient * other.coefficient,
                            self.exponents + other.exponents, self.registry)
        if isinstance(other, Posynomial):
            return other * self
        return NotImplemented


@dataclass
class Posynomial:
    """Sum of monomials; equal exponent vectors are merged on construction."""

    registry: Registry
    coefficients: np.ndarray = field(repr=False)
    exponents: np.ndarray = field(repr=False)

    def __init__(self, registry, coefficients, exponents):
        self.registry = tuple(registry)
        if not self.registry:
            raise ValueError("posynomial needs at least one variable in its registry")
        c = np.asarray(coefficients, dtype=float).reshape(-1)
        a = np.asarray(exponents, dtype=float).reshape(len(c), len(self.registry))
        if len(c) == 0:
            raise ValueError("posynomial needs at least one term")
        _check_coefficients(c)
        if not np.all(np.isfinite(a)):
            raise ValueError("exponents must be finite")
        self._set_terms(*_merge_terms(c, a))

    def _set_terms(self, coefficients, exponents):
        """Store merged terms: distinct rows in lexicographic order."""
        self.coefficients, self.exponents = coefficients, exponents
        self.coefficients.flags.writeable = False
        self.exponents.flags.writeable = False

    @classmethod
    def from_distinct_rows(cls, registry, coefficients, exponents) -> "Posynomial":
        """The posynomial of terms whose exponent rows are distinct
        integers with no -0.0, stored as the merge stores them: the rows
        in lexicographic order, each with its own coefficient, with one
        np.lexsort and no rounding or merge.  The rows are not checked;
        for such terms Posynomial(registry, coefficients, exponents)
        stores the same bytes."""
        _check_coefficients(coefficients)
        order = np.lexsort(exponents.T[::-1])
        out = cls.__new__(cls)
        out.registry = tuple(registry)
        out._set_terms(coefficients[order], exponents[order])
        return out

    @classmethod
    def from_monomials(cls, monomials) -> "Posynomial":
        monomials = list(monomials)
        if not monomials:
            raise ValueError("posynomial needs at least one term")
        reg = monomials[0].registry
        for m in monomials[1:]:
            _check_registry(reg, m.registry)
        return cls(reg,
                   [m.coefficient for m in monomials],
                   np.stack([m.exponents for m in monomials]))

    @classmethod
    def constant(cls, registry, value) -> "Posynomial":
        registry = tuple(registry)
        return cls(registry, [value], np.zeros((1, len(registry))))

    @property
    def terms(self):
        """Terms as Monomial objects, in normalized order."""
        return [Monomial(c, a, self.registry)
                for c, a in zip(self.coefficients, self.exponents)]

    def __len__(self):
        return len(self.coefficients)

    @cached_property
    def log_coefficients(self):
        """log of each coefficient, computed once per posynomial."""
        logs = np.log(self.coefficients)
        logs.flags.writeable = False
        return logs

    def log_term_values(self, x):
        return _log_values(self.log_coefficients, self.exponents, x)

    def evaluate(self, x) -> float:
        """Value at a strictly positive point (overflow/underflow safe)."""
        logs = self.log_term_values(x)
        m = logs.max()
        return float(np.exp(m) * np.exp(logs - m).sum())

    def __mul__(self, other):
        if isinstance(other, Monomial):
            other = other.as_posynomial()
        if not isinstance(other, Posynomial):
            return NotImplemented
        _check_registry(self.registry, other.registry)
        a, b = self.exponents, other.exponents
        merged = _merge_product(self.coefficients, a, other.coefficients, b)
        if merged is None:
            return Posynomial(self.registry,
                              np.outer(self.coefficients, other.coefficients).reshape(-1),
                              (a[:, None, :] + b[None, :, :]).reshape(-1, a.shape[1]))
        out = Posynomial.__new__(Posynomial)
        out.registry = self.registry
        out._set_terms(*merged)
        return out

    __rmul__ = __mul__

    def format_lines(self):
        """Human-readable dump, one "c * x^a * ..." line per term."""
        lines = []
        for c, a in zip(self.coefficients, self.exponents):
            parts = [f"{float(c)!r}"]
            for name, e in zip(self.registry, a):
                if e != 0:
                    parts.append(f"{name}^{e:g}")
            lines.append(" * ".join(parts))
        return lines

    def __str__(self):
        return " + ".join(self.format_lines())


def _check_coefficients(c):
    # two reductions and no mask arrays; a NaN fails both tests
    if not (c.min() > 0 and c.max() < np.inf):
        raise ValueError("posynomial coefficients must be positive and finite")


def _sum_runs(coefficients, order, start):
    """Coefficients of the sorted terms summed over each run that start
    marks.  bincount adds one term at a time, in order; np.add.reduceat
    would sum long runs pairwise and change the last bits."""
    group = np.cumsum(start)
    group -= 1
    return np.bincount(group, weights=coefficients[order])


def _merge_terms(coefficients, exponents):
    """Sum coefficients of terms whose exponent vectors coincide.

    Vectors are compared after rounding to MERGE_DECIMALS; adding 0.0
    turns -0.0 into 0.0, so a stored row does not depend on which copy of
    a zero came first.  The rows come back in lexicographic order, and
    np.lexsort is stable, so merged coefficients are summed in input order.
    """
    keys = np.round(exponents, MERGE_DECIMALS)
    keys += 0.0
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    start = np.concatenate(([True], np.any(ordered[1:] != ordered[:-1], axis=1)))
    return _sum_runs(coefficients, order, start), ordered[start]


# integers below this magnitude are their own rounding to MERGE_DECIMALS:
# x * 10**12 is exact (5**12 * 2**25 < 2**53), so np.round returns x
_ROUND_EXACT = 2.0 ** 25
_SLICE_ROWS = 1 << 10   # rows per slice of _integral and of the row fill


def _integral(x):
    """Whether every entry is an integer, checked a slice at a time: a
    full-size temporary would add a copy of the largest factor's
    exponents to the peak memory."""
    return all(np.array_equal(x[i:i + _SLICE_ROWS], np.rint(x[i:i + _SLICE_ROWS]))
               for i in range(0, len(x), _SLICE_ROWS))


def _radix_codes(a, b):
    """One float per product row a[i] + b[j], flattened as i * len(b) + j,
    that orders the rows as they order lexicographically and is equal
    exactly when the rows are equal; None unless every entry of a and b
    is an integer and the codes are exact.

    With lo and hi the smallest and largest entry of the product rows, the
    code is the row read as a number in base hi - lo + 1, taken as
    row @ radix without subtracting lo (that only shifts every code by one
    constant).  The code is linear, so it is a[i] @ radix + b[j] @ radix
    and no product row is built.  With top the largest magnitude among the
    entries of a, b and the product rows, top * base**n < 2**53 is checked:
    every partial sum of a code is then an integer below 2**53, and no
    summation order can round it.  -0.0 and 0.0 give the same code."""
    a_lo, a_hi, b_lo, b_hi = a.min(axis=0), a.max(axis=0), b.min(axis=0), b.max(axis=0)
    lo, hi = (a_lo + b_lo).min(), (a_hi + b_hi).max()
    top = max(-lo, hi, -a_lo.min(), a_hi.max(), -b_lo.min(), b_hi.max())
    base = hi - lo + 1.0
    # the bound in Python integers, which cannot overflow
    if not (top < _ROUND_EXACT
            and math.ceil(top) * math.ceil(base) ** a.shape[1] < 2 ** 53
            and _integral(a) and _integral(b)):
        return None
    radix = base ** np.arange(a.shape[1] - 1.0, -1.0, -1.0)
    return ((a @ radix)[:, None] + (b @ radix)[None, :]).reshape(-1)


def _merge_product(c, a, d, b):
    """_merge_terms of the product terms c[i] * d[j] with rows a[i] + b[j],
    flattened as i * len(b) + j, bit for bit, or None when their codes
    are not exact.

    The stable argsort of the codes is np.lexsort's order of the rows, and
    integer rows are their own rounding, so the runs, their order and
    their sums are _merge_terms'.  Only the kept rows are built, a slice
    at a time, from the same additions; a and b hold no -0.0 (stored rows
    never do), so neither does their sum."""
    codes = _radix_codes(a, b)
    if codes is None:
        return None
    # each full-length temporary is dropped as soon as it is used: those
    # that outlive the sort would add to the peak memory
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    start = np.concatenate(([True], codes[1:] != codes[:-1]))
    del codes
    coefficients = np.outer(c, d).reshape(-1)
    _check_coefficients(coefficients)    # a product can underflow or overflow
    merged = _sum_runs(coefficients, order, start)
    del coefficients
    kept = order[start]
    del order, start
    rows = np.empty((len(kept), a.shape[1]))
    for s in range(0, len(kept), _SLICE_ROWS):
        i, j = np.divmod(kept[s:s + _SLICE_ROWS], len(b))
        np.add(a[i], b[j], out=rows[s:s + _SLICE_ROWS])
    return merged, rows


def product(factors) -> Posynomial:
    """Product of an iterable of posynomials over one registry."""
    factors = list(factors)
    if not factors:
        raise ValueError("empty product")
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


def condense(g: Posynomial, x0) -> Monomial:
    """Best local monomial under-approximation of ``g`` at ``x0``.

    Weights are beta_l = u_l(x0) / g(x0) (the weighted AM-GM equality
    choice), giving gtilde = prod (u_l / beta_l)^beta_l with
    gtilde(x) <= g(x) everywhere and equality, in value and gradient,
    at x = x0.  Computed via softmax in log space; a term whose weight
    underflows to zero contributes the limit factor 1: its log weight
    stays finite, so it adds 0 to both weighted sums.
    """
    logs = g.log_term_values(x0)
    m = logs.max()
    w = np.exp(logs - m)
    total = w.sum()
    beta = w / total
    log_beta = logs - m - np.log(total)
    log_coeff = float(beta @ (g.log_coefficients - log_beta))
    return Monomial(np.exp(log_coeff), beta @ g.exponents, g.registry)


class PackedConstraints:
    """LSE blocks stacked for vectorized evaluation: block s holds rows
    starts[s] up to the next start of exponents A and offsets b."""

    def __init__(self, A, b, sizes):
        self.A, self.b, self.sizes = A, b, sizes
        self.count = len(sizes)
        self.starts = np.cumsum(sizes) - sizes
        self.row_block = np.repeat(np.arange(self.count), sizes)   # the block of each row

    def shifted_exp(self, y):
        """(lse value per block, exp(z - block max) per row, per-block sums
        of those exps) at y, where z = A y + b."""
        z = self.A.dot(y)
        z += self.b
        mx = np.maximum.reduceat(z, self.starts)
        z -= mx[self.row_block]
        e = np.exp(z, out=z)
        sums = np.add.reduceat(e, self.starts)
        return mx + np.log(sums), e, sums


@dataclass
class ConvexFormProblem:
    """Log-variable image of a GP in standard form.

    Objective and each inequality are log-sum-exp term lists
    (offsets are logs of the positive coefficients).
    """

    registry: Registry
    objective_exponents: np.ndarray      # (M0, n)
    objective_offsets: np.ndarray        # (M0,)
    constraints: PackedConstraints       # S blocks (Ms, n), packed once

    @property
    def n_variables(self):
        return len(self.registry)


def to_convex_form(objective: Posynomial, constraints=()) -> ConvexFormProblem:
    """Map a standard-form GP (min posynomial s.t. posynomials <= 1) to its
    convex log-sum-exp image in y = log x."""
    reg = objective.registry
    constraints = list(constraints)
    for g in constraints:
        _check_registry(reg, g.registry)
    return ConvexFormProblem(
        registry=reg,
        objective_exponents=objective.exponents.copy(),
        objective_offsets=objective.log_coefficients.copy(),
        constraints=PackedConstraints(
            np.vstack([np.empty((0, len(reg)))] + [g.exponents for g in constraints]),
            np.concatenate([np.empty(0)] + [g.log_coefficients for g in constraints]),
            np.array([len(g) for g in constraints], dtype=int)),
    )
