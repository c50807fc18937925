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
        if np.any(c <= 0) or not np.all(np.isfinite(c)):
            raise ValueError("posynomial coefficients must be positive and finite")
        if not np.all(np.isfinite(a)):
            raise ValueError("exponents must be finite")
        self.coefficients, self.exponents = _merge_terms(c, a)
        self.coefficients.flags.writeable = False
        self.exponents.flags.writeable = False

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
        coeff = np.outer(self.coefficients, other.coefficients).reshape(-1)
        expo = (self.exponents[:, None, :] + other.exponents[None, :, :]
                ).reshape(-1, len(self.registry))
        return Posynomial(self.registry, coeff, expo)

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


# integers below this magnitude are their own rounding to MERGE_DECIMALS:
# x * 10**12 is exact (5**12 * 2**25 < 2**53), so np.round returns x
_ROUND_EXACT = 2.0 ** 25
_CHECK_ROWS = 1 << 12   # rows per slice of _radix_codes' integer check


def _radix_codes(exponents):
    """One float per row that orders the rows as they order
    lexicographically, and is equal exactly when the rows are equal; None
    unless every entry is an integer below _ROUND_EXACT in magnitude and
    the codes are exact.

    With lo and hi the smallest and largest entry, the code is the row
    read as a number in base hi - lo + 1.  It is taken as exponents @ radix
    without subtracting lo (that only shifts every code by one constant),
    so every partial sum is an integer below 2**53 and no summation order
    can round it.  -0.0 and 0.0 give the same code."""
    lo, hi = exponents.min(), exponents.max()
    top, base = max(-lo, hi), hi - lo + 1.0
    # the bound in Python integers, which cannot overflow
    if not (top < _ROUND_EXACT
            and math.ceil(top) * math.ceil(base) ** exponents.shape[1] < 2 ** 53):
        return None
    # checked a slice at a time: a full-size temporary would add a copy of
    # the largest product's exponents to the peak memory
    for i in range(0, len(exponents), _CHECK_ROWS):
        part = exponents[i:i + _CHECK_ROWS]
        if not np.array_equal(part, np.rint(part)):
            return None
    return exponents @ base ** np.arange(exponents.shape[1] - 1.0, -1.0, -1.0)


def _merge_terms(coefficients, exponents):
    """Sum coefficients of terms whose exponent vectors coincide.

    Vectors are compared after rounding to MERGE_DECIMALS; adding 0.0
    turns -0.0 into 0.0, so a stored row does not depend on which copy of
    a zero came first.  The rows come back in lexicographic order, and the
    stable sort keeps each group's terms in input order, so merged
    coefficients are summed in input order.  Rows of small integers
    (every product the allocator builds) need no rounding and sort by one
    code per row; other rows are rounded and sorted by np.lexsort, which
    gives the same order.
    """
    codes = _radix_codes(exponents)
    if codes is not None:
        order = np.argsort(codes, kind="stable")
        ordered = codes[order]
        start = np.concatenate(([True], ordered[1:] != ordered[:-1]))
        rows = exponents[order[start]] + 0.0
    else:
        keys = np.round(exponents, MERGE_DECIMALS)
        keys += 0.0
        order = np.lexsort(keys.T[::-1])
        ordered = keys[order]
        start = np.concatenate(([True], np.any(ordered[1:] != ordered[:-1], axis=1)))
        rows = ordered[start]
    group = np.cumsum(start) - 1
    # bincount adds one term at a time, in order; np.add.reduceat would
    # sum long groups pairwise and change the last bits
    merged = np.bincount(group, weights=coefficients[order])
    return merged, rows


def multiply(p: Posynomial, q: Posynomial) -> Posynomial:
    """Distributed product; evaluation homomorphism by construction."""
    return p * q


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


@dataclass
class ConvexFormProblem:
    """Log-variable image of a GP in standard form.

    Objective and each inequality are log-sum-exp term lists
    (offsets are logs of the positive coefficients).
    """

    registry: Registry
    objective_exponents: np.ndarray      # (M0, n)
    objective_offsets: np.ndarray        # (M0,)
    constraint_exponents: list           # S arrays (Ms, n)
    constraint_offsets: list             # S arrays (Ms,)

    @property
    def n_variables(self):
        return len(self.registry)

    @property
    def n_inequalities(self):
        return len(self.constraint_exponents)


def to_convex_form(objective: Posynomial, constraints=()) -> ConvexFormProblem:
    """Map a standard-form GP (min posynomial s.t. posynomials <= 1) to its
    convex log-sum-exp image in y = log x."""
    reg = objective.registry
    cons_a, cons_b = [], []
    for g in constraints:
        _check_registry(reg, g.registry)
        cons_a.append(g.exponents.copy())
        cons_b.append(g.log_coefficients.copy())
    return ConvexFormProblem(
        registry=reg,
        objective_exponents=objective.exponents.copy(),
        objective_offsets=objective.log_coefficients.copy(),
        constraint_exponents=cons_a,
        constraint_offsets=cons_b,
    )
