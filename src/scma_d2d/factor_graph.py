"""SCMA factor graph, incidence sets and codebook covariance skeleton.

The sparse-code structure is a K x J binary indicator matrix: column j
marks the N subcarriers user j occupies.  Columns are generated as the
first J N-subsets of the K subcarriers in lexicographic order, which
reproduces the standard regular graph for (K=4, J=6, N=2).  A codebook
skeleton carries, per user, the subcarrier selector, an N x 2N complex
spreading matrix, a phase rotation and the diagonal covariance of the
underlying 2N-dimensional constellation; together they determine the
user's transmit covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np


class DimensionError(ValueError):
    """Raised when requested factor-graph dimensions are unusable."""


@dataclass(frozen=True)
class FactorGraph:
    """K x J binary indicator matrix with regular row and column degrees."""

    indicator: np.ndarray   # (K, J) of 0/1
    K: int
    J: int
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise DimensionError(f"N = {self.N}: every user needs a subcarrier")
        ind = np.asarray(self.indicator, dtype=int)
        if ind.shape != (self.K, self.J):
            raise DimensionError(f"indicator shape {ind.shape} != ({self.K}, {self.J})")
        if not ((ind == 0) | (ind == 1)).all():
            raise DimensionError("indicator entries must be 0 or 1")
        col_sums = ind.sum(axis=0)
        if not (col_sums == self.N).all():
            raise DimensionError(f"column sums {col_sums.tolist()} != N = {self.N}")
        if (self.J * self.N) % self.K != 0:
            raise DimensionError("J*N must be divisible by K for regular rows")
        d_c = self.J * self.N // self.K
        row_sums = ind.sum(axis=1)
        if not (row_sums == d_c).all():
            raise DimensionError(
                f"row sums {row_sums.tolist()} are not all {d_c}; "
                "graph is not row-regular")
        ind.flags.writeable = False
        object.__setattr__(self, "indicator", ind)

    @property
    def d_f(self) -> int:
        """Subcarriers per user (column degree)."""
        return self.N

    @property
    def d_c(self) -> int:
        """Users per subcarrier (row degree)."""
        return self.J * self.N // self.K

    def to_text(self) -> str:
        """Rows of space-separated 0/1, one line per subcarrier."""
        return "\n".join(" ".join(str(v) for v in row) for row in self.indicator)

    @classmethod
    def from_text(cls, text: str) -> "FactorGraph":
        lines = [(i, line.split()) for i, line in enumerate(text.splitlines(), 1)
                 if line.strip()]
        if not lines or any(len(row) != len(lines[0][1]) for _, row in lines):
            raise DimensionError("empty or ragged indicator text")
        ind = np.array([[_entry(v, i) for v in row] for i, row in lines])
        n = int(ind.sum(axis=0)[0])
        return cls(ind, K=ind.shape[0], J=ind.shape[1], N=n)


def _entry(token: str, line: int) -> int:
    """The integer in one token of indicator text on the given line."""
    try:
        return int(token)
    except ValueError:
        raise DimensionError(
            f"indicator entry {token!r} on line {line} is not an integer") from None


@dataclass(frozen=True)
class IncidenceSets:
    """Per-subcarrier user sets and per-user subcarrier sets (0-based,
    sorted ascending)."""

    users_of_subcarrier: tuple   # xi_k for each subcarrier k
    subcarriers_of_user: tuple   # zeta_j for each user j


def build_factor_graph(K: int, J: int, N: int) -> FactorGraph:
    """Regular factor graph whose columns are the first J N-subsets of the
    K subcarriers in lexicographic order.

    Requires J*N divisible by K, N <= K and C(K, N) >= J; raises
    DimensionError otherwise, or when the lexicographic prefix happens not
    to be row-regular for an otherwise admissible (K, J, N).
    """
    if K <= 0 or J <= 0 or N <= 0:
        raise DimensionError("K, J, N must be positive")
    if N > K:
        raise DimensionError(f"N = {N} exceeds K = {K}")
    if (J * N) % K != 0:
        raise DimensionError(f"J*N = {J * N} not divisible by K = {K}")
    if J > math.comb(K, N):
        raise DimensionError(f"need {J} distinct columns, only C({K},{N}) available")
    ind = np.zeros((K, J), dtype=int)
    for j, subset in enumerate(combinations(range(K), N)):
        if j == J:
            break
        ind[list(subset), j] = 1
    return FactorGraph(ind, K=K, J=J, N=N)


def incidence_sets(graph: FactorGraph) -> IncidenceSets:
    ind = graph.indicator
    xi = tuple(tuple(np.flatnonzero(ind[k]).tolist()) for k in range(graph.K))
    zeta = tuple(tuple(np.flatnonzero(ind[:, j]).tolist()) for j in range(graph.J))
    return IncidenceSets(users_of_subcarrier=xi, subcarriers_of_user=zeta)


@dataclass(frozen=True)
class CodebookSkeleton:
    """Structural codebook parameters shared by the capacity bounds.

    selectors: per-user K x N 0/1 matrices placing the N codeword
        dimensions on the user's subcarriers.
    rotation: N x 2N complex spreading applied to the equivalent
        2N-dimensional real/imaginary constellation vector.
    phases: per-user rotation angle in radians (cancels in covariances).
    qam_covariance: per-user 2N positive diagonal constellation powers.
    """

    selectors: tuple            # J matrices (K, N)
    rotation: np.ndarray        # (N, 2N) complex
    phases: np.ndarray          # (J,)
    qam_covariance: np.ndarray  # (J, 2N) positive

    def __post_init__(self):
        n = self.rotation.shape[0]
        if self.rotation.shape != (n, 2 * n):
            raise DimensionError("rotation must be N x 2N")
        for v in self.selectors:
            if v.shape[1] != n:
                raise DimensionError("selector column count must equal N")
            if not ((v.sum(axis=0) == 1).all() and ((v == 0) | (v == 1)).all()):
                raise DimensionError("each selector column must have exactly one 1")
        if self.qam_covariance.shape != (len(self.selectors), 2 * n):
            raise DimensionError("qam_covariance must be J x 2N")
        if np.any(self.qam_covariance < 0):
            raise DimensionError("qam_covariance entries must be non-negative")


def default_rotation(N: int) -> np.ndarray:
    """N x 2N spreading built from the unitary 2N-point DFT: the first-N /
    last-N halves of the constellation vector enter as real and imaginary
    parts before spreading."""
    two_n = 2 * N
    dft = np.exp(-2j * np.pi * np.outer(np.arange(two_n), np.arange(two_n)) / two_n)
    dft /= np.sqrt(two_n)
    combine = np.hstack([np.eye(N), 1j * np.eye(N)])  # (N, 2N): re + i*im
    return combine @ dft


def selector_matrix(graph: FactorGraph, user: int) -> np.ndarray:
    """K x N matrix whose columns place codeword dimensions on the user's
    subcarriers in ascending order."""
    rows = np.flatnonzero(graph.indicator[:, user])
    v = np.zeros((graph.K, graph.N), dtype=int)
    for col, k in enumerate(rows):
        v[k, col] = 1
    return v


def default_skeleton(graph: FactorGraph, per_user_power_w: float = 1.0) -> CodebookSkeleton:
    """Deterministic skeleton: DFT spreading, evenly spaced phases, equal
    constellation powers summing to per_user_power_w per user."""
    selectors = tuple(selector_matrix(graph, j) for j in range(graph.J))
    phases = 2 * np.pi * np.arange(graph.J) / graph.J
    qam = np.full((graph.J, 2 * graph.N), per_user_power_w / (2 * graph.N))
    return CodebookSkeleton(selectors, default_rotation(graph.N), phases, qam)


def random_skeleton(graph: FactorGraph, rng, per_user_power_w: float = 1.0) -> CodebookSkeleton:
    """Random phases and constellation powers on the default spreading."""
    selectors = tuple(selector_matrix(graph, j) for j in range(graph.J))
    phases = rng.uniform(0, 2 * np.pi, size=graph.J)
    qam = rng.uniform(0.2, 1.8, size=(graph.J, 2 * graph.N))
    qam *= per_user_power_w / qam.sum(axis=1, keepdims=True)
    return CodebookSkeleton(selectors, default_rotation(graph.N), phases, qam)


def covariance_split(skel: CodebookSkeleton, user: int):
    """The two K x K Hermitian PSD pieces whose sum is the user's transmit
    covariance: (VM')_half A_half (VM')_half^* for the first-N and last-N
    constellation dimensions."""
    v = skel.selectors[user].astype(complex)
    vm = v @ skel.rotation                      # (K, 2N)
    n = skel.rotation.shape[0]
    m1, m2 = vm[:, :n], vm[:, n:]
    a1 = skel.qam_covariance[user, :n]
    a2 = skel.qam_covariance[user, n:]
    s1 = (m1 * a1) @ m1.conj().T
    s2 = (m2 * a2) @ m2.conj().T
    return s1, s2


def build_covariance(skel: CodebookSkeleton, user: int) -> np.ndarray:
    """K x K Hermitian PSD transmit covariance of one user; rows/columns
    outside the user's subcarriers are zero."""
    s1, s2 = covariance_split(skel, user)
    return s1 + s2
