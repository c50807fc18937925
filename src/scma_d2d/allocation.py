"""Sum-rate maximizing power allocation by iterative GP condensation.

The sum rate equals log2 of a ratio of posynomial products in the powers,
so maximizing it is a complementary GP: minimize [prod f] / [prod g]
where the f factors collect noise-plus-interference and the g factors add
the useful signal.  Each iteration replaces the expanded denominator
posynomial with its best local monomial under-approximation at the
current point (weighted AM-GM), leaving a standard GP that the barrier
solver handles; because the surrogate upper-bounds the true objective and
touches it at the expansion point, the true sum rate never decreases
across iterations and the loop converges to a KKT point.

Variables are ordered [P_jk for each user j over its subcarriers, then
the per-pair D2D powers]; all values are watts.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .capacity import PowerAllocation, check_occupancy, power_gains, tone_of_pair
from .channel import ChannelRealization, ScenarioConfig
from .factor_graph import DimensionError, FactorGraph
from .gp import (
    DUALITY_GAP_TOL,
    OPTIMAL,
    SolverResult,
    find_feasible,
    solve,
)
from .posynomial import (
    ConvexFormProblem,
    Posynomial,
    condense,
    product,
    to_convex_form,
)

# the condense-and-solve loop stops once a pass changes the sum rate by
# at most this fraction of max(1, previous rate)
REL_TOL = 1e-6
# a pass may lower the sum rate by at most this many bits (rounding and
# the solver's certified gap); a larger fall is a solver fault
ASCENT_TOL_BITS = 1e-8
# allocate refuses a system whose expanded objective could need more
# exponent-row bytes than this: prod_r |g_r| rows of n float64s
MAX_EXPANSION_BYTES = 2 ** 30
# the random baseline's draws per call
MAX_RESAMPLE = 1000


class InfeasibleScenarioError(RuntimeError):
    """The QoS floors cannot all be met for this channel draw."""

    def __init__(self, max_slack):
        super().__init__(
            f"SINR floors are jointly unsatisfiable (best log-slack {max_slack:.3e})")
        self.max_slack = max_slack


class AllocationSolverError(RuntimeError):
    """Phase-1 stopped uncertified, or a pass's GP solve was not optimal,
    certified a gap above gp.DUALITY_GAP_TOL or lowered the sum rate by
    more than ASCENT_TOL_BITS.  result is the FeasibilityResult or SolverResult."""

    def __init__(self, message, result):
        super().__init__(message)
        self.result = result


@dataclass
class P2Problem:
    """Factored sum-rate objective and QoS/cap constraints in posynomial form."""

    registry: tuple
    numerator_factors: list    # K tone factors then J_D pair factors
    denominator_factors: list  # same order, with signal terms added
    constraints: list          # C1 (per user-tone), C2 (per pair), C3, C4
    links: Links               # the link model all of the above were built from


def variable_registry(graph: FactorGraph, n_pairs: int):
    """Names and (j, k) order for the optimization vector: the factor
    graph's support in row-major (user, tone) order, then the pairs."""
    cell_vars = [(int(j), int(k)) for j, k in zip(*np.nonzero(graph.indicator.T))]
    names = tuple(f"P_{j + 1}_{k + 1}" for j, k in cell_vars) + \
        tuple(f"Pd_{l + 1}" for l in range(n_pairs))
    return names, cell_vars


def pack_allocation(graph: FactorGraph, cellular, d2d) -> np.ndarray:
    """Powers in registry order: cellular (..., J, K) on the support, then
    d2d (..., J_D); one allocation per row when they are batched."""
    return np.concatenate([cellular[..., graph.indicator.T != 0], d2d], axis=-1)


def unpack_allocation(graph: FactorGraph, x) -> PowerAllocation:
    support = graph.indicator.T != 0
    cell = np.zeros(support.shape)
    cell[support] = x[:support.sum()]
    return PowerAllocation(cellular=cell, d2d=x[support.sum():])


@dataclass(frozen=True)
class Links:
    """The interference graph of one channel draw over packed powers x.
    Receiver k < K is the base station on tone k, receiver K + l pair l's.
    Variable v's own link reaches receiver[v] with gain[v]; receiver r also
    hears noise + cross[r] @ x (the pair on tone k at the base station,
    the co-tone cellular users at a pair's receiver)."""

    receiver: np.ndarray  # (n,) ints
    gain: np.ndarray      # (n,) |h|^2 of each variable's own link
    cross: np.ndarray     # (K + J_D, n) interference gains
    noise: float          # thermal noise power, watts

    def heard(self, x):
        """Noise plus interference at every receiver (per row of x)."""
        return self.noise + x @ self.cross.T

    def sum_rate(self, x, n_tones) -> float:
        """log2(1 + signal / heard) at packed powers x, summed over the
        n_tones base-station receivers first, then over the pairs'."""
        signal = np.bincount(self.receiver, self.gain * x, len(self.cross))
        rates = np.log2(1.0 + signal / self.heard(x))
        return float(sum(rates[:n_tones]) + sum(rates[n_tones:]))


def link_model(ch: ChannelRealization, graph: FactorGraph, occupancy) -> Links:
    """The Links record of channel draw ch."""
    n_pairs = len(ch.d2d_pair)
    check_occupancy(occupancy, graph.K, n_pairs)
    j, k = np.nonzero(graph.indicator.T)   # the cellular variables
    tones = np.array([tone_of_pair(occupancy, l) for l in range(n_pairs)], dtype=int)
    cross = np.zeros((graph.K + n_pairs, len(j) + n_pairs))
    cross[tones, len(j) + np.arange(n_pairs)] = power_gains(ch.d2d_to_bs)
    cross[graph.K:, :len(j)] = np.where(k == tones[:, None],
                                        power_gains(ch.cell_to_d2d)[j].T, 0.0)
    return Links(receiver=np.concatenate([k, graph.K + np.arange(n_pairs)]),
                 gain=np.concatenate([power_gains(ch.cell_to_bs)[j, k],
                                      power_gains(ch.d2d_pair)]),
                 cross=cross, noise=ch.noise_power_w)


def _floors_and_caps(cfg: ScenarioConfig, graph: FactorGraph, links: Links):
    """Each packed variable's SINR floor and power cap."""
    cell = links.receiver < graph.K
    return (np.where(cell, cfg.cellular_sinr_floor, cfg.d2d_sinr_floor),
            np.where(cell, cfg.cellular_power_cap_w / graph.d_f, cfg.d2d_power_cap_w))


# a coefficient that overflows is an inf, which Posynomial rejects with
# CoefficientRangeError, so numpy's warning would only repeat it
@np.errstate(over="ignore")
def build_p2(cfg: ScenarioConfig, ch: ChannelRealization, graph: FactorGraph,
             occupancy) -> P2Problem:
    """Complementary-GP data for one channel realization: per receiver r,
    f_r = noise + cross[r] @ x and g_r, f_r plus r's own signal; per
    variable v, its QoS floor f_r * floor_v / (gain_v x_v) <= 1 (C1, C2)
    and its cap x_v / cap_v <= 1 (C3, C4).

    Every term is stored as Posynomial's merge would store it, without
    the merge (Posynomial.from_distinct_rows): a factor's rows are the
    zero row and unit rows of distinct variables (a receiver's own
    variables never interfere at it), and a C1/C2 constraint's rows are
    f_r's rows minus e_v, each coefficient f_r's times floor_v / gain_v,
    the bytes f_r * Monomial(floor_v / gain_v, -e_v) gives."""
    reg, _ = variable_registry(graph, cfg.J_D)
    links = link_model(ch, graph, occupancy)
    rows = np.eye(len(reg) + 1, len(reg), -1)   # the zero row, then e_v at 1 + v
    noise, signal = [], []
    for r, row in enumerate(links.cross):
        interferers = np.flatnonzero(row)
        own = np.flatnonzero(links.receiver == r)
        coefficients = np.concatenate(([links.noise], row[interferers]))
        terms = np.concatenate(([0], interferers + 1))
        noise.append(Posynomial.from_distinct_rows(reg, coefficients, rows[terms]))
        signal.append(Posynomial.from_distinct_rows(
            reg, np.concatenate((coefficients, links.gain[own])),
            rows[np.concatenate((terms, own + 1))]))
    floors, caps = _floors_and_caps(cfg, graph, links)
    constraints = [Posynomial.from_distinct_rows(reg, noise[r].coefficients * (floor / gain),
                                                 noise[r].exponents - e)
                   for r, floor, gain, e in zip(links.receiver, floors, links.gain, rows[1:])]
    constraints += [Posynomial.from_distinct_rows(reg, np.array([1.0 / cap]), rows[v + 1:v + 2])
                    for v, cap in enumerate(caps)]
    return P2Problem(registry=reg, numerator_factors=noise, denominator_factors=signal,
                     constraints=constraints, links=links)


def sum_rate(ch: ChannelRealization, graph: FactorGraph, occupancy,
             alloc: PowerAllocation) -> float:
    """System sum rate in bits/s/Hz: log2(1 + signal / heard) summed over
    the base station's tones, then over the pairs' receivers, the order
    of capacity's closed forms."""
    alloc.check_support(graph)
    return link_model(ch, graph, occupancy).sum_rate(
        pack_allocation(graph, alloc.cellular, alloc.d2d), graph.K)


def objective_sum_rate(p2: P2Problem, x) -> float:
    """The same sum rate read off the posynomial factors at a packed
    variable vector: log2 of (prod g) / (prod f)."""
    log_num = sum(np.log2(f.evaluate(x)) for f in p2.numerator_factors)
    log_den = sum(np.log2(g.evaluate(x)) for g in p2.denominator_factors)
    return float(log_den - log_num)


def initial_allocation(cfg: ScenarioConfig, graph: FactorGraph) -> PowerAllocation:
    """Half of each cap, with the cellular half split over the user's
    subcarriers."""
    cell = graph.indicator.T * (cfg.cellular_power_cap_w / (2 * graph.d_f))
    d2d = np.full(cfg.J_D, cfg.d2d_power_cap_w / 2)
    return PowerAllocation(cellular=cell.astype(float), d2d=d2d)


@dataclass
class IterationPoint:
    powers: PowerAllocation
    sum_rate_bits: float
    solver: SolverResult      # the pass's GP solve


@dataclass
class IterationTrace:
    """Per-iteration allocations and rates of the condense-and-solve loop."""

    initial_powers: PowerAllocation
    initial_sum_rate_bits: float
    points: list
    converged: bool

    @property
    def iterations_used(self):
        return len(self.points)

    @property
    def final(self) -> IterationPoint:
        return self.points[-1]

    def rates(self):
        return [self.initial_sum_rate_bits] + [p.sum_rate_bits for p in self.points]


def feasible_start(cfg, graph, problem: ConvexFormProblem) -> np.ndarray:
    """Packed starting vector: the half-cap point when it already meets
    problem's constraints strictly, otherwise a phase-1 solution.  Raises
    InfeasibleScenarioError when phase-1 certifies the constraint set
    empty, AllocationSolverError when it stops without a certificate."""
    half = initial_allocation(cfg, graph)
    x0 = pack_allocation(graph, half.cellular, half.d2d)
    if problem.constraints.shifted_exp(np.log(x0))[0].max() < 0:
        return x0
    feas = find_feasible(problem)
    if feas.status != OPTIMAL:
        raise AllocationSolverError(f"phase-1 returned {feas.status}", feas)
    if not feas.feasible:
        raise InfeasibleScenarioError(feas.max_slack)
    return np.exp(feas.y)


def allocate(cfg: ScenarioConfig, ch: ChannelRealization, graph: FactorGraph,
             occupancy, t_max: int = 10) -> IterationTrace:
    """Run the iterative condensation loop from the half-cap start.

    Each pass condenses the expanded denominator at the current powers
    into a monomial m, solves the GP of numerator / m under the original
    constraints, and moves to its optimum.  In log form, dividing by m
    shifts every objective row by m's exponents and log coefficient, so
    the numerator is converted and the constraints packed once per draw.  The
    loop stops after t_max passes (at least 1) or once the relative
    sum-rate change drops to REL_TOL.  Every pass after the first
    warm-starts its solve from the previous pass's central path.
    The solver certifies each pass to its gap of gp.DUALITY_GAP_TOL =
    1e-9, well inside the ASCENT_TOL_BITS = 1e-8 monotonicity budget; a
    pass that breaks either raises AllocationSolverError.  Each point
    keeps its pass's SolverResult, central path included.  Every rate
    is read off the P2 build's link model.  A system whose expansion
    could exceed MAX_EXPANSION_BYTES raises DimensionError before any
    product is built.
    """
    if t_max < 1:
        raise ValueError(f"t_max must be at least 1, got {t_max}")
    p2 = build_p2(cfg, ch, graph, occupancy)
    # each factor |f_r| <= |g_r|, so this bounds the numerator's rows too
    expansion = math.prod(len(g) for g in p2.denominator_factors) * len(p2.registry) * 8
    if expansion > MAX_EXPANSION_BYTES:
        raise DimensionError(
            f"K = {cfg.K}, J = {cfg.J}, J_D = {cfg.J_D}: the expanded objective could "
            f"take {expansion:.3g} bytes of exponent rows, above the "
            f"{MAX_EXPANSION_BYTES:.3g}-byte limit")
    problem = to_convex_form(product(p2.numerator_factors),
                             constraints=p2.constraints)
    denominator = product(p2.denominator_factors)

    x = feasible_start(cfg, graph, problem)
    start = unpack_allocation(graph, x)
    prev_rate = p2.links.sum_rate(x, graph.K)
    trace = IterationTrace(initial_powers=start, initial_sum_rate_bits=prev_rate,
                           points=[], converged=False)
    y = np.log(x)
    path = None
    for it in range(t_max):
        m = condense(denominator, x)
        surrogate = dataclasses.replace(
            problem, objective_exponents=problem.objective_exponents - m.exponents,
            objective_offsets=problem.objective_offsets - np.log(m.coefficient))
        res = solve(surrogate, y0=y, warm_path=path)
        if res.status != OPTIMAL:
            raise AllocationSolverError(f"pass {it + 1}: GP solve returned "
                                        f"{res.status}", res)
        if not res.certified_gap <= DUALITY_GAP_TOL:
            raise AllocationSolverError(f"pass {it + 1}: GP solve certified a gap "
                                        f"of only {res.certified_gap:.3e}", res)
        x, y, path = res.x, res.y, res.path
        rate = p2.links.sum_rate(x, graph.K)
        if rate < prev_rate - ASCENT_TOL_BITS:
            raise AllocationSolverError(f"pass {it + 1} lowered the sum rate by "
                                        f"{prev_rate - rate:.3e} bits", res)
        trace.points.append(IterationPoint(unpack_allocation(graph, x), rate, res))
        if abs(rate - prev_rate) <= REL_TOL * max(1.0, abs(prev_rate)):
            trace.converged = True
            break
        prev_rate = rate
    return trace


@dataclass
class BaselineDraw:
    allocation: PowerAllocation
    feasible: bool
    draws_used: int


def _violations(cfg: ScenarioConfig, graph: FactorGraph, links: Links, x):
    """Largest floor_v * heard[receiver[v]] / (gain_v x_v) of each row of
    packed powers x; inf when some signal is 0."""
    floors, _ = _floors_and_caps(cfg, graph, links)
    signal = links.gain * x
    need = floors * links.heard(x)[:, links.receiver]
    ratio = np.divide(need, signal, out=np.full(signal.shape, np.inf), where=signal > 0)
    return ratio.max(axis=1, initial=0.0)


def qos_violations(cfg: ScenarioConfig, ch: ChannelRealization,
                   graph: FactorGraph, occupancy, cellular, d2d) -> np.ndarray:
    """Largest floor/SINR ratio per allocation, over every cellular
    user-tone on the factor graph's support and every D2D pair; inf when
    some SINR is 0.  A value <= 1 means every QoS floor holds.

    cellular is (R, J, K) and d2d is (R, J_D): R allocations in rows.
    The SINRs come from link_model, as build_p2's and sum_rate's do.
    """
    return _violations(cfg, graph, link_model(ch, graph, occupancy),
                       pack_allocation(graph, cellular, d2d))


def random_baseline(cfg: ScenarioConfig, ch: ChannelRealization,
                    graph: FactorGraph, occupancy, rng) -> BaselineDraw:
    """Uniform powers on (0, cap], resampled until the QoS floors hold.

    When MAX_RESAMPLE draws all violate some floor, the least-violating
    draw is returned with feasible=False.  Each draw takes J*K uniforms
    for the cellular powers (row-major), then J_D for the D2D powers, and
    rng advances by exactly the draws used.
    """
    n_cell = cfg.J * cfg.K
    # all MAX_RESAMPLE draws as rows of one block: the same numbers as
    # drawing them one after another
    saved = rng.bit_generator.state
    block = 1.0 - rng.uniform(size=(MAX_RESAMPLE, n_cell + cfg.J_D))
    links = link_model(ch, graph, occupancy)
    _, caps = _floors_and_caps(cfg, graph, links)
    x = pack_allocation(graph, block[:, :n_cell].reshape(-1, cfg.J, cfg.K),
                        block[:, n_cell:]) * caps
    violation = _violations(cfg, graph, links, x)
    met = np.flatnonzero(violation <= 1.0)
    feasible = met.size > 0
    row = int(met[0]) if feasible else int(np.argmin(violation))
    used = row + 1 if feasible else MAX_RESAMPLE
    if used < MAX_RESAMPLE:
        # hand the caller's generator back as if only `used` draws were made
        rng.bit_generator.state = saved
        rng.uniform(size=(used, n_cell + cfg.J_D))
    return BaselineDraw(unpack_allocation(graph, x[row]), feasible, used)
