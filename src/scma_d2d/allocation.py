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
from dataclasses import dataclass

import numpy as np

from .capacity import (
    PowerAllocation,
    check_occupancy,
    closed_form_cellular_capacity,
    d2d_capacity,
    equivalent_noise,
    tone_of_pair,
)
from .channel import ChannelRealization, ScenarioConfig
from .factor_graph import FactorGraph, incidence_sets
from .gp import (
    DUALITY_GAP_TOL,
    OPTIMAL,
    PackedConstraints,
    SolverResult,
    find_feasible,
    solve,
)
from .posynomial import (
    Monomial,
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


class InfeasibleScenarioError(RuntimeError):
    """The QoS floors cannot all be met for this channel draw."""

    def __init__(self, max_slack):
        super().__init__(
            f"SINR floors are jointly unsatisfiable (best log-slack {max_slack:.3e})")
        self.max_slack = max_slack


class AllocationSolverError(RuntimeError):
    """A pass's GP solve did not reach optimal status, certified a gap
    above gp.DUALITY_GAP_TOL, or lowered the sum rate by more than
    ASCENT_TOL_BITS.  result is that pass's SolverResult."""

    def __init__(self, message, result):
        super().__init__(message)
        self.result = result


@dataclass
class P2Problem:
    """Factored sum-rate objective and QoS/cap constraints in posynomial form."""

    registry: tuple
    cell_vars: list            # (j, k) per cellular variable, registry order
    n_pairs: int
    numerator_factors: list    # K tone factors then J_D pair factors
    denominator_factors: list  # same order, with signal terms added
    constraints: list          # C1 (per user-tone), C2 (per pair), C3, C4

    @property
    def n_variables(self):
        return len(self.registry)


def variable_registry(graph: FactorGraph, n_pairs: int):
    """Names and (j, k) order for the optimization vector."""
    inc = incidence_sets(graph)
    cell_vars = [(j, k) for j in range(graph.J)
                 for k in inc.subcarriers_of_user[j]]
    names = tuple(f"P_{j + 1}_{k + 1}" for j, k in cell_vars) + \
        tuple(f"Pd_{l + 1}" for l in range(n_pairs))
    return names, cell_vars


def pack_allocation(cell_vars, alloc: PowerAllocation) -> np.ndarray:
    """Powers in registry order: the cellular entries at cell_vars' (j, k),
    then the D2D powers."""
    x = [alloc.cellular[j, k] for j, k in cell_vars]
    return np.array(x + list(alloc.d2d))


def unpack_allocation(p2: P2Problem, x, shape) -> PowerAllocation:
    j_count, k_count = shape
    cell = np.zeros((j_count, k_count))
    for idx, (j, k) in enumerate(p2.cell_vars):
        cell[j, k] = x[idx]
    return PowerAllocation(cellular=cell, d2d=np.asarray(x[len(p2.cell_vars):]))


def build_p2(cfg: ScenarioConfig, ch: ChannelRealization, graph: FactorGraph,
             occupancy) -> P2Problem:
    """Assemble the complementary-GP data for one channel realization."""
    check_occupancy(occupancy, graph.K, cfg.J_D)
    names, cell_vars = variable_registry(graph, cfg.J_D)
    reg = names
    inc = incidence_sets(graph)
    n0 = ch.noise_power_w

    def cell_power(j, k):
        return f"P_{j + 1}_{k + 1}"

    def pair_power(l):
        return f"Pd_{l + 1}"

    pair_of_tone = dict(occupancy)

    tone_noise = []      # f_k: equivalent noise seen at the base station
    tone_signal = []     # g_k: f_k plus colliding users' signal
    for k in range(graph.K):
        terms = [Monomial.from_powers(reg, n0)]
        if k in pair_of_tone:
            l = pair_of_tone[k]
            terms.append(Monomial.from_powers(
                reg, np.abs(ch.d2d_to_bs[l]) ** 2, {pair_power(l): 1}))
        f_k = Posynomial.from_monomials(terms)
        sig = [Monomial.from_powers(
            reg, np.abs(ch.cell_to_bs[j, k]) ** 2, {cell_power(j, k): 1})
            for j in inc.users_of_subcarrier[k]]
        tone_noise.append(f_k)
        tone_signal.append(Posynomial.from_monomials(list(f_k.terms) + sig))

    pair_noise = []      # f'_l: noise plus cellular interference at the receiver
    pair_signal = []     # g'_l: f'_l plus the pair's own signal
    for l in range(cfg.J_D):
        k = tone_of_pair(occupancy, l)
        terms = [Monomial.from_powers(reg, n0)]
        terms += [Monomial.from_powers(
            reg, np.abs(ch.cell_to_d2d[j, l]) ** 2, {cell_power(j, k): 1})
            for j in inc.users_of_subcarrier[k]]
        f_l = Posynomial.from_monomials(terms)
        own = Monomial.from_powers(
            reg, np.abs(ch.d2d_pair[l]) ** 2, {pair_power(l): 1})
        pair_noise.append(f_l)
        pair_signal.append(Posynomial.from_monomials(list(f_l.terms) + [own]))

    gamma_c = cfg.cellular_sinr_floor
    gamma_d = cfg.d2d_sinr_floor
    cap_cell = cfg.cellular_power_cap_w / graph.d_f
    cap_d2d = cfg.d2d_power_cap_w

    qos_cell = []        # C1: floor / SINR <= 1 per (user, tone)
    for j, k in cell_vars:
        gain = np.abs(ch.cell_to_bs[j, k]) ** 2
        qos_cell.append(tone_noise[k] * Monomial.from_powers(
            reg, gamma_c / gain, {cell_power(j, k): -1}))
    qos_pair = []        # C2 per pair
    for l in range(cfg.J_D):
        gain = np.abs(ch.d2d_pair[l]) ** 2
        qos_pair.append(pair_noise[l] * Monomial.from_powers(
            reg, gamma_d / gain, {pair_power(l): -1}))
    caps_cell = [Monomial.from_powers(reg, 1.0 / cap_cell,
                                      {cell_power(j, k): 1}).as_posynomial()
                 for j, k in cell_vars]
    caps_d2d = [Monomial.from_powers(reg, 1.0 / cap_d2d,
                                     {pair_power(l): 1}).as_posynomial()
                for l in range(cfg.J_D)]

    return P2Problem(
        registry=reg,
        cell_vars=cell_vars,
        n_pairs=cfg.J_D,
        numerator_factors=tone_noise + pair_noise,
        denominator_factors=tone_signal + pair_signal,
        constraints=qos_cell + qos_pair + caps_cell + caps_d2d,
    )


def sum_rate(ch: ChannelRealization, graph: FactorGraph, occupancy,
             alloc: PowerAllocation) -> float:
    """System sum rate in bits/s/Hz: cellular closed form plus D2D rates."""
    alloc.check_support(graph)
    noise = equivalent_noise(ch, alloc, occupancy)
    return closed_form_cellular_capacity(ch, alloc, noise, graph) + \
        d2d_capacity(ch, alloc, occupancy)


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


def feasible_start(cfg, graph, p2: P2Problem) -> np.ndarray:
    """Packed starting vector: the half-cap point when it already meets the
    QoS floors strictly, otherwise a phase-1 solution.  Raises
    InfeasibleScenarioError when the constraint set is certified empty."""
    cons = to_convex_form(Posynomial.constant(p2.registry, 1.0),
                          constraints=p2.constraints)
    x0 = pack_allocation(p2.cell_vars, initial_allocation(cfg, graph))
    packed = PackedConstraints(cons.constraint_exponents, cons.constraint_offsets)
    if packed.values(np.log(x0)).max() < 0:
        return x0
    feas = find_feasible(cons)
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
    the numerator and the constraints are converted once per draw.  The
    loop stops after t_max passes (at least 1) or once the relative
    sum-rate change drops to REL_TOL.  Every pass after the first
    warm-starts its solve from the previous pass's central path.
    The solver certifies each pass to its gap of gp.DUALITY_GAP_TOL =
    1e-9, well inside the ASCENT_TOL_BITS = 1e-8 monotonicity budget; a
    pass that breaks either raises AllocationSolverError.  Each point
    keeps its pass's SolverResult, central path included.
    """
    if t_max < 1:
        raise ValueError(f"t_max must be at least 1, got {t_max}")
    p2 = build_p2(cfg, ch, graph, occupancy)
    problem = to_convex_form(product(p2.numerator_factors),
                             constraints=p2.constraints)
    denominator = product(p2.denominator_factors)

    x = feasible_start(cfg, graph, p2)
    shape = (cfg.J, cfg.K)
    start = unpack_allocation(p2, x, shape)
    prev_rate = sum_rate(ch, graph, occupancy, start)
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
        alloc = unpack_allocation(p2, x, shape)
        rate = sum_rate(ch, graph, occupancy, alloc)
        if rate < prev_rate - ASCENT_TOL_BITS:
            raise AllocationSolverError(f"pass {it + 1} lowered the sum rate by "
                                        f"{prev_rate - rate:.3e} bits", res)
        trace.points.append(IterationPoint(alloc, rate, res))
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


def qos_violations(cfg: ScenarioConfig, ch: ChannelRealization,
                   graph: FactorGraph, occupancy, cellular, d2d) -> np.ndarray:
    """Largest floor/SINR ratio per allocation, over every cellular
    user-tone on the factor graph's support and every D2D pair; inf when
    some SINR is 0.  A value <= 1 means every QoS floor holds.

    cellular is (R, J, K) and d2d is (R, J_D): R allocations in rows.
    Vectorized form of capacity.cellular_sinr and capacity.d2d_sinr.
    """
    k_count = ch.cell_to_bs.shape[1]
    check_occupancy(occupancy, k_count, len(ch.d2d_to_bs))
    noise = np.full((len(d2d), k_count), ch.noise_power_w)
    for k, l in occupancy.items():
        noise[:, k] += np.abs(ch.d2d_to_bs[l]) ** 2 * d2d[:, l]
    cell = np.abs(ch.cell_to_bs) ** 2 * cellular / noise[:, None, :]
    cell = cell[:, graph.indicator.T != 0]
    tones = [tone_of_pair(occupancy, l) for l in range(cfg.J_D)]
    interference = (np.abs(ch.cell_to_d2d) ** 2 * cellular[:, :, tones]).sum(axis=1)
    pair = np.abs(ch.d2d_pair) ** 2 * d2d / (ch.noise_power_w + interference)
    sinr = np.concatenate([cell, pair], axis=1)
    floors = np.repeat([cfg.cellular_sinr_floor, cfg.d2d_sinr_floor],
                       [cell.shape[1], pair.shape[1]])
    ratio = np.divide(floors, sinr, out=np.full(sinr.shape, np.inf), where=sinr > 0)
    return ratio.max(axis=1, initial=0.0)


def qos_violation(cfg: ScenarioConfig, ch: ChannelRealization,
                  graph: FactorGraph, occupancy, alloc: PowerAllocation) -> float:
    """qos_violations for the one allocation alloc."""
    return float(qos_violations(cfg, ch, graph, occupancy,
                                alloc.cellular[None], alloc.d2d[None])[0])


def random_baseline(cfg: ScenarioConfig, ch: ChannelRealization,
                    graph: FactorGraph, occupancy, rng,
                    max_resample: int = 1000) -> BaselineDraw:
    """Uniform powers on (0, cap], resampled until the QoS floors hold.

    When max_resample draws all violate some floor, the least-violating
    draw is returned with feasible=False.  Each draw takes J*K uniforms
    for the cellular powers (row-major), then J_D for the D2D powers, and
    rng advances by exactly the draws used.
    """
    if max_resample < 1:
        raise ValueError(f"max_resample must be at least 1, got {max_resample}")
    cap_cell = cfg.cellular_power_cap_w / graph.d_f
    cap_d2d = cfg.d2d_power_cap_w
    n_cell = cfg.J * cfg.K
    # all max_resample draws as rows of one block: the same numbers as
    # drawing them one after another
    saved = rng.bit_generator.state
    block = rng.uniform(size=(max_resample, n_cell + cfg.J_D))
    cell = (1.0 - block[:, :n_cell].reshape(-1, cfg.J, cfg.K)) * cap_cell \
        * graph.indicator.T
    d2d = (1.0 - block[:, n_cell:]) * cap_d2d
    violation = qos_violations(cfg, ch, graph, occupancy, cell, d2d)
    met = np.flatnonzero(violation <= 1.0)
    feasible = met.size > 0
    row = int(met[0]) if feasible else int(np.argmin(violation))
    used = row + 1 if feasible else max_resample
    if used < max_resample:
        # hand the caller's generator back as if only `used` draws were made
        rng.bit_generator.state = saved
        rng.uniform(size=(used, n_cell + cfg.J_D))
    return BaselineDraw(PowerAllocation(cellular=cell[row], d2d=d2d[row]),
                        feasible, used)
