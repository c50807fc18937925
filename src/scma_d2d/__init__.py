"""SCMA uplink + D2D underlay: capacity analysis and GP power allocation.

The package splits into:

- factor_graph: sparse-code structure (indicator matrix, incidence sets,
  codebook covariance skeletons)
- channel: scenario configuration, geometry and Rayleigh/path-loss draws
- eig: cyclic Jacobi eigensolver for Hermitian matrices
- capacity: equivalent noise, exact/closed-form capacities, SINRs and
  eigenvalue/capacity bounds
- posynomial: monomial/posynomial algebra, AM-GM condensation, convex
  (log-variable) transform
- gp: barrier interior-point solver for convex-form GPs with phase-1
- allocation: the iterative condense-and-solve sum-rate maximizer and the
  random baseline
- experiments: convergence / sweep / bound-validation harness (also
  exposed through the `scma-d2d` command-line tool)
"""

from .allocation import (
    AllocationSolverError,
    BaselineDraw,
    InfeasibleScenarioError,
    IterationPoint,
    IterationTrace,
    P2Problem,
    allocate,
    build_p2,
    initial_allocation,
    random_baseline,
    sum_rate,
)
from .capacity import (
    CapacityBoundReport,
    EquivalentNoise,
    PowerAllocation,
    bound_report,
    capacity_upper_bound,
    cellular_sinr,
    closed_form_cellular_capacity,
    d2d_capacity,
    d2d_sinr,
    default_occupancy,
    eigenvalue_lower_bounds,
    eigenvalue_upper_bounds,
    equivalent_noise,
    exact_cellular_capacity_general,
)
from .channel import (
    ChannelRealization,
    ConfigError,
    NodeGeometry,
    ScenarioConfig,
    db_to_linear,
    dbm_to_watts,
    dump_channels_csv,
    parse_config,
    path_loss_db,
    rng_streams,
    sample_channels,
    sample_geometry,
    save_config,
    watts_to_dbm,
)
from .eig import hermitian_eigenvalues
from .experiments import (
    ExperimentSpec,
    SweepResult,
    run_baseline_comparison,
    run_bound_validation,
    run_convergence,
    run_experiment,
    run_sweep,
)
from .factor_graph import (
    CodebookSkeleton,
    FactorGraph,
    IncidenceSets,
    build_covariance,
    build_factor_graph,
    covariance_split,
    default_skeleton,
    incidence_sets,
    random_skeleton,
)
from .gp import (
    SolverResult,
    find_feasible,
    solve,
)
from .posynomial import (
    CoefficientRangeError,
    ConvexFormProblem,
    Monomial,
    Posynomial,
    condense,
    product,
    to_convex_form,
)

__version__ = "0.1.0"
