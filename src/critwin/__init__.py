"""critwin: critical-window epidemic/random-graph simulation and verification.

Samples the discrete objects (ER graph explorations, the height-profile
chain, cousin statistics), simulates their continuum limits (parabolic-drift
Brownian motion, the absorbed square-root SDE, deterministic curves), and
grades the two layers against each other statistically.
"""
from .analysis import (
    ComparisonReport,
    fit_loglog_slope,
    ks_statistic,
)
from .chain import (
    EpidemicTrace,
    K_at_indices,
    csn_at_indices,
    exact_profile_distribution,
    simulate_trace,
)
from .continuum import (
    DeterministicLimit,
    SdePath,
    hitting_ensemble,
    lamperti_marginals,
    lamperti_route,
    sample_parabolic_bm,
    sde_ensemble,
    simulate_sde,
)
from .core import (
    AldousWindow,
    ConfigError,
    CriticalWindow,
    CritwinError,
    GeneralWindow,
    InvalidWindowError,
    RngStream,
    RunConfig,
    edge_probability,
    make_stream,
)
from .graph import (
    CousinSeries,
    Exploration,
    GraphSample,
    WalkPath,
    breadth_first_walk,
    cousin_series,
    explore,
    explore_from_roots,
    sample_graph,
    walk_chain,
)
from .moments import BoundSweep, bound_sweep
from .verify import SUITES, run_suite

__version__ = "0.1.0"
