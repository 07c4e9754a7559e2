"""Associative memory on graphs: sparse Hopfield dynamics, spectral
conditions, capacity experiments, and concentration-bound checks.
"""
from .graphs import (
    DegreeStats,
    EdgeListParseError,
    Graph,
    InfeasibleWeightsError,
    WeightSequence,
    adjacency_matrix,
    degree_stats,
    edge_endpoints,
    gen_chung_lu,
    gen_complete,
    gen_erdos_renyi,
    gen_two_cliques,
    load_edge_list,
    powerlaw_weights,
    save_edge_list,
    validate_graph,
)
from .spectral import (
    BoundReport,
    ConditionReport,
    SpectralSolverError,
    SpectralSummary,
    check_h1,
    check_h2,
    spectrum_summary,
    subgraph_bounds,
)
from .hopfield import (
    DynamicsOutcome,
    FieldEngine,
    PatternSet,
    corrupt,
    energy_S,
    energy_T,
    hamming,
    run_dynamics,
    sample_patterns,
    sequential_sweep,
)
from .bounds import (
    DegreeTailReport,
    FormReport,
    degree_tail_experiment,
    entropy,
    mgf_bound,
    mgf_check,
    quadratic_form_tail,
    rel_entropy,
    tail_bound,
    wilson_interval,
)
from .capacity import (
    CapacityEstimate,
    CurvePoint,
    FRhoResult,
    RateEstimate,
    StepPrediction,
    TheoryParams,
    capacity_search,
    default_k_max,
    f_rho,
    predict_steps,
    recovery_rate,
    rho_zero,
    theoretical_capacity,
)
from .cli import ExperimentConfig, parse_config_echo, reproduce_corollaries, run

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "CapacityEstimate", "ConditionReport", "CurvePoint",
    "DegreeStats", "DegreeTailReport", "DynamicsOutcome", "EdgeListParseError",
    "ExperimentConfig", "FRhoResult", "FieldEngine", "FormReport", "Graph",
    "InfeasibleWeightsError", "PatternSet", "RateEstimate",
    "SpectralSolverError", "SpectralSummary", "StepPrediction",
    "TheoryParams", "WeightSequence", "adjacency_matrix",
    "capacity_search", "check_h1", "check_h2",
    "corrupt", "default_k_max", "degree_stats", "degree_tail_experiment",
    "edge_endpoints", "energy_S", "energy_T", "entropy", "f_rho",
    "gen_chung_lu", "gen_complete", "gen_erdos_renyi", "gen_two_cliques",
    "hamming", "load_edge_list", "mgf_bound",
    "mgf_check", "parse_config_echo", "powerlaw_weights",
    "predict_steps", "quadratic_form_tail", "recovery_rate", "rel_entropy",
    "reproduce_corollaries", "rho_zero", "run", "run_dynamics",
    "sample_patterns", "save_edge_list", "sequential_sweep",
    "spectrum_summary", "subgraph_bounds", "tail_bound",
    "theoretical_capacity", "validate_graph", "wilson_interval",
]
