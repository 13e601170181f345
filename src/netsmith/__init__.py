"""Filtered Smith predictor design and robustness analysis for
discrete-time plants controlled over packetized network channels."""

from .gain_analysis import (
    OracleResult,
    alpha_T_closed_form,
    alpha_asymptote_check,
    alpha_formula,
    oracle_gain,
    worst_case_norm,
)
from .lmi_assembly import (
    AugmentedModel,
    FeasibilityReport,
    LmiProblem,
    assemble_augmented,
    build_lmi,
    compact_variable_count,
    lifted_variable_count,
    verify_candidate,
)
from .lti_core import (
    NumericError,
    Polynomial,
    RationalTF,
    StateSpace,
    inf_norm,
    realize,
    roots,
)
from .packet_channel import (
    PacketTrace,
    Protocol,
    held_index,
    staleness_automaton,
    uniform_trace,
    worst_case_trace,
)
from .sim_engine import SimScenario, SimTrace, simulate, simulate_sample_delay
from .smith_design import (
    PredictorDesign,
    build_H,
    delay_free_reference,
    design_filter,
    interpolation_residuals,
    make_design,
)
from .stability_criteria import (
    StabilityVerdict,
    build_M,
    check_nominal,
    check_uncertain,
    margin_sweep,
    max_certified_tau,
    nominal_loop_gains,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentedModel",
    "FeasibilityReport",
    "LmiProblem",
    "NumericError",
    "OracleResult",
    "PacketTrace",
    "Polynomial",
    "PredictorDesign",
    "Protocol",
    "RationalTF",
    "SimScenario",
    "SimTrace",
    "StabilityVerdict",
    "StateSpace",
    "alpha_T_closed_form",
    "alpha_asymptote_check",
    "alpha_formula",
    "assemble_augmented",
    "build_H",
    "build_M",
    "build_lmi",
    "check_nominal",
    "check_uncertain",
    "compact_variable_count",
    "delay_free_reference",
    "design_filter",
    "held_index",
    "inf_norm",
    "interpolation_residuals",
    "lifted_variable_count",
    "make_design",
    "margin_sweep",
    "max_certified_tau",
    "nominal_loop_gains",
    "oracle_gain",
    "realize",
    "roots",
    "simulate",
    "simulate_sample_delay",
    "staleness_automaton",
    "uniform_trace",
    "verify_candidate",
    "worst_case_norm",
    "worst_case_trace",
    "__version__",
]
