"""Belief-function fusion toolkit: classical and conflict-robust combination
rules, a pignistic decision layer, and a sequential target-identification
simulator."""

from .core import (
    ConflictDecomposition,
    FocalSet,
    Frame,
    FrameMismatchError,
    MassFunction,
    ValidationReport,
    conflict,
    conjunctive,
    disjunctive,
    make_frame,
    vacuous,
    validate,
)
from .decision import Decision, PignisticDistribution, betp, decide
from .rules import (
    RULES,
    DegenerateError,
    InvalidBetaError,
    TotalConflictError,
    acr_generic,
    acr_inagaki_weights,
    alpha0,
    beta0,
    dempster,
    dsmh,
    dubois_prade,
    inagaki_extreme,
    inagaki_generic,
    pcr,
    pcr_shares,
    sacr,
    smets,
    yager,
)
from .scenario import (
    PlatformDatabase,
    ScenarioConfig,
    ScenarioError,
    ScenarioResult,
    TrajectoryRecord,
    build_pdb,
    gen_report,
    report_bba,
    run_scenario,
)

__version__ = "0.1.0"
