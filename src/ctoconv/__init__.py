"""Convertibility of quasiclassical athermality resources under conditioned
thermal operations: Lorenz curves, the feasibility LP with witness
extraction, constructive channel synthesis, monotones and asymptotic rates.
"""

from .core import (
    CQState,
    CTOPlan,
    GibbsContext,
    NumericPolicy,
    StateVector,
    TOMatrix,
    canonicalize_cq,
    validate_context,
)
from .lorenz import (
    LorenzCurve,
    build_lorenz,
    embed_states,
    thermo_majorizes,
)
from .lp import FeasibilityResult, LinearSystem, solve_feasibility
from .convert import (
    Decision,
    WitnessMatrix,
    check_cto,
    check_ensemble_to_state,
    check_state_to_ensemble,
    extract_witness,
    lt_majorize,
    omega,
    p_min,
    phi_monotones,
    sigma_grid,
    verify_witness,
)
from .synth import apply_cto, canonicalize_cto, synthesize_cto, synthesize_to
from .asymptotic import asymptotic_rate, free_energy, resource_value
from . import errors, testkit

__version__ = "0.1.0"

__all__ = [
    "CQState",
    "CTOPlan",
    "Decision",
    "FeasibilityResult",
    "GibbsContext",
    "LinearSystem",
    "LorenzCurve",
    "NumericPolicy",
    "StateVector",
    "TOMatrix",
    "WitnessMatrix",
    "apply_cto",
    "asymptotic_rate",
    "build_lorenz",
    "canonicalize_cq",
    "canonicalize_cto",
    "check_cto",
    "check_ensemble_to_state",
    "check_state_to_ensemble",
    "embed_states",
    "errors",
    "extract_witness",
    "free_energy",
    "lt_majorize",
    "omega",
    "p_min",
    "phi_monotones",
    "resource_value",
    "sigma_grid",
    "solve_feasibility",
    "synthesize_cto",
    "synthesize_to",
    "testkit",
    "thermo_majorizes",
    "validate_context",
    "verify_witness",
]
