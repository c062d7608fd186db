"""Compile arbitrary two-qubit interactions from one fixed drift.

A register whose always-on drift Hamiltonian is two-body and couples
every qubit (possibly indirectly) is computationally universal given
fast local control: framed slices of the drift average out the unwanted
couplings and rescale the wanted one, exact local pulses supply the
single-qubit part, and standard product-formula bounds turn a requested
precision into a step count.
"""

from .bounds import ErrorPlan, chained_rate, plan_steps
from .cliffords import (
    AXIS_ROTATION,
    CLIFF_HAD,
    CLIFF_ID,
    CLIFF_S,
    CLIFF_SDG,
    CLIFF_XQ,
    CLIFF_XQI,
    PAULI_CLIFF,
    LocalClifford,
    sign_flip_clifford,
)
from .decouple import (
    compile_on_pair,
    isolate_principal,
    pair_step_model,
)
from .dense import (
    dense_of_expansion,
    distance,
    expm_hermitian,
    operator_norm,
    phase_match,
)
from .errors import (
    DimMismatch,
    HamrcError,
    Infeasible,
    InvalidStep,
    InvalidTerm,
    NotConnected,
    NotCoupled,
    NotHermitian,
    NotTwoBody,
    ParseError,
    TooLarge,
    VerificationFailure,
)
from .hamio import (
    format_report,
    parse_hamfile,
    parse_schedule,
    serialize_hamfile,
    serialize_schedule,
)
from .pauli import (
    HamExpansion,
    PauliString,
    build_expansion,
    coupling_graph,
    embed,
    is_entangling,
    max_coupling,
    project_to_sites,
)
from .routing import compile_remote, exchange_generator, route
from .schedule import (
    Drift,
    LocalLayer,
    Schedule,
    canonicalize,
    evaluate_schedule,
)
from .synth import (
    CNOT_MATRIX,
    compile_cnot,
    compile_schedule,
    step_model,
)

__version__ = "0.1.0"

__all__ = [
    "AXIS_ROTATION", "CLIFF_HAD", "CLIFF_ID", "CLIFF_S", "CLIFF_SDG",
    "CLIFF_XQ", "CLIFF_XQI", "CNOT_MATRIX", "DimMismatch", "Drift",
    "ErrorPlan", "HamExpansion", "HamrcError", "Infeasible",
    "InvalidStep", "InvalidTerm", "LocalClifford", "LocalLayer", "NotConnected",
    "NotCoupled", "NotHermitian", "NotTwoBody", "PAULI_CLIFF",
    "ParseError", "PauliString", "Schedule", "TooLarge",
    "VerificationFailure", "build_expansion", "canonicalize",
    "chained_rate", "compile_cnot", "compile_on_pair",
    "compile_remote", "compile_schedule", "coupling_graph",
    "dense_of_expansion", "distance", "embed", "evaluate_schedule",
    "exchange_generator", "expm_hermitian", "format_report",
    "is_entangling", "isolate_principal", "max_coupling",
    "operator_norm", "pair_step_model", "parse_hamfile", "parse_schedule",
    "phase_match", "plan_steps", "project_to_sites", "route",
    "serialize_hamfile", "serialize_schedule", "sign_flip_clifford",
    "step_model",
]
