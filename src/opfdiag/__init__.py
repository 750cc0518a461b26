"""Diagnostics for constraint qualification and KKT multiplier geometry in
AC power flow constraint systems. The package exports the loaders, the
check, the sweep, the probe and the error types the CLI maps to exit codes;
every other name is imported from its submodule."""

from .netmodel import CaseError, load_case
from .powerflow import PowerFlowError, solve_power_flow, state_from_list
from .constraints import ConstraintError, InfeasiblePointError, system_for_case
from .cqkit import CostSpec, licq_check
from .perturb import (PerturbationError, make_model, run_genericity_experiment,
                      tangency_escape_probe)
from .cases import BUILTIN_NAMES, builtin

__all__ = [
    "load_case", "CaseError", "builtin", "BUILTIN_NAMES",
    "system_for_case", "ConstraintError", "InfeasiblePointError",
    "solve_power_flow", "state_from_list", "PowerFlowError",
    "licq_check", "CostSpec",
    "make_model", "run_genericity_experiment", "tangency_escape_probe",
    "PerturbationError",
]

__version__ = "0.1.0"
