"""Diagnostics for constraint qualification and KKT multiplier geometry in
AC power flow constraint systems."""

from .netmodel import (AdmittanceMatrix, Bus, BusType, Case, CaseError,
                       ConstraintSpec, CostTerms, Line, Network, build_ybus,
                       case_to_dict, load_case)
from .powerflow import (DivergenceError, NonConvergenceError, PFSolution,
                        PowerFlowError, SingularNewtonError, SystemState,
                        free_mask_from_bus_types, pf_jacobian, pf_residual,
                        solve_power_flow, state_from_list, state_index,
                        state_to_list)
from .constraints import (ActiveSet, ApparentPower, BoxLower, BoxUpper,
                          ConstraintError, ConstraintSystem, ExpLoadEq,
                          InfeasiblePointError, LinearEq, VoltageDomainError,
                          active_set, build_operational, evaluate,
                          system_for_case)
from .cqkit import (Classification, CostSpec, CQReport, MultiplierSet,
                    kkt_residual, kkt_solve, licq_check, numerical_rank)
from .perturb import (GenericityReport, ModelKind, PerturbationModel,
                      ProbeRow, RankHypothesisReport, check_rank_hypothesis,
                      load_model, line_model, make_model,
                      nearest_feasible_point, param_jacobian,
                      run_genericity_experiment, shift_load, shunt_model,
                      tangency_escape_probe)
from .cases import (BUILTIN_NAMES, FixtureBundle, ReducedView, builtin,
                    example1, example2, example3)

__version__ = "0.1.0"
