import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfdiag.constraints import (ApparentPower, BoxLower, BoxUpper,
                                 ConstraintSystem, ExpLoadEq,
                                 ConstraintError, InfeasiblePointError,
                                 LinearEq, VoltageDomainError, active_set,
                                 evaluate)
from opfdiag.cqkit import active_stack, licq_check
from opfdiag.powerflow import SystemState, state_index


def test_ex2_reduced_values_vanish_at_crossing(ex2):
    h_vals, g_vals, feasible = evaluate(ex2.reduced.system, ex2.reduced.point)
    assert abs(h_vals[0]) <= 1e-9
    assert abs(g_vals[0]) <= 1e-9
    assert feasible


def test_ex1_voltage_bound_exact_at_cap(ex1):
    g = ex1.system.g_ops[0]
    assert g.value(ex1.ground_truth.flat()) == 0.0


def test_box_upper_infinite_bound_never_active():
    cs = ConstraintSystem.operational(
        (), (BoxUpper(index=0, bound=np.inf),), n_state=2)
    act = active_set(cs, np.array([1e12, 0.0]))
    assert act.indices == ()


def test_active_set_ex1(ex1):
    act = active_set(ex1.system, ex1.ground_truth)
    assert act.indices == (0,)


def test_active_set_interior_point_empty():
    cs = ConstraintSystem.operational(
        (), (BoxUpper(index=0, bound=1.0), BoxLower(index=1, bound=-1.0)),
        n_state=2)
    act = active_set(cs, np.array([0.2, 0.3]))
    assert act.indices == ()


def test_active_set_inclusive_boundary_rule():
    # value exactly -act_tol / 2 counts as active
    cs = ConstraintSystem.operational(
        (), (BoxUpper(index=0, bound=1.0),), n_state=1, act_tol=1e-6)
    act = active_set(cs, np.array([1.0 - 5e-7]))
    assert act.indices == (0,)


def test_active_set_rejects_infeasible_point():
    cs = ConstraintSystem.operational(
        (), (BoxUpper(index=0, bound=1.0),), n_state=1)
    with pytest.raises(InfeasiblePointError):
        active_set(cs, np.array([2.0]))


def test_fixed_licq_ex1_rows_and_rank(ex1):
    flat = ex1.ground_truth.flat()
    mask = ex1.ground_truth.free_mask
    h_row = ex1.system.h_ops[0].gradient(flat)[mask]
    g_row = ex1.system.g_ops[0].gradient(flat)[mask]
    assert h_row.tolist() == [0.0, -1.0, 0.0, 1.0, 0.0, 0.0]
    assert g_row.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0, 0.0]
    # the operational constraints alone, without the flow equations
    fixed = ConstraintSystem.operational(ex1.system.h_ops, ex1.system.g_ops,
                                         n_state=8)
    report = licq_check(fixed, ex1.ground_truth)
    assert report.licq_holds and report.numerical_rank == 2


def test_fixed_licq_duplicated_constraint_fails(ex1):
    h = ex1.system.h_ops[0]
    fixed = ConstraintSystem.operational((h, h), ex1.system.g_ops, n_state=8)
    report = licq_check(fixed, ex1.ground_truth)
    assert not report.licq_holds
    assert report.numerical_rank == 2 and report.m == 3


def test_fixed_licq_ex2_reduced_tangency_fails(ex2):
    red = ex2.reduced
    report = licq_check(red.system, red.point)
    assert not report.licq_holds
    assert report.numerical_rank == 1 and report.m == 2
    assert report.sigma_min <= 1e-12


def test_exp_load_domain_error_at_nonpositive_voltage():
    op = ExpLoadEq(bus=0, n_bus=1, alpha=1.0, p_load=0.0)
    x = np.array([0.0, 0.0, -0.5, 0.0])
    with pytest.raises(VoltageDomainError):
        op.value(x)
    with pytest.raises(VoltageDomainError):
        op.gradient(x)


def _fd_gradient(op, x, step=1e-6):
    grad = np.zeros(x.size)
    for j in range(x.size):
        up, dn = x.copy(), x.copy()
        up[j] += step
        dn[j] -= step
        grad[j] = (op.value(up) - op.value(dn)) / (2.0 * step)
    return grad


def test_all_kind_gradients_match_finite_differences_100_trials():
    rng = np.random.default_rng(5)
    n_bus = 3
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-1.0, 1.0, 4 * n_bus)
        # keep voltages in the differentiable domain of the sqrt term
        x[2 * n_bus:3 * n_bus] = rng.uniform(0.1, 1.5, n_bus)
        ops = [
            BoxUpper(index=int(rng.integers(0, 4 * n_bus)),
                     bound=rng.uniform(-1, 1)),
            BoxLower(index=int(rng.integers(0, 4 * n_bus)),
                     bound=rng.uniform(-1, 1)),
            LinearEq(terms=tuple((int(j), float(rng.uniform(-2, 2)))
                                 for j in rng.integers(0, 4 * n_bus, 3)),
                     offset=rng.uniform(-1, 1)),
            ApparentPower(bus=int(rng.integers(0, n_bus)), n_bus=n_bus,
                          s2_max=rng.uniform(0.1, 2.0)),
            ExpLoadEq(bus=int(rng.integers(0, n_bus)), n_bus=n_bus,
                      alpha=rng.uniform(0.1, 2.0),
                      p_load=rng.uniform(-1, 1)),
        ]
        for op in ops:
            err = np.abs(op.gradient(x) - _fd_gradient(op, x))
            rel = err / np.maximum(1.0, np.abs(op.gradient(x)))
            worst = max(worst, rel.max())
    assert worst <= 1e-6


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(min_value=-2.0, max_value=0.0), min_size=1,
                       max_size=6),
       eps_small=st.floats(min_value=1e-9, max_value=1e-3),
       factor=st.floats(min_value=1.0, max_value=1e4))
def test_enlarging_activity_tolerance_never_shrinks_active_set(
        values, eps_small, factor):
    n = len(values)
    ops = tuple(BoxUpper(index=i, bound=-v) for i, v in enumerate(values))
    x = np.zeros(n)
    small = ConstraintSystem.operational((), ops, n_state=n, act_tol=eps_small)
    large = ConstraintSystem.operational((), ops, n_state=n,
                                         act_tol=eps_small * factor)
    before = set(active_set(small, x).indices)
    after = set(active_set(large, x).indices)
    assert before <= after


def test_face_label_is_pure_function_of_active_set():
    ops = tuple(BoxUpper(index=i, bound=float(i)) for i in range(3))
    cs = ConstraintSystem.operational((), ops, n_state=3)
    x1 = np.array([0.0, 1.0, 1.0])
    x2 = np.array([0.0, 1.0, 0.5])
    a1, a2 = active_set(cs, x1), active_set(cs, x2)
    assert a1.indices == (0, 1) and a2.indices == (0, 1)
    assert a1.indices == a2.indices


def test_evaluate_reports_flow_infeasibility(ex1):
    bad = SystemState.from_flat(
        ex1.ground_truth.flat() + np.eye(8)[2] * 0.1,
        ex1.ground_truth.free_mask)
    _, _, feasible = evaluate(ex1.system, bad)
    assert not feasible


def test_flow_system_rejects_plain_vector(ex1):
    # a plain vector carries no free mask; a flow system needs a SystemState
    flat = ex1.ground_truth.flat()
    for call in (evaluate, active_set, active_stack):
        with pytest.raises(ConstraintError, match="SystemState"):
            call(ex1.system, flat)


def test_state_index_layout():
    assert state_index("p", 1, 2) == 1
    assert state_index("q", 0, 2) == 2
    assert state_index("v", 1, 2) == 5
    assert state_index("theta", 1, 2) == 7
    with pytest.raises(ValueError):
        state_index("w", 0, 2)
