from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfdiag.cases import example1
from opfdiag.constraints import (ApparentPower, BoxLower, BoxUpper, ExpLoadEq,
                                 ConstraintError, ConstraintSystem,
                                 InfeasiblePointError, LinearEq,
                                 VoltageDomainError, active_set, evaluate,
                                 evaluate_points, point_block)
from opfdiag.cqkit import active_stack, licq_check, numerical_rank
from opfdiag.powerflow import SystemState, state_index

from netgen import random_network, random_state


def test_ex2_reduced_values_vanish_at_crossing(ex2):
    h_vals, g_vals, feasible = evaluate(ex2.system, ex2.ground_truth)
    assert abs(h_vals[0]) <= 1e-9
    assert abs(g_vals[0]) <= 1e-9
    assert feasible


def test_ex1_voltage_bound_exact_at_cap(ex1):
    g = ex1.system.g_ops[0]
    assert g.value(ex1.ground_truth.flat()) == 0.0


def _boxed(ex1, *g_ops, **tols):
    """ex1's flow system with the given inequalities and no equality; its
    ground truth is a flow solution, so boxes placed relative to its
    entries decide feasibility and activity there."""
    return replace(ex1.system, h_ops=(), g_ops=g_ops, **tols)


def test_box_upper_infinite_bound_never_active(ex1):
    cs = _boxed(ex1, BoxUpper(index=0, bound=np.inf))
    assert active_set(cs, ex1.ground_truth) == ()


def test_active_set_ex1(ex1):
    assert active_set(ex1.system, ex1.ground_truth) == (0,)


def test_active_set_interior_point_empty(ex1):
    x = ex1.ground_truth.flat()
    cs = _boxed(ex1, BoxUpper(index=0, bound=x[0] + 0.8),
                BoxLower(index=1, bound=x[1] - 1.3))
    assert active_set(cs, ex1.ground_truth) == ()


def test_active_set_inclusive_boundary_rule(ex1):
    # value -act_tol / 2 counts as active
    x = ex1.ground_truth.flat()
    cs = _boxed(ex1, BoxUpper(index=0, bound=x[0] + 5e-7), act_tol=1e-6)
    assert active_set(cs, ex1.ground_truth) == (0,)


def test_active_set_rejects_infeasible_point(ex1):
    x = ex1.ground_truth.flat()
    cs = _boxed(ex1, BoxUpper(index=0, bound=x[0] - 1.0))
    with pytest.raises(InfeasiblePointError) as err:
        active_set(cs, ex1.ground_truth)
    assert err.value.worst_row == "g:0"


def test_fixed_licq_ex1_rows_and_rank(ex1):
    flat = ex1.ground_truth.flat()
    mask = ex1.system.net.free_mask
    h_row = ex1.system.h_ops[0].gradient(flat)[mask]
    g_row = ex1.system.g_ops[0].gradient(flat)[mask]
    assert h_row.tolist() == [0.0, -1.0, 0.0, 1.0, 0.0, 0.0]
    assert g_row.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0, 0.0]
    # the two operational rows alone are independent; the stack with the
    # flow rows is not (test_fixed_licq_ex2_reduced_tangency_fails for ex2)
    assert numerical_rank(np.vstack([h_row, g_row]))[0] == 2


def test_fixed_licq_duplicated_constraint_fails(ex1):
    h = ex1.system.h_ops[0]
    report = licq_check(replace(ex1.system, h_ops=(h, h)), ex1.ground_truth)
    assert not report.licq_holds
    assert report.numerical_rank == 5 and report.m == 7


def test_fixed_licq_ex2_reduced_tangency_fails(ex2):
    # the tangency on the flow manifold: R has rank 1 of 2, the stack 5 of 6
    report = licq_check(ex2.system, ex2.ground_truth)
    assert not report.licq_holds
    assert report.numerical_rank == 5 and report.m == 6
    assert report.sigma_min <= 1e-12


def test_exp_load_domain_error_at_nonpositive_voltage():
    # outside the domain the value is NaN, so the point is infeasible; the
    # gradient, only taken at feasible points, raises
    op = ExpLoadEq(bus=0, n_bus=1, alpha=1.0, p_load=0.0)
    for v in (-0.5, 0.0):
        x = np.array([0.0, 0.0, v, 0.0])
        assert np.isnan(op.value(x))
        with pytest.raises(VoltageDomainError):
            op.gradient(x)
    values = op.value(np.array([[0.0, 0.0, -0.5, 0.0], [0.0, 0.0, 4.0, 0.0]]))
    assert np.isnan(values[0]) and values[1] == -2.0


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
    # box i sits at value values[i] <= 0 on entry i of ex1's ground truth
    ex1 = example1(1.0)
    x = ex1.ground_truth.flat()
    ops = tuple(BoxUpper(index=i, bound=x[i] - v) for i, v in enumerate(values))
    small = _boxed(ex1, *ops, act_tol=eps_small)
    large = _boxed(ex1, *ops, act_tol=eps_small * factor)
    before = set(active_set(small, ex1.ground_truth))
    after = set(active_set(large, ex1.ground_truth))
    assert before <= after


def test_face_label_is_pure_function_of_active_set(ex1):
    # boxes 0 and 1 at the point's entries, box 2 slack by 1 or by 1.5
    x = ex1.ground_truth.flat()
    faces = []
    for slack in (1.0, 1.5):
        cs = _boxed(ex1, BoxUpper(index=0, bound=x[0]),
                    BoxUpper(index=1, bound=x[1]),
                    BoxUpper(index=2, bound=x[2] + slack))
        faces.append(active_set(cs, ex1.ground_truth))
    a1, a2 = faces
    assert a1 == (0, 1) and a2 == (0, 1)
    assert a1 == a2


def test_evaluate_reports_flow_infeasibility(ex1):
    bad = SystemState.from_flat(
        ex1.ground_truth.flat() + np.eye(8)[2] * 0.1)
    _, _, feasible = evaluate(ex1.system, bad)
    assert not feasible


def test_flow_system_rejects_plain_vector(ex1):
    # every system takes a SystemState, not a plain vector
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


def test_box_rows_gathered_bitwise_in_declaration_order(rng):
    # evaluate_points takes every BoxUpper and every BoxLower value in one
    # gather per kind; interleaved with the other kinds, each column is
    # bit for bit its op's own value, in declaration order
    n = 3
    ops = (BoxUpper(index=2 * n, bound=1.1),
           ApparentPower(bus=1, n_bus=n, s2_max=2.0),
           BoxLower(index=2 * n + 1, bound=0.9),
           BoxUpper(index=0, bound=-0.3),
           ExpLoadEq(bus=2, n_bus=n, alpha=0.7, p_load=0.1),
           BoxLower(index=3 * n + 2, bound=-0.2),
           LinearEq(terms=((1, 2.0), (n + 2, -1.5)), offset=0.25))
    net = random_network(n, rng)
    cs = ConstraintSystem(h_ops=ops[4:], g_ops=ops, net=net)
    flats = np.array([random_state(net, rng).flat() for _ in range(4)])
    flats[1, 2 * n + 2] = -0.5  # outside the voltage-dependent load's domain
    flow = tuple(np.repeat(a, 4, axis=0) for a in point_block(
        cs, SystemState.from_flat(flats[0]))[1])
    h_vals, g_vals, _, _ = evaluate_points(cs, flats, flow)
    for vals, group in ((h_vals, cs.h_ops), (g_vals, cs.g_ops)):
        ref = np.stack([op.value(flats) for op in group], axis=1)
        assert vals.shape == ref.shape
        assert vals.tobytes() == ref.tobytes()
    assert np.isnan(g_vals[1, 4]) and np.isnan(h_vals[1, 0])
