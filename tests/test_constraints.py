import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfdiag.cases import example1
from opfdiag.constraints import (ConstraintError, ConstraintSystem,
                                 InfeasiblePointError, VoltageDomainError,
                                 active_set, evaluate, evaluate_points,
                                 point_block, system_for_case)
from opfdiag.cqkit import active_stack, face_stacks, licq_check, numerical_rank
from opfdiag.netmodel import load_case
from opfdiag.powerflow import SystemState, state_index

from netgen import (all_kinds_document, constraint_rows, constraint_specs,
                    dense_gradients, pinned_grid_document, random_network,
                    random_state, reference_gradient, reference_value)


def test_ex2_reduced_values_vanish_at_crossing(ex2):
    h_vals, g_vals, feasible = evaluate(ex2.system, ex2.ground_truth)
    assert abs(h_vals[0]) <= 1e-9
    assert abs(g_vals[0]) <= 1e-9
    assert feasible


def test_ex1_voltage_bound_exact_at_cap(ex1):
    g = ex1.system.g
    assert g.values(ex1.ground_truth.flat()[None])[0, 0] == 0.0


def _boxed(ex1, *g_specs, **tols):
    """ex1's flow system with the inequalities of the row specs ``g_specs``
    (``netgen.constraint_rows``) and no equality; its ground truth is a
    flow solution, so boxes placed relative to its entries decide
    feasibility and activity there."""
    return replace(ex1.system, h=constraint_rows(),
                   g=constraint_rows(*g_specs), **tols)


def test_box_upper_infinite_bound_never_active(ex1):
    cs = _boxed(ex1, ("box_upper", 0, np.inf))
    assert active_set(cs, ex1.ground_truth) == ()


def test_active_set_ex1(ex1):
    assert active_set(ex1.system, ex1.ground_truth) == (0,)


def test_active_set_interior_point_empty(ex1):
    x = ex1.ground_truth.flat()
    cs = _boxed(ex1, ("box_upper", 0, x[0] + 0.8),
                ("box_lower", 1, x[1] - 1.3))
    assert active_set(cs, ex1.ground_truth) == ()


def test_active_set_inclusive_boundary_rule(ex1):
    # value -act_tol / 2 counts as active
    x = ex1.ground_truth.flat()
    cs = _boxed(ex1, ("box_upper", 0, x[0] + 5e-7), act_tol=1e-6)
    assert active_set(cs, ex1.ground_truth) == (0,)


def test_active_set_rejects_infeasible_point(ex1):
    x = ex1.ground_truth.flat()
    cs = _boxed(ex1, ("box_upper", 0, x[0] - 1.0))
    with pytest.raises(InfeasiblePointError) as err:
        active_set(cs, ex1.ground_truth)
    assert err.value.worst_row == "g:0"


def test_fixed_licq_ex1_rows_and_rank(ex1):
    flat = ex1.ground_truth.flat()
    mask = ex1.system.net.free_mask
    h_row = dense_gradients(ex1.system.h, flat)[0, mask]
    g_row = dense_gradients(ex1.system.g, flat)[0, mask]
    assert h_row.tolist() == [0.0, -1.0, 0.0, 1.0, 0.0, 0.0]
    assert g_row.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0, 0.0]
    # the two operational rows alone are independent; the stack with the
    # flow rows is not (test_fixed_licq_ex2_reduced_tangency_fails for ex2)
    assert numerical_rank(np.vstack([h_row, g_row]))[0] == 2


def test_fixed_licq_duplicated_constraint_fails(ex1):
    (h,) = constraint_specs(ex1.system.h)
    report = licq_check(replace(ex1.system, h=constraint_rows(h, h)),
                        ex1.ground_truth)
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
    op = constraint_rows(("exp_load_eq", 0, 1.0, 0.0))
    for v in (-0.5, 0.0):
        x = np.array([[0.0, 0.0, v, 0.0]])
        assert np.isnan(op.values(x)[0, 0])
        with pytest.raises(VoltageDomainError):
            op.gradients(x)
    values = op.values(np.array([[0.0, 0.0, -0.5, 0.0], [0.0, 0.0, 4.0, 0.0]]))
    assert np.isnan(values[0, 0]) and values[1, 0] == -2.0


def _fd_gradients(rows, x, step=1e-6):
    """Central differences of every row of a table at one flat state."""
    steps = step * np.eye(x.size)
    return ((rows.values(x + steps) - rows.values(x - steps)).T
            / (2.0 * step))


def test_all_kind_gradients_match_finite_differences_100_trials():
    rng = np.random.default_rng(5)
    n_bus = 3
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-1.0, 1.0, 4 * n_bus)
        # keep voltages in the differentiable domain of the sqrt term
        x[2 * n_bus:3 * n_bus] = rng.uniform(0.1, 1.5, n_bus)
        ops = constraint_rows(
            ("box_upper", int(rng.integers(0, 4 * n_bus)),
             rng.uniform(-1, 1)),
            ("box_lower", int(rng.integers(0, 4 * n_bus)),
             rng.uniform(-1, 1)),
            ("linear_eq", tuple((int(j), float(rng.uniform(-2, 2)))
                                for j in rng.integers(0, 4 * n_bus, 3)),
             rng.uniform(-1, 1)),
            ("apparent_power", int(rng.integers(0, n_bus)),
             rng.uniform(0.1, 2.0)),
            ("exp_load_eq", int(rng.integers(0, n_bus)),
             rng.uniform(0.1, 2.0), rng.uniform(-1, 1)))
        grad = dense_gradients(ops, x)
        err = np.abs(grad - _fd_gradients(ops, x))
        worst = max(worst, (err / np.maximum(1.0, np.abs(grad))).max())
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
    ops = tuple(("box_upper", i, x[i] - v) for i, v in enumerate(values))
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
        cs = _boxed(ex1, ("box_upper", 0, x[0]), ("box_upper", 1, x[1]),
                    ("box_upper", 2, x[2] + slack))
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


def test_flow_system_rejects_a_state_of_another_network(ex1):
    # a 3-bus state on ex1's 2-bus system: 12 entries, not 8
    x = SystemState.from_flat(np.zeros(12))
    for call in (evaluate, active_set, active_stack):
        with pytest.raises(ConstraintError,
                           match="state has 12 entries, system expects 8"):
            call(ex1.system, x)


def test_state_index_layout():
    assert state_index("p", 1, 2) == 1
    assert state_index("q", 0, 2) == 2
    assert state_index("v", 1, 2) == 5
    assert state_index("theta", 1, 2) == 7
    with pytest.raises(ValueError):
        state_index("w", 0, 2)


def test_box_rows_gathered_bitwise_in_declaration_order(rng):
    # evaluate_points takes each kind's values in one gather; interleaved
    # with the other kinds, each column is bit for bit its row's own
    # value, in declaration order
    n = 3
    ops = (("box_upper", 2 * n, 1.1), ("apparent_power", 1, 2.0),
           ("box_lower", 2 * n + 1, 0.9), ("box_upper", 0, -0.3),
           ("exp_load_eq", 2, 0.7, 0.1), ("box_lower", 3 * n + 2, -0.2),
           ("linear_eq", ((1, 2.0), (n + 2, -1.5)), 0.25))
    net = random_network(n, rng)
    cs = ConstraintSystem(h=constraint_rows(*ops[4:]),
                          g=constraint_rows(*ops), net=net)
    flats = np.array([random_state(net, rng).flat() for _ in range(4)])
    flats[1, 2 * n + 2] = -0.5  # outside the voltage-dependent load's domain
    flow = tuple(np.repeat(a, 4, axis=0) for a in point_block(
        cs, SystemState.from_flat(flats[0]))[1])
    h_vals, g_vals, _, _ = evaluate_points(cs, flats, flow)
    for vals, group in ((h_vals, ops[4:]), (g_vals, ops)):
        ref = np.stack([reference_value(op, flats) for op in group], axis=1)
        assert vals.shape == ref.shape
        assert vals.tobytes() == ref.tobytes()
    assert np.isnan(g_vals[1, 4]) and np.isnan(h_vals[1, 0])


def _reference_stacks(cs, flats, face):
    """The operational rows of ``face_stacks`` from the per-row references:
    each row's dense gradient (``netgen.reference_gradient``) over the free
    columns, stacked h rows first, and the entries that are not +0.0 at
    some point, row-major, as (rows, cols, values)."""
    specs = constraint_specs(cs.h) + [constraint_specs(cs.g)[j] for j in face]
    grads = np.stack([reference_gradient(spec, flats)[:, cs.net.free_mask]
                      for spec in specs], axis=1)
    at_r, at_c = np.nonzero(((grads != 0) | np.signbit(grads)).any(axis=0))
    return at_r, at_c, grads[:, at_r, at_c]


def _kinds_with_cancelling_row() -> dict:
    # every kind, a repeated term (row 1) and a linear_eq whose two p_1
    # terms cancel to +0.0, which stays out of the stack's pattern
    doc = all_kinds_document()
    doc["constraints"].append({"kind": "linear_eq", "params": {"terms": [
        {"var": "p", "bus": 1, "coef": 0.75}, {"var": "q", "bus": 2, "coef": 2.0},
        {"var": "p", "bus": 1, "coef": -0.75}]}})
    return doc


@pytest.mark.parametrize("name", ["all-kinds", "pinned-8x8"])
def test_tables_are_bitwise_their_rows_references(name):
    # values, gradients and face_stacks triplets of the column tables
    # against the per-row formulas of one object per constraint, at random
    # states: equal bit for bit, the pattern included
    doc = (_kinds_with_cancelling_row() if name == "all-kinds"
           else pinned_grid_document(8, 0))
    case = load_case(json.dumps(doc))
    cs = system_for_case(case)
    rng = np.random.default_rng([7, len(doc["constraints"])])
    flats = np.array([random_state(case.network, rng).flat()
                      for _ in range(6)])
    flats[1, :case.network.n_bus] = -0.0  # generation of either sign of 0
    for table in (cs.h, cs.g):
        specs = constraint_specs(table)
        assert table.values(flats).tobytes() == np.stack(
            [reference_value(spec, flats) for spec in specs], axis=1).tobytes()
        rows, cols, values = table.gradients(flats)
        dense = np.zeros((len(flats), table.size, flats.shape[1]))
        dense[:, rows, cols] = values
        assert dense.tobytes() == np.stack(
            [reference_gradient(spec, flats) for spec in specs],
            axis=1).tobytes()
    lines = [np.repeat(y, len(flats), axis=0) for y in cs.net.admittances]
    p = 2 * case.network.n_bus
    for face in ((), tuple(range(cs.g.size))):
        got = face_stacks(cs, flats, *lines, face)
        at_r, at_c, values = _reference_stacks(cs, flats, face)
        own = got.rows >= p
        assert got.rows[own].tolist() == (p + at_r).tolist()
        assert got.cols[own].tolist() == at_c.tolist()
        assert got.values[:, own].tobytes() == values.tobytes()
    if name == "all-kinds":
        # the repeated term's gradient is 0 + 1 + 1; the cancelled p_1
        # entry of the last h row is +0.0 and out of the pattern
        grads = dense_gradients(cs.h, flats[0])
        assert grads[0, state_index("p", 2, 3)] == 2.0
        p1 = state_index("p", 1, 3)
        last = got.rows == p + cs.h.size - 1
        assert grads[2, p1] == 0.0 and not np.signbit(grads[2, p1])
        assert p1 not in got.cols[last].tolist()
        assert got.cols[last].tolist() == [state_index("q", 2, 3)]


def test_exp_load_outside_its_domain_as_its_reference():
    # at v <= 0 the value is NaN, and the gradient raises the reference's
    # VoltageDomainError, naming the bus and the first such value
    cs = system_for_case(load_case(json.dumps(all_kinds_document())))
    (spec,) = [s for s in constraint_specs(cs.h) if s[0] == "exp_load_eq"]
    flats = np.tile(np.linspace(0.5, 1.5, 12), (3, 1))
    v2 = state_index("v", 2, 3)
    flats[1:, v2] = (-0.5, 0.0)
    values = cs.h.values(flats)[:, -1]
    assert not np.isnan(values[0]) and np.isnan(values[1:]).all()
    assert np.isnan(reference_value(spec, flats[1:])).all()
    with pytest.raises(VoltageDomainError) as got:
        cs.h.gradients(flats)
    with pytest.raises(VoltageDomainError) as want:
        reference_gradient(spec, flats)
    assert str(got.value) == str(want.value) == (
        "voltage-dependent load at bus 2 evaluated at v = -0.5; requires "
        "v > 0")
