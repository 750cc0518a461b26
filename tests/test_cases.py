import json
import math

import numpy as np
import pytest

import opfdiag as od
from opfdiag.cases import EX2_ALPHA, example1
from opfdiag.constraints import evaluate
from opfdiag.cqkit import active_stack
from opfdiag.netmodel import (ApparentPower, BoxLower, BoxUpper, CaseError,
                              ExpLoadEq, LinearEq, state_index)
from opfdiag.powerflow import SystemState, pf_residual
from netgen import (all_kinds_document, case_document, network_columns,
                    reduced_rows)


@pytest.mark.parametrize("alpha", [1.0, 2.0, 0.5])
def test_ex1_ground_truth_reverifies_through_public_apis(alpha):
    fix = example1(alpha)
    net = fix.case.network
    x = fix.ground_truth
    assert np.abs(pf_residual(net, x)).max() <= 1e-12
    h_vals, g_vals, feasible = evaluate(fix.system, x)
    assert feasible
    assert abs(h_vals[0]) <= 1e-12
    assert g_vals[0] == 0.0
    # tangency condition sin(t2) = alpha * cos(t2) at the stored angle
    t2 = x.theta[1]
    assert abs(math.sin(t2) - alpha * math.cos(t2)) <= 1e-12
    assert abs(x.v[1] - math.sqrt(alpha * alpha + 1.0)) <= 1e-15


def test_ex1_alpha_one_coordinates():
    fix = example1(1.0)
    x = fix.ground_truth
    assert abs(x.v[1] - math.sqrt(2.0)) <= 1e-15
    assert abs(x.theta[1] - math.pi / 4.0) <= 1e-15
    assert x.p_gen[1] == -1.0
    assert x.q_gen[1] == 1.0


def test_ex1_alpha_two_ray_data():
    fix = example1(2.0)
    assert abs(fix.expected["v_bar"] - math.sqrt(5.0)) <= 1e-15
    assert fix.expected["ray_direction"] == [0.0, -2.0, 0.0, 1.0, -1.0,
                                             math.sqrt(5.0)]


def test_ex1_rejects_nonpositive_alpha():
    with pytest.raises(CaseError):
        example1(0.0)
    with pytest.raises(CaseError):
        example1(-1.0)


@pytest.mark.parametrize("alpha", [1e155, 1e160, 1e300])
def test_ex1_rejects_an_alpha_whose_numbers_overflow(alpha):
    # 2 alpha^2, the coupling's offset, would be inf, and so would v_bar
    # and q_1 from 1.34e154 on
    with pytest.raises(CaseError) as err:
        example1(alpha)
    assert str(err.value) == (f"example1 at alpha = {alpha}: 2 alpha^2 "
                              "leaves the float range")


def test_ex2_full_state_ground_truth_reverifies(ex2):
    net = ex2.case.network
    x = ex2.ground_truth
    assert np.abs(pf_residual(net, x)).max() <= 1e-12
    h_vals, g_vals, feasible = evaluate(ex2.system, x)
    assert feasible
    assert abs(h_vals[0]) <= 1e-9
    assert abs(g_vals[0]) <= 1e-12


def ex2_reduced_rows(ex2):
    """Rows of the check's reduced matrix R at ex2's ground truth, over
    (v2, theta2): the h row, then the g row."""
    a = active_stack(ex2.system, ex2.ground_truth)[0]
    return reduced_rows(a, ex2.case.network.n_bus)


def test_ex2_reduced_gradients_parallel(ex2):
    gh, gg = ex2_reduced_rows(ex2)
    unit_h = gh / np.linalg.norm(gh)
    unit_g = gg / np.linalg.norm(gg)
    angle = math.asin(min(1.0, abs(unit_h[0] * unit_g[1]
                                   - unit_h[1] * unit_g[0])))
    assert angle <= 1e-6


def test_ex2_reduced_rows_match_closed_form_gradients(ex2):
    # eliminating generation by the flow equations turns the load coupling
    # and the apparent-power cap into functions of (v, t) alone:
    # h = v^2 + v (a sin t - cos t) - a (sqrt(v) + pL) and
    # g = v^2 (v^2 - 2 v cos t + 1) - s2_max; their gradients are R's rows
    a, v, t = EX2_ALPHA, ex2.ground_truth.v[1], ex2.ground_truth.theta[1]
    grad_h = [2 * v + a * math.sin(t) - math.cos(t) - a / (2 * math.sqrt(v)),
              v * (a * math.cos(t) + math.sin(t))]
    grad_g = [4 * v ** 3 - 6 * v * v * math.cos(t) + 2 * v,
              2 * v ** 3 * math.sin(t)]
    assert np.abs(ex2_reduced_rows(ex2) - [grad_h, grad_g]).max() <= 1e-12


def test_ex2_full_view_also_rank_deficient(ex2):
    # the tangency of R's two rows is a rank drop of the full stack
    report = od.licq_check(ex2.system, ex2.ground_truth)
    assert report.m == 6
    assert report.numerical_rank == 5
    assert not report.licq_holds


def test_ex3_flat_profile_and_variants(ex3):
    net = ex3.case.network
    assert np.abs(pf_residual(net, ex3.ground_truth)).max() == 0.0
    # any uniform scaling of the profile stays in the admittance null
    # space, so it remains an exact solution
    scaled = SystemState(
        p_gen=np.zeros(2), q_gen=np.zeros(2),
        v=1.05 * np.ones(2), theta=np.zeros(2))
    assert np.abs(pf_residual(net, scaled)).max() <= 1e-15
    # a non-uniform profile is what breaks the solution: flatness matters
    tilted = SystemState(
        p_gen=np.zeros(2), q_gen=np.zeros(2),
        v=np.array([1.05, 1.0]), theta=np.zeros(2))
    assert np.abs(pf_residual(net, tilted)).max() > 1e-6


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
def test_fixture_documents_load_back_identically(name):
    fix = od.builtin(name)
    doc = case_document(fix.case)
    case = od.load_case(json.dumps(doc))
    assert network_columns(case.network) == network_columns(fix.case.network)
    assert np.array_equal(case.gen_p, fix.case.gen_p)
    assert np.array_equal(case.gen_q, fix.case.gen_q)
    assert case.constraints == fix.case.constraints
    for got, want in ((case.cost.c2, fix.case.cost.c2),
                      (case.cost.c1, fix.case.cost.c1)):
        assert got.tobytes() == want.tobytes()


def test_builtin_rejects_unknown_name():
    with pytest.raises(CaseError, match="unknown builtin"):
        od.builtin("ex9")


def test_document_path_equals_programmatic_path(ex1):
    # constraints built from the serialized document behave identically
    case = od.load_case(json.dumps(case_document(ex1.case)))
    assert case.constraints == ex1.case.constraints
    flat = ex1.ground_truth.flat()
    for op, fixture_op in zip(case.constraints,
                              list(ex1.system.h_ops) + list(ex1.system.g_ops)):
        assert op.value(flat) == fixture_op.value(flat)
        assert np.array_equal(op.gradient(flat), fixture_op.gradient(flat))

    # every kind, a repeated linear_eq term and a repeated cost term: the
    # objects of a hand-built case, in declaration order, and each cost
    # entry the sum of its terms in document order
    case = od.load_case(json.dumps(all_kinds_document()))
    v2, p2 = state_index("v", 2, 3), state_index("p", 2, 3)
    assert case.constraints == (
        BoxUpper(index=v2, bound=1.1),
        LinearEq(terms=((p2, 1.0), (p2, 1.0)), offset=-0.5),
        ApparentPower(bus=0, n_bus=3, s2_max=1.0),
        BoxLower(index=v2, bound=0.9),
        ExpLoadEq(bus=2, n_bus=3, alpha=0.0, p_load=0.0))
    c2, c1 = np.zeros(12), np.zeros(12)
    c2[state_index("p", 0, 3)] = 0.0 + 0.1 + 0.2
    c1[state_index("theta", 2, 3)] = 1.0
    c1[state_index("q", 1, 3)] = 0.5
    assert case.cost.c2.tobytes() == c2.tobytes()
    assert case.cost.c1.tobytes() == c1.tobytes()
    assert case.cost.c2[0] != 0.3
    cs = od.system_for_case(case)
    assert cs.h_ops == case.constraints[1::3]
    assert cs.g_ops == (case.constraints[0], *case.constraints[2:4])
