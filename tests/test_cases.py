import json
import math

import numpy as np
import pytest

import opfdiag as od
from opfdiag.cases import example1, example3
from opfdiag.constraints import build_operational, evaluate
from opfdiag.netmodel import Bus, BusType, CaseError, Line, Network, build_ybus
from opfdiag.powerflow import SystemState, pf_residual
from netgen import case_document


@pytest.mark.parametrize("alpha", [1.0, 2.0, 0.5])
def test_ex1_ground_truth_reverifies_through_public_apis(alpha):
    fix = example1(alpha)
    net = fix.case.network
    x = fix.ground_truth
    assert np.abs(pf_residual(net, build_ybus(net), x)).max() <= 1e-12
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


def test_ex2_full_state_ground_truth_reverifies(ex2):
    net = ex2.case.network
    x = ex2.ground_truth
    assert np.abs(pf_residual(net, build_ybus(net), x)).max() <= 1e-12
    h_vals, g_vals, feasible = evaluate(ex2.system, x)
    assert feasible
    assert abs(h_vals[0]) <= 1e-9
    assert abs(g_vals[0]) <= 1e-12


def test_ex2_reduced_gradients_parallel(ex2):
    red = ex2.reduced
    gh = red.system.h_ops[0].gradient(red.point)
    gg = red.system.g_ops[0].gradient(red.point)
    unit_h = gh / np.linalg.norm(gh)
    unit_g = gg / np.linalg.norm(gg)
    angle = math.asin(min(1.0, abs(unit_h[0] * unit_g[1]
                                   - unit_h[1] * unit_g[0])))
    assert angle <= 1e-6


def test_ex2_full_view_also_rank_deficient(ex2):
    # the reduced tangency is the image of a rank drop of the full stack
    report = od.licq_check(ex2.system, ex2.ground_truth)
    assert report.m == 6
    assert report.numerical_rank == 5
    assert not report.licq_holds


def test_ex3_flat_profile_and_variants(ex3):
    net = ex3.case.network
    y = build_ybus(net)
    assert np.abs(pf_residual(net, y, ex3.ground_truth)).max() == 0.0
    # any uniform scaling of the profile stays in the admittance null
    # space, so it remains an exact solution
    scaled = SystemState(
        p_gen=np.zeros(2), q_gen=np.zeros(2),
        v=1.05 * np.ones(2), theta=np.zeros(2),
        free_mask=ex3.ground_truth.free_mask)
    assert np.abs(pf_residual(net, y, scaled)).max() <= 1e-15
    # a non-uniform profile is what breaks the solution: flatness matters
    tilted = SystemState(
        p_gen=np.zeros(2), q_gen=np.zeros(2),
        v=np.array([1.05, 1.0]), theta=np.zeros(2),
        free_mask=ex3.ground_truth.free_mask)
    assert np.abs(pf_residual(net, y, tilted)).max() > 1e-6


def test_ex3_rejects_networks_with_shunts():
    with_bus_shunt = Network(
        buses=(Bus(id=0, bus_type=BusType.SLACK, b_shunt=0.1),
               Bus(id=1, bus_type=BusType.PQ)),
        lines=(Line(0, 1, 0.0, -1.0),))
    with pytest.raises(CaseError, match="shunt"):
        example3(with_bus_shunt)
    with_line_shunt = Network(
        buses=(Bus(id=0, bus_type=BusType.SLACK),
               Bus(id=1, bus_type=BusType.PQ)),
        lines=(Line(0, 1, 0.0, -1.0, g_shunt=0.0, b_shunt=0.04),))
    with pytest.raises(CaseError, match="shunt"):
        example3(with_line_shunt)


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
def test_fixture_documents_load_back_identically(name):
    fix = od.builtin(name)
    doc = case_document(fix.case)
    case = od.load_case(json.dumps(doc))
    assert case.network == fix.case.network
    assert np.array_equal(case.gen_p, fix.case.gen_p)
    assert np.array_equal(case.gen_q, fix.case.gen_q)
    assert case.constraint_specs == fix.case.constraint_specs


def test_builtin_rejects_unknown_name():
    with pytest.raises(CaseError, match="unknown builtin"):
        od.builtin("ex9")


def test_document_path_equals_programmatic_path(ex1):
    # constraints built from the serialized document behave identically
    case = od.load_case(json.dumps(case_document(ex1.case)))
    ops = [build_operational(s, case.network.n_bus)
           for s in case.constraint_specs]
    flat = ex1.ground_truth.flat()
    for op, fixture_op in zip(ops, list(ex1.system.h_ops) + list(ex1.system.g_ops)):
        assert op.value(flat) == fixture_op.value(flat)
        assert np.array_equal(op.gradient(flat), fixture_op.gradient(flat))
