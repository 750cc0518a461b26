import json
import math

import numpy as np
import pytest

import opfdiag as od
from opfdiag.constraints import (BoxUpper, ConstraintSystem,
                                 InfeasiblePointError, LinearEq, evaluate)
from opfdiag.cqkit import (DEFAULT_STAT_TOL, Classification, CostSpec,
                           CQReport, kkt_residual, kkt_solve, licq_check,
                           numerical_rank)
from opfdiag.netmodel import build_ybus
from opfdiag.powerflow import solve_power_flow


def _checked_null_space(cs, x, cost):
    """Multiplier set of a costed licq_check after checking its left null
    space against the report's own stack."""
    report = licq_check(cs, x, cost)
    kkt = report.kkt
    basis = kkt.nullspace_basis
    assert basis.shape == (report.m, report.m - report.numerical_rank)
    assert np.abs(report.active_jacobian.T @ basis).max(initial=0.0) <= 1e-12
    assert np.abs(basis.T @ basis - np.eye(basis.shape[1])).max(
        initial=0.0) <= 1e-12
    if kkt.classification in (Classification.UNIQUE, Classification.RAY):
        assert kkt_residual(cs, x, cost, kkt.particular) <= DEFAULT_STAT_TOL
    return kkt


def test_licq_fails_at_tangent_point(ex1):
    report = licq_check(ex1.system, ex1.ground_truth)
    assert report.m == 6 and report.n_free == 6
    assert report.numerical_rank == 5
    assert not report.licq_holds
    assert report.sigma_min <= report.rank_tol


def test_licq_holds_with_inactive_voltage_bound(ex1):
    # same system, lighter transfer: the cap stays strictly slack and the
    # five remaining rows are independent
    net = ex1.case.network
    sol = solve_power_flow(net, build_ybus(net), np.array([0.0, -1.5]),
                           np.array([0.0, 0.5]))
    assert sol.state.v[1] < ex1.expected["v_bar"] - 1e-3
    report = licq_check(ex1.system, sol.state)
    assert report.m == 5
    assert report.numerical_rank == 5
    assert report.licq_holds
    assert report.sigma_min > report.rank_tol


def test_licq_trivial_full_rank_from_identity_blocks(ex3):
    # no operational constraints; the generation identity blocks alone
    # give the four flow rows full rank over all eight columns
    state = od.SystemState.from_flat(ex3.ground_truth.flat(),
                                     np.ones(8, dtype=bool))
    report = licq_check(od.system_for_case(ex3.case), state)
    assert report.m == 4 and report.n_free == 8
    assert report.licq_holds


def test_licq_rejects_infeasible_point(ex1):
    bad = od.SystemState.from_flat(ex1.ground_truth.flat() + 0.05,
                                   ex1.ground_truth.free_mask)
    with pytest.raises(InfeasiblePointError):
        licq_check(ex1.system, bad)


def test_check_raises_exactly_at_infeasible_points(ex1, lattice_document):
    # licq_check is the only feasibility test of check, sweep and probe, so
    # its verdict must agree with evaluate's on feasible and infeasible
    # states alike
    case = od.load_case(json.dumps(lattice_document(3, 3, 0)))
    lattice = od.system_for_case(case)
    x_lattice = solve_power_flow(case.network, lattice.Y, case.gen_p,
                                 case.gen_q).state
    rng = np.random.default_rng(6)
    for cs, x in ((ex1.system, ex1.ground_truth), (lattice, x_lattice)):
        seen = set()
        for _ in range(150):
            scale = 10.0 ** rng.uniform(-14, -3)
            noise = scale * rng.standard_normal(cs.n_state)
            noise *= rng.uniform(size=cs.n_state) < 0.5
            state = od.SystemState.from_flat(x.flat() + noise, x.free_mask)
            feasible = evaluate(cs, state)[2]
            try:
                licq_check(cs, state)
                raised = False
            except InfeasiblePointError as exc:
                assert str(exc).startswith("worst violation ")
                raised = True
            assert raised is not feasible
            seen.add(feasible)
        assert seen == {True, False}


def test_kkt_ray_at_tangent_point(ex1):
    kkt = _checked_null_space(ex1.system, ex1.ground_truth, ex1.cost)
    assert kkt.nullspace_basis.shape == (6, 1)  # m = n = 6
    assert kkt.classification is Classification.RAY
    assert kkt.family_dim == 1
    assert np.abs(kkt.particular
                  - np.array(ex1.expected["ray_vertex"])).max() <= 1e-8
    want = np.array(ex1.expected["ray_direction"], dtype=float)
    want /= np.linalg.norm(want)
    have = kkt.ray_direction / np.linalg.norm(kkt.ray_direction)
    assert np.abs(have - want).max() <= 1e-8
    assert kkt.zeta_interval == (0.0, np.inf)
    assert kkt.mu_sign_feasible
    # split views agree with the stacked particular
    assert np.array_equal(kkt.particular[:4], kkt.kappa)
    assert np.array_equal(kkt.particular[4:5], kkt.lam)
    assert np.array_equal(kkt.particular[5:], kkt.mu)


def test_kkt_unique_after_interior_load_shift(ex1):
    shifted = od.shift_load(ex1.case, 1, +0.05)
    cs = od.system_for_case(shifted)
    state, pinned = od.nearest_feasible_point(cs, ex1.ground_truth)
    assert state is not None and pinned
    report = licq_check(cs, state)
    assert report.licq_holds
    kkt = kkt_solve(cs, state, ex1.cost)
    assert kkt.classification is Classification.UNIQUE
    assert kkt.stationarity_residual <= 1e-8
    assert kkt.nullspace_basis.shape[1] == 0


def test_kkt_none_for_probe_cost_on_tangent_pair(ex2):
    red = ex2.reduced
    kkt = kkt_solve(red.system, red.point, red.probe_cost)
    assert kkt.classification is Classification.NONE
    assert kkt.stationarity_residual >= 0.1
    # independent oracle: distance from the probe gradient to the common
    # span of the two parallel constraint gradients
    direction = red.system.g_ops[0].gradient(red.point)
    unit = direction / np.linalg.norm(direction)
    expected = np.linalg.norm(np.array([0.0, 1.0]) - (unit[1]) * unit)
    assert abs(kkt.stationarity_residual - expected) <= 1e-12


def test_kkt_residual_confirms_ray_members(ex1):
    vertex = np.array([-1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
    direction = np.array([0.0, -1.0, 0.0, 1.0, -1.0, math.sqrt(2.0)])
    for zeta in (0.0, 7.0):
        resid = kkt_residual(ex1.system, ex1.ground_truth, ex1.cost,
                             vertex + zeta * direction)
        assert resid <= 1e-10


def test_kkt_residual_zero_cost_zero_multipliers(ex1):
    zero = CostSpec(c2=np.zeros(8), c1=np.zeros(8))
    assert kkt_residual(ex1.system, ex1.ground_truth, zero,
                        np.zeros(6)) == 0.0


def test_kkt_residual_rejects_wrong_dimension(ex1):
    with pytest.raises(ValueError, match="stack has 6 rows"):
        kkt_residual(ex1.system, ex1.ground_truth, ex1.cost, np.zeros(4))


def test_null_space_offsets_preserve_stationarity(ex1, rng):
    kkt = kkt_solve(ex1.system, ex1.ground_truth, ex1.cost)
    base = kkt.stationarity_residual
    for _ in range(10):
        z = rng.uniform(-1.0, 1.0, kkt.nullspace_basis.shape[1])
        y = kkt.particular + kkt.nullspace_basis @ z
        resid = kkt_residual(ex1.system, ex1.ground_truth, ex1.cost, y)
        assert resid <= 1e-8 + 1e-12
        assert abs(resid - base) <= 1e-12


def test_cost_scaling_scales_multipliers(ex1):
    # the stationarity test is relative to the cost gradient, so a scaled
    # cost keeps its classification (at 1e8 the residual is 1.2e-7)
    kkt1 = kkt_solve(ex1.system, ex1.ground_truth, ex1.cost)
    for factor in (3.7, 1e8):
        kkt2 = kkt_solve(ex1.system, ex1.ground_truth, ex1.cost.scaled(factor))
        assert kkt2.classification is kkt1.classification
        scale = factor * np.abs(kkt1.particular).max()
        assert np.abs(kkt2.particular
                      - factor * kkt1.particular).max() <= 1e-12 * scale


def test_rank_monotone_under_row_removal(rng):
    for _ in range(20):
        m, n = rng.integers(2, 7), rng.integers(2, 7)
        mat = rng.uniform(-1, 1, (m, n))
        if rng.uniform() < 0.5 and m >= 2:
            mat[m - 1] = mat[0]  # force a dependency sometimes
        rank_full, *_ = numerical_rank(mat)
        deficiency_full = m - rank_full
        for i in range(m):
            sub = np.delete(mat, i, axis=0)
            rank_sub, *_ = numerical_rank(sub)
            assert (m - 1) - rank_sub <= deficiency_full


def test_licq_holds_implies_unique_or_none(ex1):
    net = ex1.case.network
    sol = solve_power_flow(net, build_ybus(net), np.array([0.0, -1.5]),
                           np.array([0.0, 0.5]))
    report = licq_check(ex1.system, sol.state)
    assert report.licq_holds
    kkt = kkt_solve(ex1.system, sol.state, ex1.cost)
    assert kkt.classification in (Classification.UNIQUE, Classification.NONE)


def test_unique_multiplier_on_simple_active_box():
    cs = ConstraintSystem.operational(
        (), (BoxUpper(index=0, bound=1.0),), n_state=1)
    cost = CostSpec(c2=np.zeros(1), c1=np.array([-1.0]))
    kkt = _checked_null_space(cs, np.array([1.0]), cost)
    assert kkt.classification is Classification.UNIQUE
    assert abs(kkt.mu[0] - 1.0) <= 1e-12
    assert kkt.mu_sign_feasible


def test_empty_active_stack():
    # the cap is slack at x = 0, so no row is active
    cs = ConstraintSystem.operational(
        (), (BoxUpper(index=0, bound=1.0),), n_state=1)
    zero = CostSpec(c2=np.zeros(1), c1=np.zeros(1))
    report = licq_check(cs, np.array([0.0]), zero)
    assert report.m == 0 and report.licq_holds
    assert report.sigma_min == np.inf and report.rank_tol == 0.0
    assert report.kkt.classification is Classification.UNIQUE
    assert report.kkt.mu_sign_feasible
    assert report.kkt.nullspace_basis.shape == (0, 0)
    assert report.to_dict()["active_jacobian"] == {
        "shape": [0, 1], "rows": [], "cols": [], "values": []}
    tilted = CostSpec(c2=np.zeros(1), c1=np.array([0.5]))
    kkt = kkt_solve(cs, np.array([0.0]), tilted)
    assert kkt.classification is Classification.NONE
    assert kkt.stationarity_residual == 0.5
    assert kkt.particular.shape == (0,) and kkt.mu_sign_feasible is None


def test_family_classification_for_higher_nullity():
    h = LinearEq(terms=((0, 1.0),), offset=0.0)
    cs = ConstraintSystem.operational((h, h, h), (), n_state=2)
    cost = CostSpec(c2=np.zeros(2), c1=np.array([1.0, 0.0]))
    # m = 3 > n = 2: the null space needs U past its thin columns
    kkt = _checked_null_space(cs, np.array([0.0, 0.3]), cost)
    assert kkt.classification is Classification.FAMILY
    assert kkt.family_dim == 2
    assert kkt.nullspace_basis.shape == (3, 2)
    assert kkt.stationarity_residual <= 1e-12


def test_costed_check_matches_values_only_check(ex1):
    plain = licq_check(ex1.system, ex1.ground_truth)
    costed = licq_check(ex1.system, ex1.ground_truth, ex1.cost)
    assert plain.kkt is None
    assert costed.kkt.classification is Classification.RAY
    a, b = plain.to_dict(), costed.to_dict()
    assert b.keys() == a.keys() and "kkt" not in b
    assert abs(b.pop("sigma_min") - a.pop("sigma_min")) <= 1e-15
    assert b.pop("rank_tol") == pytest.approx(a.pop("rank_tol"), rel=1e-12)
    assert b == a


def test_cq_report_serializes(ex1):
    report = licq_check(ex1.system, ex1.ground_truth)
    payload = report.to_dict()
    assert payload["numerical_rank"] == 5
    assert payload["row_labels"][0] == "flow:p:0"
    import json

    json.dumps(payload)  # must be valid JSON content


def test_cq_report_writes_nonzero_triplets():
    # -0.0 compares equal to 0.0, so it is dropped like +0.0: the rebuilt
    # matrix has +0.0 there and signed zeros are not preserved.
    a = np.array([[0.0, 2.5, -0.0],
                  [-1.0, 0.0, 0.0],
                  [0.0, 0.0, 1e-300]])
    report = CQReport(active_jacobian=a, row_labels=("a", "b", "c"), m=3,
                      n_free=3, numerical_rank=3, sigma_min=1e-300,
                      rank_tol=0.0, licq_holds=True, face=())
    coo = report.to_dict()["active_jacobian"]
    assert coo == {"shape": [3, 3], "rows": [0, 1, 2], "cols": [1, 0, 2],
                   "values": [2.5, -1.0, 1e-300]}
    rebuilt = np.zeros(coo["shape"])
    rebuilt[coo["rows"], coo["cols"]] = coo["values"]
    assert (rebuilt == a).all()
    assert not np.signbit(rebuilt[0, 2])
