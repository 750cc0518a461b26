import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import opfdiag as od
from netgen import injections, random_network, random_state, reduced_rows
from opfdiag import cqkit
from opfdiag.constraints import (ApparentPower, BoxUpper, ConstraintSystem,
                                 InfeasiblePointError, LinearEq, evaluate,
                                 point_block)
from opfdiag.cqkit import (Classification, CostSpec, CQReport, Stacks,
                           _multiplier_set, _rank_from_svals, active_stack,
                           kkt_residual, kkt_solve, licq_check, licq_checks,
                           numerical_rank)
from opfdiag.perturb import nearest_feasible_point, shift_load
from opfdiag.powerflow import SystemState, flow_rows, solve_power_flow


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
        assert kkt_residual(cs, x, cost, kkt.particular) <= ConstraintSystem.stat_tol
    return kkt


def _lattice_point(doc):
    """System of a lattice case document and its solved power flow."""
    case = od.load_case(json.dumps(doc))
    cs = od.system_for_case(case)
    x = solve_power_flow(case.network, case.gen_p, case.gen_q,
                         pf_tol=1e-10).state
    return case, cs, x


@pytest.mark.parametrize("shape, scale", [((6, 9), 1.0), ((6, 4), 1e3),
                                          ((7, 7), 1e-30)])
def test_rank_of_a_stack_is_each_row_rank(shape, scale):
    # the stacked form of the one rank routine gives each row's rank,
    # sigma_min and tolerance bit for bit as the scalar rule does
    rng = np.random.default_rng(5)
    svals = rng.uniform(0.0, 1.0, (60, 6)) * 10.0 ** rng.integers(-20, 3,
                                                                   (60, 6))
    svals = -np.sort(-svals, axis=1)
    svals[:4] = 0.0
    svals[4:8, 2:] = 0.0
    stacked = cqkit._rank_from_svals(svals, shape, scale)
    expected = []
    for row in svals:
        tol = float(row[0] * max(shape) * scale) if row[0] > 0 else 0.0
        expected.append((int((row > tol).sum()), float(row[-1]), tol))
    assert list(zip(*stacked)) == expected
    assert [cqkit._rank_from_svals(row, shape, scale)
            for row in svals] == expected
    assert cqkit._rank_from_svals(np.zeros((2, 0)), shape, scale) == (
        [0, 0], [math.inf] * 2, [0.0, 0.0])


def test_sweep_decides_rank_once_per_face_group(ex1, monkeypatch):
    # the 304 checked trials of the seed-42 load sweep share one face: one
    # call for their merged singular values, after the hypothesis's call
    calls = []
    rank = cqkit._rank_from_svals

    def counted(svals, *args):
        calls.append(svals.shape)
        return rank(svals, *args)

    monkeypatch.setattr(cqkit, "_rank_from_svals", counted)
    rep = od.run_genericity_experiment(
        ex1.case, od.make_model("load", ex1.case), trials=1000, seed=42)
    assert rep.feasible_count == 304
    assert calls == [(4,), (304, 5)]


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
    sol = solve_power_flow(net, np.array([0.0, -1.5]),
                           np.array([0.0, 0.5]), pf_tol=1e-10)
    assert sol.state.v[1] < ex1.expected["v_bar"] - 1e-3
    report = licq_check(ex1.system, sol.state)
    assert report.m == 5
    assert report.numerical_rank == 5
    assert report.licq_holds
    assert report.sigma_min > report.rank_tol


def test_licq_trivial_full_rank_from_identity_blocks(ex3):
    # no operational constraints; the generation identity blocks alone
    # give the four flow rows full rank over ex3's six free columns
    report = licq_check(ex3.system, ex3.ground_truth)
    assert report.m == 4 and report.n_free == 6
    assert report.licq_holds


def test_licq_rejects_infeasible_point(ex1):
    bad = SystemState.from_flat(ex1.ground_truth.flat() + 0.05)
    with pytest.raises(InfeasiblePointError):
        licq_check(ex1.system, bad)


def test_check_raises_exactly_at_infeasible_points(ex1, lattice_document):
    # licq_check is the only feasibility test of check, sweep and probe, so
    # its verdict must agree with evaluate's on feasible and infeasible
    # states alike
    _, lattice, x_lattice = _lattice_point(lattice_document(3, 3, 0))
    rng = np.random.default_rng(6)
    for cs, x in ((ex1.system, ex1.ground_truth), (lattice, x_lattice)):
        seen = set()
        for _ in range(150):
            scale = 10.0 ** rng.uniform(-14, -3)
            noise = scale * rng.standard_normal(4 * cs.net.n_bus)
            noise *= rng.uniform(size=noise.size) < 0.5
            state = SystemState.from_flat(x.flat() + noise)
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
    kkt = _checked_null_space(ex1.system, ex1.ground_truth, ex1.case.cost)
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
    shifted = shift_load(ex1.case, 1, +0.05)
    cs = od.system_for_case(shifted)
    state, pinned = nearest_feasible_point(cs, ex1.ground_truth)
    assert state is not None and pinned
    report = licq_check(cs, state)
    assert report.licq_holds
    kkt = kkt_solve(cs, state, ex1.case.cost)
    assert kkt.classification is Classification.UNIQUE
    assert kkt.stationarity_residual <= 1e-8
    assert kkt.nullspace_basis.shape[1] == 0


def test_kkt_none_for_probe_cost_on_tangent_pair(ex2):
    kkt = kkt_solve(ex2.system, ex2.ground_truth, ex2.case.cost)
    assert kkt.classification is Classification.NONE
    assert kkt.stationarity_residual >= 0.1
    # independent oracle: distance from the reduced cost gradient (0, 1)
    # over (v2, theta2) to the common span of the two parallel rows of R
    a = active_stack(ex2.system, ex2.ground_truth)[0]
    direction = reduced_rows(a, ex2.case.network.n_bus)[1]
    unit = direction / np.linalg.norm(direction)
    expected = np.linalg.norm(np.array([0.0, 1.0]) - (unit[1]) * unit)
    assert abs(kkt.stationarity_residual - expected) <= 1e-12


def test_kkt_residual_confirms_ray_members(ex1):
    vertex = np.array([-1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
    direction = np.array([0.0, -1.0, 0.0, 1.0, -1.0, math.sqrt(2.0)])
    for zeta in (0.0, 7.0):
        resid = kkt_residual(ex1.system, ex1.ground_truth, ex1.case.cost,
                             vertex + zeta * direction)
        assert resid <= 1e-10


def test_kkt_residual_zero_cost_zero_multipliers(ex1):
    zero = CostSpec(c2=np.zeros(8), c1=np.zeros(8))
    assert kkt_residual(ex1.system, ex1.ground_truth, zero,
                        np.zeros(6)) == 0.0


def test_kkt_residual_rejects_wrong_dimension(ex1):
    with pytest.raises(ValueError, match="stack has 6 rows"):
        kkt_residual(ex1.system, ex1.ground_truth, ex1.case.cost, np.zeros(4))


def test_null_space_offsets_preserve_stationarity(ex1, rng):
    kkt = kkt_solve(ex1.system, ex1.ground_truth, ex1.case.cost)
    base = kkt.stationarity_residual
    for _ in range(10):
        z = rng.uniform(-1.0, 1.0, kkt.nullspace_basis.shape[1])
        y = kkt.particular + kkt.nullspace_basis @ z
        resid = kkt_residual(ex1.system, ex1.ground_truth, ex1.case.cost, y)
        assert resid <= 1e-8 + 1e-12
        assert abs(resid - base) <= 1e-12


def test_cost_scaling_scales_multipliers(ex1):
    # the stationarity test is relative to the cost gradient, so a scaled
    # cost keeps its classification (at 1e8 the residual is 1.2e-7)
    cost = ex1.case.cost
    kkt1 = kkt_solve(ex1.system, ex1.ground_truth, cost)
    for factor in (3.7, 1e8):
        scaled = CostSpec(c2=factor * cost.c2, c1=factor * cost.c1)
        kkt2 = kkt_solve(ex1.system, ex1.ground_truth, scaled)
        assert kkt2.classification is kkt1.classification
        scale = factor * np.abs(kkt1.particular).max()
        assert np.abs(kkt2.particular
                      - factor * kkt1.particular).max() <= 1e-12 * scale


def _planted_cost(doc, seed, zero_mu):
    """Solved lattice point, a linear cost with c1[free] = -A^T y, and the
    planted multipliers y: kappa and lambda standard normal, mu drawn in
    [0.1, 1] or, with zero_mu, 0 on the weakly active caps."""
    case, cs, x = _lattice_point(doc)
    a, _, _, _, mask = active_stack(cs, x)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(a.shape[0])
    first_mu = 2 * case.network.n_bus + len(cs.h_ops)
    assert a.shape[0] > first_mu  # the caps are active
    y[first_mu:] = 0.0 if zero_mu else rng.uniform(0.1, 1.0,
                                                   a.shape[0] - first_mu)
    c1 = np.zeros(mask.size)
    c1[mask] = -a.T @ y
    return cs, x, CostSpec(c2=np.zeros(mask.size), c1=c1), y


def test_mu_sign_test_is_relative_to_cost_scale(lattice_document):
    # every mu is 0, so its computed value is rounding noise that grows
    # with the cost (-3e-6 at scale 1e8); the sign test must scale with it
    for seed in range(10):
        cs, x, cost, _ = _planted_cost(lattice_document(8, 8, seed), seed,
                                       zero_mu=True)
        for factor in (1.0, 1e4, 1e8):
            kkt = kkt_solve(cs, x, CostSpec(c2=factor * cost.c2,
                                            c1=factor * cost.c1))
            assert kkt.classification is Classification.UNIQUE
            assert kkt.mu_sign_feasible, (seed, factor, kkt.mu.min())


@pytest.mark.parametrize("rows, cols", [(8, 8), (10, 6)])
def test_planted_multipliers_recovered_at_network_size(lattice_document,
                                                       rows, cols):
    for seed in range(3):
        cs, x, cost, y = _planted_cost(lattice_document(rows, cols, seed),
                                       seed, zero_mu=False)
        kkt = kkt_solve(cs, x, cost)
        assert kkt.classification is Classification.UNIQUE
        assert kkt.mu_sign_feasible
        assert np.abs(kkt.particular - y).max() <= 1e-10 * np.abs(y).max()
        scaled = kkt_solve(cs, x, CostSpec(c2=1e8 * cost.c2, c1=1e8 * cost.c1))
        assert scaled.classification is Classification.UNIQUE
        assert scaled.mu_sign_feasible
        assert (np.abs(scaled.particular - 1e8 * kkt.particular).max()
                <= 1e-10 * 1e8 * np.abs(kkt.particular).max())


def _flow_point(net, rng):
    """System of a network's flow equations alone and a flow solution by
    construction: random voltages, generation set to load plus injection
    (R has no rows)."""
    x = random_state(net, rng)
    p_inj, q_inj = injections(net, x.v, x.theta)
    x = SystemState(p_gen=net.p_load + p_inj, q_gen=net.q_load + q_inj,
                    v=x.v, theta=x.theta)
    return ConstraintSystem(h_ops=(), g_ops=(), net=net), x


def _planted(cs, x, rng):
    """Linear cost with c1[free] = -A^T y for standard normal y."""
    a, _, _, _, mask = active_stack(cs, x)
    c1 = np.zeros(mask.size)
    c1[mask] = -a.T @ rng.standard_normal(a.shape[0])
    return CostSpec(c2=np.zeros(mask.size), c1=c1)


def _tripled_h(ex1):
    """ex1 with its equality row three times: m = 8 > n = 6, rank 5."""
    h = ex1.system.h_ops[0]
    return replace(ex1.system, h_ops=(h, h, h))


def _no_operational(ex1):
    """ex1's flow equations alone: m = 4, every row a pivot row, so R has
    no rows."""
    return replace(ex1.system, h_ops=(), g_ops=())


def _reduced_cases(ex1, ex2, lattice_document):
    """(name, system, point, cost, classification) of the cases the reduced
    check is compared on: m < n, m = n and m > n stacks, R with and
    without rows, and a generation entry pinned by an equality row."""
    shifted = od.system_for_case(shift_load(ex1.case, 1, +0.05))
    shifted_x, _ = nearest_feasible_point(shifted, ex1.ground_truth)
    tripled = _tripled_h(ex1)
    case, lattice, lattice_x = _lattice_point(lattice_document(3, 3, 0))
    big, big_lattice, big_x = _lattice_point(lattice_document(6, 6, 0))
    rng = np.random.default_rng(11)
    flow, flow_x = _flow_point(random_network(4, rng), rng)
    # p_gen at bus 0 held at its value: the row joins R, which is 3 x 2
    pinned = replace(ex1.system, h_ops=(*ex1.system.h_ops, LinearEq(
        terms=((0, 1.0),), offset=float(ex1.ground_truth.p_gen[0]))))
    return [
        ("ex1", ex1.system, ex1.ground_truth, ex1.case.cost,
         Classification.RAY),
        ("ex1-shifted", shifted, shifted_x, ex1.case.cost,
         Classification.UNIQUE),
        ("ex2", ex2.system, ex2.ground_truth, ex2.case.cost,
         Classification.NONE),
        ("family", tripled, ex1.ground_truth,
         _planted(tripled, ex1.ground_truth, np.random.default_rng(3)),
         Classification.FAMILY),
        ("no-rows", _no_operational(ex1), ex1.ground_truth,
         CostSpec(c2=np.zeros(8), c1=np.zeros(8)), Classification.UNIQUE),
        ("lattice", lattice, lattice_x, case.cost, Classification.NONE),
        ("lattice-6x6", big_lattice, big_x, big.cost, Classification.NONE),
        ("netgen-flow", flow, flow_x, _planted(flow, flow_x, rng),
         Classification.UNIQUE),
        ("ex1-pinned-gen", pinned, ex1.ground_truth, ex1.case.cost,
         Classification.RAY),
    ]


def _diag_of_reduced(a, n_bus):
    """diag(I_p, R) of a stack of an N-bus network, p = 2N, built directly
    from its rows and columns."""
    p = 2 * n_bus
    out = np.zeros(a.shape)
    out[:p, :p] = np.eye(p)
    out[p:, p:] = reduced_rows(a, n_bus)
    return out


def test_reduced_check_matches_direct_svd(ex1, ex2, lattice_document):
    # reference: the least-squares multipliers and left null space from a
    # direct SVD of the active stack, classified by the same rules
    for name, cs, x, cost, want in _reduced_cases(ex1, ex2, lattice_document):
        report = licq_check(cs, x, cost)
        a, _, act, flat, mask = active_stack(cs, x)
        assert np.array_equal(a, report.active_jacobian)
        m, n = a.shape
        grad = cost.gradient(flat)[mask]
        u, s, vt = np.linalg.svd(a, full_matrices=m > n)
        rank, _, _ = _rank_from_svals(s, (m, n), ConstraintSystem.rank_ulp_scale)
        y = u[:, :rank] @ (vt[:rank] @ -grad / s[:rank])
        at = np.nonzero(a)
        ref = _multiplier_set(cs, act, Stacks(a.shape, *at, a[at]), grad, y,
                              u[:, rank:])
        kkt = report.kkt
        assert kkt.classification is ref.classification is want, name
        assert report.numerical_rank == rank, name
        assert report.licq_holds is (rank == m), name
        assert kkt.family_dim == ref.family_dim, name
        assert kkt.mu_sign_feasible == ref.mu_sign_feasible, name
        d_s = np.linalg.svd(_diag_of_reduced(a, cs.net.n_bus), compute_uv=False)
        _, d_min, d_tol = _rank_from_svals(d_s, (m, n),
                                           ConstraintSystem.rank_ulp_scale)
        assert report.rank_tol == pytest.approx(d_tol, rel=1e-12, abs=0.0)
        if d_min > d_tol:
            assert report.sigma_min == pytest.approx(d_min, rel=1e-12), name
        else:
            assert report.sigma_min <= report.rank_tol, name
        basis, ref_basis = kkt.nullspace_basis, ref.nullspace_basis
        assert basis.shape == ref_basis.shape, name
        if want is Classification.NONE:
            continue
        size = max(1.0, np.abs(ref.particular).max(initial=0.0))
        assert np.abs(kkt.particular - ref.particular).max(
            initial=0.0) <= 1e-10 * size, name
        assert np.abs(basis @ basis.T - ref_basis @ ref_basis.T).max(
            initial=0.0) <= 1e-10, name
        if want is Classification.RAY:
            sign = 1.0
            if kkt.zeta_interval == (-np.inf, np.inf):
                sign = np.sign(kkt.ray_direction @ ref.ray_direction)
            assert np.abs(sign * kkt.ray_direction - ref.ray_direction).max(
            ) <= 1e-10, name
            assert kkt.zeta_interval == pytest.approx(ref.zeta_interval,
                                                      rel=1e-10), name


def test_rank_matches_direct_svd_beyond_two_buses(lattice_document):
    # the reduced rank p + rank(R) against a direct SVD of the stack, on
    # solved lattices and on random networks with random active rows
    points = []
    for side in range(2, 7):
        for seed in range(10):
            _, cs, x = _lattice_point(lattice_document(side, side, seed))
            points.append((cs, x))
    rng = np.random.default_rng(17)
    for _ in range(20):
        net = random_network(int(rng.integers(2, 7)), rng)
        flow, x = _flow_point(net, rng)
        flat, n = x.flat(), net.n_bus
        h_ops, g_ops = [], []
        for _ in range(int(rng.integers(0, n + 1))):
            kind = rng.integers(3)
            if kind == 0:
                i = int(rng.integers(4 * n))
                g_ops.append(BoxUpper(index=i, bound=float(flat[i])))
            elif kind == 1:
                idx = rng.choice(4 * n, size=3, replace=False)
                coef = rng.standard_normal(3)
                h_ops.append(LinearEq(
                    terms=tuple(zip(idx.tolist(), coef.tolist())),
                    offset=float(coef @ flat[idx])))
            else:
                bus = int(rng.integers(n))
                g_ops.append(ApparentPower(bus=bus, n_bus=n, s2_max=float(
                    flat[bus] ** 2 + flat[n + bus] ** 2)))
        points.append((ConstraintSystem(
            h_ops=tuple(h_ops), g_ops=tuple(g_ops), net=net), x))
    # a planted duplicate of an equality row: both paths see the dependent
    # row (3x3 lattice, m = 26 < n = 34 without it)
    cs, x = points[10]
    points.append((replace(cs, h_ops=cs.h_ops + cs.h_ops[:1]), x))
    with_rows = 0
    for cs, x in points:
        report = licq_check(cs, x)
        with_rows += report.m > 2 * cs.net.n_bus
        assert report.numerical_rank == numerical_rank(
            report.active_jacobian)[0]
    assert with_rows > len(points) // 2
    assert not report.licq_holds and report.m < report.n_free
    assert report.numerical_rank == report.m - 1


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
    sol = solve_power_flow(net, np.array([0.0, -1.5]),
                           np.array([0.0, 0.5]), pf_tol=1e-10)
    report = licq_check(ex1.system, sol.state)
    assert report.licq_holds
    kkt = kkt_solve(ex1.system, sol.state, ex1.case.cost)
    assert kkt.classification in (Classification.UNIQUE, Classification.NONE)


def test_unique_multiplier_on_simple_active_box(ex1):
    # a cap on p_gen[1] at its value; the cost c1 = -A^T e_box makes its
    # multiplier exactly 1 and every flow multiplier 0
    x = ex1.ground_truth
    cs = replace(ex1.system, h_ops=(),
                 g_ops=(BoxUpper(index=1, bound=x.p_gen[1]),))
    cost = CostSpec(c2=np.zeros(8), c1=-np.eye(8)[1])
    kkt = _checked_null_space(cs, x, cost)
    assert kkt.classification is Classification.UNIQUE
    assert np.abs(kkt.mu - [1.0]).max() <= 1e-12
    assert kkt.mu_sign_feasible


def test_empty_active_stack(ex1):
    # no operational row: the four flow rows are pivot rows, R has no rows
    # and nothing is factored
    cs = _no_operational(ex1)
    zero = CostSpec(c2=np.zeros(8), c1=np.zeros(8))
    report = licq_check(cs, ex1.ground_truth, zero)
    assert report.m == 4 and report.licq_holds
    assert report.sigma_min == 1.0
    assert report.row_labels == ("flow:p:0", "flow:p:1", "flow:q:0",
                                 "flow:q:1")
    assert report.kkt.classification is Classification.UNIQUE
    assert report.kkt.mu_sign_feasible
    assert report.kkt.nullspace_basis.shape == (4, 0)
    # a cost on theta_1, which no flow multiplier can balance
    tilted = CostSpec(c2=np.zeros(8), c1=0.5 * np.eye(8)[7])
    kkt = kkt_solve(cs, ex1.ground_truth, tilted)
    assert kkt.classification is Classification.NONE
    assert kkt.stationarity_residual == 0.5
    assert kkt.particular.shape == (4,) and kkt.mu.shape == (0,)
    assert kkt.mu_sign_feasible is None


def test_family_classification_for_higher_nullity(ex1):
    cs = _tripled_h(ex1)
    cost = _planted(cs, ex1.ground_truth, np.random.default_rng(3))
    # m = 8 > n = 6: the null space needs U past its thin columns
    kkt = _checked_null_space(cs, ex1.ground_truth, cost)
    assert kkt.classification is Classification.FAMILY
    assert kkt.family_dim == 3
    assert kkt.nullspace_basis.shape == (8, 3)
    assert kkt.stationarity_residual <= 1e-12


def test_costed_check_matches_values_only_check(ex1):
    plain = licq_check(ex1.system, ex1.ground_truth)
    costed = licq_check(ex1.system, ex1.ground_truth, ex1.case.cost)
    assert plain.kkt is None
    assert costed.kkt.classification is Classification.RAY
    a, b = plain.to_dict(), costed.to_dict()
    assert b.keys() == a.keys() and "kkt" not in b
    assert abs(b.pop("sigma_min") - a.pop("sigma_min")) <= 1e-15
    assert b.pop("rank_tol") == pytest.approx(a.pop("rank_tol"), rel=1e-12)
    assert b == a


def _bands_only(doc):
    """A lattice document with its voltage bands alone: at the solved
    point no band is active, so R has no rows."""
    doc["constraints"] = [c for c in doc["constraints"]
                          if c["target"] and c["target"]["var"] == "v"]
    return doc


def _face_free_block(lattice_document, k, rng):
    """A 4x4 lattice with its voltage bands alone and a block of k flow
    solutions by construction strictly inside them: every point is feasible
    on the empty face, so R has no rows. Returns (cs, states, flats, flow)."""
    doc = _bands_only(lattice_document(4, 4, 0))
    cs = od.system_for_case(od.load_case(doc))
    net = cs.net
    states = []
    for _ in range(k):
        v = rng.uniform(0.95, 1.05, net.n_bus)
        theta = rng.uniform(-0.2, 0.2, net.n_bus)
        p_inj, q_inj = injections(net, v, theta)
        states.append(SystemState(p_gen=net.p_load + p_inj,
                                  q_gen=net.q_load + q_inj, v=v, theta=theta))
    flats = np.stack([x.flat() for x in states])
    flow = tuple(np.repeat(a, k, axis=0) for a in point_block(cs, states[0])[1])
    return cs, states, flats, flow


def test_face_free_block_without_cost_assembles_nothing(lattice_document, rng,
                                                        monkeypatch):
    # no h row and an empty face: the verdict is decided by structure, and
    # a report's stack is assembled only when it is read, bit for bit the
    # one-point stack
    cs, states, flats, flow = _face_free_block(lattice_document, 5, rng)
    plans, svds = [], []
    real_plan, real_svd = cqkit.flow_rows, np.linalg.svd
    monkeypatch.setattr(cqkit, "flow_rows",
                        lambda *a, **kw: plans.append(a) or real_plan(*a, **kw))
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **kw: svds.append(a) or real_svd(*a, **kw))
    verdicts = licq_checks(cs, flats, flow)
    reports = [verdicts.report(i) for i in range(len(flats))]
    assert plans == [] and svds == []
    assert all(r.face == () and r.licq_holds and r.m == 32 for r in reports)
    stacks = [r.active_jacobian for r in reports]
    assert len(plans) == 1      # one plan for the block, made at first read
    for stack, x in zip(stacks, states):
        a = active_stack(cs, x)[0]
        assert stack.shape == a.shape and stack.tobytes() == a.tobytes()
    assert all(r.active_jacobian is s for r, s in zip(reports, stacks))


@pytest.mark.parametrize("scale", [2.0 ** -52, 1e-3, 0.2])
def test_structural_reports_match_the_costed_path(lattice_document, rng,
                                                  scale):
    # the costed check assembles the stacks and merges R's (absent) singular
    # values with the p unit ones: the structural verdict is the same at any
    # rank scale, and at 0.2 the unit values fall under the tolerance
    cs, _, flats, flow = _face_free_block(lattice_document, 4, rng)
    cs = replace(cs, rank_ulp_scale=scale)
    n = flats.shape[1]
    cost = CostSpec(c2=np.ones(n), c1=np.zeros(n))
    structural = licq_checks(cs, flats, flow)
    costed = licq_checks(cs, flats, flow, cost)
    for i in range(len(flats)):
        a, b = structural.report(i), costed.report(i)
        assert a.kkt is None and b.kkt is not None
        for name in ("m", "n_free", "numerical_rank", "sigma_min",
                     "rank_tol", "licq_holds"):
            assert getattr(a, name) == getattr(b, name), name
        assert a.sigma_min == 1.0
        assert a.licq_holds is (scale != 0.2)


def test_cq_report_serializes(ex1):
    report = licq_check(ex1.system, ex1.ground_truth)
    payload = report.to_dict()
    assert payload["numerical_rank"] == 5
    assert payload["row_labels"][0] == "flow:p:0"
    import json

    json.dumps(payload)  # must be valid JSON content


def test_cq_report_writes_nonzero_triplets():
    # every entry is an explicit triplet; -0.0 compares equal to 0.0, so
    # it is dropped like +0.0: the rebuilt matrix has +0.0 there and signed
    # zeros are not preserved, while the report's own stack keeps them
    a = np.array([[0.0, 2.5, -0.0],
                  [-1.0, 0.0, 0.0],
                  [0.0, 0.0, 1e-300]])
    rows, cols = np.divmod(np.arange(9), 3)
    report = CQReport(assemble=lambda: Stacks((3, 3), rows, cols, a.ravel()),
                      row_labels=("a", "b", "c"), m=3, n_free=3,
                      numerical_rank=3, sigma_min=1e-300, rank_tol=0.0,
                      licq_holds=True, face=())
    assert report.active_jacobian.tobytes() == a.tobytes()
    coo = report.to_dict()["active_jacobian"]
    assert coo == {"shape": [3, 3], "rows": [0, 1, 2], "cols": [1, 0, 2],
                   "values": [2.5, -1.0, 1e-300]}
    rebuilt = np.zeros(coo["shape"])
    rebuilt[coo["rows"], coo["cols"]] = coo["values"]
    assert (rebuilt == a).all()
    assert not np.signbit(rebuilt[0, 2])


def _sparse_cases(ex1, ex2, ex3, lattice_document):
    """(name, system, point, cost) of the sparse-stack tests: the three
    fixtures, ex3 with a zero apparent-power cap at a point where p_gen[1]
    is -0.0 (its gradient row holds a -0.0), and the 6x6 lattice with its
    linear_eq pins (R has rows) and with its voltage bands alone (R has no
    rows)."""
    points = [(name, fix.case, fix.system, fix.ground_truth)
              for name, fix in (("ex1", ex1), ("ex2", ex2), ("ex3", ex3))]
    flat = ex3.ground_truth.flat()
    flat[1] = -0.0
    points.append(("ex3-signed-cap", ex3.case, replace(
        ex3.system, g_ops=(ApparentPower(bus=1, n_bus=2, s2_max=0.0),)),
        SystemState.from_flat(flat)))
    for name, doc in (
            ("lattice-pinned", lattice_document(6, 6, 0)),
            ("lattice-bands", _bands_only(lattice_document(6, 6, 0)))):
        points.append((name, *_lattice_point(doc)))
    # each case's own cost, as ``check`` reads it
    return [(name, cs, x, case.cost) for name, case, cs, x in points]


def _dense_stack(cs, x, face):
    """The active stack assembled dense: the flow rows scattered by
    ``flow_rows`` into a zeroed array, then every h and face g gradient."""
    flat, mask = x.flat(), cs.net.free_mask
    flow = flow_rows(cs.net, None, mask)(*cs.net.admittances,
                                         flat[None])[0]
    ops = (*cs.h_ops, *(cs.g_ops[j] for j in face))
    return np.concatenate([flow, *(op.gradient(flat)[mask][None]
                                   for op in ops)])


def test_sparse_stack_is_the_dense_stack(ex1, ex2, ex3, lattice_document):
    # the report holds its stack as triplets with the plan's explicit
    # entries, so the densified stack is bitwise the dense assembly, -0.0
    # entries included (ex3 has three); the written triplets are the
    # dense stack's nonzeros, row-major
    signed_zeros = {}
    for name, cs, x, cost in _sparse_cases(ex1, ex2, ex3, lattice_document):
        report = licq_check(cs, x, cost)
        a = _dense_stack(cs, x, report.face)
        for got in (report.active_jacobian, active_stack(cs, x)[0]):
            assert got.shape == a.shape and got.tobytes() == a.tobytes(), name
        signed_zeros[name] = int(np.signbit(a[a == 0]).sum())
        stack = report.stack
        assert stack.shape == a.shape, name
        assert (np.diff(stack.rows * a.shape[1] + stack.cols) > 0).all(), name
        coo = report.to_dict()["active_jacobian"]
        rows, cols = np.nonzero(a)
        assert coo == {"shape": list(a.shape), "rows": rows.tolist(),
                       "cols": cols.tolist(),
                       "values": a[rows, cols].tolist()}, name
    assert signed_zeros["ex3"] == 3 and signed_zeros["ex3-signed-cap"] == 4
    # R has rows on the pinned lattice and none with the bands alone
    assert {name: licq_check(cs, x).m > 2 * cs.net.n_bus for name, cs, x, _
            in _sparse_cases(ex1, ex2, ex3, lattice_document)} == {
        "ex1": True, "ex2": True, "ex3": False, "ex3-signed-cap": True,
        "lattice-pinned": True, "lattice-bands": False}


def test_stationarity_residual_matches_the_dense_product(ex1, ex2, ex3,
                                                         lattice_document):
    # the residual summed over the triplets against the dense
    # |A^T y + grad f| of ``kkt_residual``, relative to the cost scale
    # max(1, |grad f|), the scale of the classification's tolerances
    for name, cs, x, cost in _sparse_cases(ex1, ex2, ex3, lattice_document):
        kkt = licq_check(cs, x, cost).kkt
        grad = cost.gradient(x.flat())[cs.net.free_mask]
        scale = max(1.0, float(np.linalg.norm(grad)))
        dense = kkt_residual(cs, x, cost, kkt.particular)
        assert abs(kkt.stationarity_residual - dense) <= 1e-12 * scale, name


def test_costed_check_without_reduced_rows_holds_no_dense_stack(
        lattice_document):
    # a 24x24 lattice: a costed check whose R has no rows keeps its stack
    # as triplets and allocates no dense 1152 x 2302 stack (21 MB)
    case, cs, x = _lattice_point(_bands_only(lattice_document(24, 24, 0)))
    tracemalloc.start()
    try:
        report = licq_check(cs, x, case.cost)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (report.m, report.n_free, report.face) == (1152, 2302, ())
    assert report.kkt is not None and report.licq_holds
    assert peak < report.m * report.n_free * 8 / 3
