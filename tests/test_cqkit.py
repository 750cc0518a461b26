import json
import math

import numpy as np
import pytest

import opfdiag as od
from netgen import injections, random_network, random_state
from opfdiag.constraints import (ApparentPower, BoxUpper, ConstraintSystem,
                                 InfeasiblePointError, LinearEq, evaluate)
from opfdiag.cqkit import (DEFAULT_RANK_ULP_SCALE, DEFAULT_STAT_TOL,
                           Classification, CostSpec, CQReport, _multiplier_set,
                           _rank_from_svals, active_stack, kkt_residual,
                           kkt_solve, licq_check, numerical_rank)
from opfdiag.netmodel import build_ybus
from opfdiag.perturb import nearest_feasible_point, shift_load
from opfdiag.powerflow import (SystemState, free_mask_from_bus_types,
                               solve_power_flow)


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


def _lattice_point(doc):
    """System of a lattice case document and its solved power flow."""
    case = od.load_case(json.dumps(doc))
    cs = od.system_for_case(case)
    x = solve_power_flow(case.network, cs.Y, case.gen_p, case.gen_q).state
    return case, cs, x


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
    state = SystemState.from_flat(ex3.ground_truth.flat(),
                                  np.ones(8, dtype=bool))
    report = licq_check(od.system_for_case(ex3.case), state)
    assert report.m == 4 and report.n_free == 8
    assert report.licq_holds


def test_licq_rejects_infeasible_point(ex1):
    bad = SystemState.from_flat(ex1.ground_truth.flat() + 0.05,
                                ex1.ground_truth.free_mask)
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
            noise = scale * rng.standard_normal(cs.n_state)
            noise *= rng.uniform(size=cs.n_state) < 0.5
            state = SystemState.from_flat(x.flat() + noise, x.free_mask)
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
    shifted = shift_load(ex1.case, 1, +0.05)
    cs = od.system_for_case(shifted)
    state, pinned = nearest_feasible_point(cs, ex1.ground_truth)
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
        scaled = CostSpec(c2=factor * ex1.cost.c2, c1=factor * ex1.cost.c1)
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
    c1 = np.zeros(cs.n_state)
    c1[mask] = -a.T @ y
    return cs, x, CostSpec(c2=np.zeros(cs.n_state), c1=c1), y


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
    construction: random voltages, generation set to load plus injection,
    every entry free (so n_z = 2N and R has no rows)."""
    x = random_state(net, rng)
    Y = build_ybus(net)
    p_inj, q_inj = injections(Y, x.v, x.theta)
    x = SystemState(p_gen=net.p_load + p_inj, q_gen=net.q_load + q_inj,
                    v=x.v, theta=x.theta, free_mask=x.free_mask)
    return ConstraintSystem(h_ops=(), g_ops=(), n_state=4 * net.n_bus,
                            net=net, Y=Y), x


def _planted(cs, x, rng):
    """Linear cost with c1[free] = -A^T y for standard normal y."""
    a, _, _, _, mask = active_stack(cs, x)
    c1 = np.zeros(cs.n_state)
    c1[mask] = -a.T @ rng.standard_normal(a.shape[0])
    return CostSpec(c2=np.zeros(cs.n_state), c1=c1)


def _reduced_cases(ex1, ex2, lattice_document):
    """(name, system, point, cost, classification) of the cases the reduced
    check is compared on: m < n, m = n, m > n and m = 0 stacks, R with and
    without rows, and a flow row whose generation entry is fixed."""
    shifted = od.system_for_case(shift_load(ex1.case, 1, +0.05))
    shifted_x, _ = nearest_feasible_point(shifted, ex1.ground_truth)
    h = LinearEq(terms=((0, 1.0),), offset=0.0)
    box = ConstraintSystem.operational(
        (), (BoxUpper(index=0, bound=1.0),), n_state=1)
    case, lattice, lattice_x = _lattice_point(lattice_document(3, 3, 0))
    big, big_lattice, big_x = _lattice_point(lattice_document(6, 6, 0))
    red = ex2.reduced
    rng = np.random.default_rng(11)
    flow, flow_x = _flow_point(random_network(4, rng), rng)
    mask = ex1.ground_truth.free_mask.copy()
    mask[0] = False  # p_gen at bus 0: its flow row joins R
    pinned_x = SystemState.from_flat(ex1.ground_truth.flat(), mask)
    return [
        ("ex1", ex1.system, ex1.ground_truth, ex1.cost, Classification.RAY),
        ("ex1-shifted", shifted, shifted_x, ex1.cost, Classification.UNIQUE),
        ("ex2-reduced", red.system, red.point, red.probe_cost,
         Classification.NONE),
        ("family", ConstraintSystem.operational((h, h, h), (), n_state=2),
         np.array([0.0, 0.3]), CostSpec(c2=np.zeros(2), c1=np.array([1.0, 0.0])),
         Classification.FAMILY),
        ("empty", box, np.array([0.0]),
         CostSpec(c2=np.zeros(1), c1=np.zeros(1)), Classification.UNIQUE),
        ("lattice", lattice, lattice_x,
         CostSpec.from_terms(case.cost, case.network.n_bus),
         Classification.NONE),
        ("lattice-6x6", big_lattice, big_x,
         CostSpec.from_terms(big.cost, big.network.n_bus),
         Classification.NONE),
        ("netgen-all-free", flow, flow_x, _planted(flow, flow_x, rng),
         Classification.UNIQUE),
        ("ex1-fixed-gen", ex1.system, pinned_x, ex1.cost, Classification.RAY),
    ]


def _diag_of_reduced(a, mask, n_flow):
    """diag(I_p, R) of a stack, built directly from its rows and columns."""
    pivots = np.flatnonzero(mask[:n_flow])
    p = pivots.size
    others = np.setdiff1d(np.arange(a.shape[0]), pivots)
    r = a[others, p:] - a[others, :p] @ a[pivots, p:]
    out = np.zeros(a.shape)
    out[:p, :p] = np.eye(p)
    out[p:, p:] = r
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
        rank, _, _ = _rank_from_svals(s, (m, n), DEFAULT_RANK_ULP_SCALE)
        y = u[:, :rank] @ (vt[:rank] @ -grad / s[:rank])
        ref = _multiplier_set(cs, act, a, grad, y, u[:, rank:],
                              DEFAULT_STAT_TOL)
        kkt = report.kkt
        assert kkt.classification is ref.classification is want, name
        assert report.numerical_rank == rank, name
        assert report.licq_holds is (rank == m), name
        assert kkt.family_dim == ref.family_dim, name
        assert kkt.mu_sign_feasible == ref.mu_sign_feasible, name
        n_flow = 2 * cs.net.n_bus if cs.has_flow else 0
        d_s = np.linalg.svd(_diag_of_reduced(a, mask, n_flow),
                            compute_uv=False)
        _, d_min, d_tol = _rank_from_svals(d_s, (m, n), DEFAULT_RANK_ULP_SCALE)
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
        x = SystemState.from_flat(x.flat(), free_mask_from_bus_types(net))
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
            h_ops=tuple(h_ops), g_ops=tuple(g_ops), n_state=4 * n, net=net,
            Y=flow.Y), x))
    # a planted duplicate of an equality row: both paths see the dependent
    # row (3x3 lattice, m = 26 < n = 34 without it)
    cs, x = points[10]
    points.append((ConstraintSystem(
        h_ops=cs.h_ops + cs.h_ops[:1], g_ops=cs.g_ops, n_state=cs.n_state,
        net=cs.net, Y=cs.Y), x))
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
