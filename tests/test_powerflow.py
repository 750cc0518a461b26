import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opfdiag as od
from opfdiag import powerflow
from opfdiag.cli import EXIT_INFEASIBLE, EXIT_OK, main
from opfdiag.constraints import system_for_case
from opfdiag.cqkit import (DEFAULT_STAT_TOL, Classification, CostSpec,
                          active_stack, kkt_residual, licq_check)
from opfdiag.netmodel import (AdmittanceMatrix, Bus, BusType, Case, Line,
                              Network, admittance_stack, build_ybus, load_case)
from opfdiag.perturb import apply_parameters, make_model
from opfdiag.powerflow import (MAX_ITER, DivergenceError, NonConvergenceError,
                               PowerFlowError, SingularNewtonError,
                               SystemState, _jacobian,
                               free_mask_from_bus_types, flow_rows,
                               newton_states, pf_jacobian, pf_residual,
                               solve_power_flow, state_from_list)

from netgen import injections, random_network, random_state, trial_draw


def finite_difference_jacobian(net, Y, x, step=1e-6):
    flat = x.flat()
    fd = np.zeros((2 * net.n_bus, flat.size))
    for j in range(flat.size):
        up, dn = flat.copy(), flat.copy()
        up[j] += step
        dn[j] -= step
        fd[:, j] = (
            pf_residual(net, Y, SystemState.from_flat(up, x.free_mask))
            - pf_residual(net, Y, SystemState.from_flat(dn, x.free_mask))
        ) / (2.0 * step)
    return fd


def test_residual_vanishes_at_ex1_operating_point(ex1):
    net = ex1.case.network
    r = pf_residual(net, build_ybus(net), ex1.ground_truth)
    assert np.abs(r).max() <= 1e-12


def test_residual_zero_at_flat_no_load_profile(ex3):
    net = ex3.case.network
    r = pf_residual(net, build_ybus(net), ex3.ground_truth)
    assert np.abs(r).max() == 0.0


def test_residual_single_isolated_bus_cancels():
    net = Network(buses=(Bus(id=0, bus_type=BusType.SLACK,
                             p_load=0.3, q_load=-0.2),), lines=())
    x = SystemState(p_gen=np.array([0.3]), q_gen=np.array([-0.2]),
                    v=np.array([1.0]), theta=np.array([0.0]),
                    free_mask=np.ones(4, dtype=bool))
    r = pf_residual(net, build_ybus(net), x)
    assert np.abs(r).max() == 0.0


def test_jacobian_reduced_columns_match_closed_form(ex1):
    # 4 flow rows over (p1, p2, q1, q2, v2, th2) at the tangent point,
    # where sin = cos = sqrt(2)/2 and v2 = sqrt(2)
    net = ex1.case.network
    jac = pf_jacobian(net, build_ybus(net), ex1.ground_truth)
    reduced = jac[:, ex1.ground_truth.free_mask]
    s = math.sqrt(2.0) / 2.0
    v2 = math.sqrt(2.0)
    expected = np.array([
        [1.0, 0.0, 0.0, 0.0, s, v2 * s],
        [0.0, 1.0, 0.0, 0.0, -s, -v2 * s],
        [0.0, 0.0, 1.0, 0.0, s, -v2 * s],
        [0.0, 0.0, 0.0, 1.0, s - 2.0 * v2, -v2 * s],
    ])
    assert np.abs(reduced - expected).max() <= 1e-12


def test_jacobian_generation_blocks_are_exact_identities(rng):
    net = random_network(4, rng)
    x = random_state(net, rng)
    jac = pf_jacobian(net, build_ybus(net), x)
    n = net.n_bus
    assert np.array_equal(jac[:n, :n], np.eye(n))
    assert np.array_equal(jac[n:, n:2 * n], np.eye(n))
    assert np.array_equal(jac[:n, n:2 * n], np.zeros((n, n)))
    assert np.array_equal(jac[n:, :n], np.zeros((n, n)))


def test_jacobian_matches_finite_differences_100_trials():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        net = random_network(3, rng)
        Y = build_ybus(net)
        x = random_state(net, rng)
        jac = pf_jacobian(net, Y, x)
        fd = finite_difference_jacobian(net, Y, x)
        err = np.abs(jac - fd) / np.maximum(1.0, np.abs(jac))
        worst = max(worst, err.max())
    assert worst <= 1e-6


angles = st.floats(min_value=-1.2, max_value=1.2,
                   allow_nan=False, allow_infinity=False)
mags = st.floats(min_value=0.5, max_value=1.5,
                 allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(v1=mags, v2=mags, t1=angles, t2=angles,
       b=st.floats(min_value=-5.0, max_value=-0.1))
def test_lossless_two_bus_injections_antisymmetric(v1, v2, t1, t2, b):
    net = Network(
        buses=(Bus(id=0, bus_type=BusType.SLACK), Bus(id=1, bus_type=BusType.PQ)),
        lines=(Line(0, 1, g_series=0.0, b_series=b),))
    p_inj, _ = injections(build_ybus(net), np.array([v1, v2]),
                          np.array([t1, t2]))
    assert abs(p_inj[0] + p_inj[1]) <= 1e-12


def test_newton_reaches_high_voltage_branch(ex1):
    net = ex1.case.network
    sol = solve_power_flow(net, build_ybus(net), ex1.case.gen_p,
                           ex1.case.gen_q)
    assert sol.iterations <= 10
    assert abs(sol.state.v[1] - math.sqrt(2.0)) <= 1e-9
    assert abs(sol.state.theta[1] - math.pi / 4.0) <= 1e-9
    # the post-condition re-checked through the residual path
    assert np.abs(pf_residual(net, build_ybus(net), sol.state)).max() <= 1e-10


def test_newton_flat_profile_is_immediate(ex3):
    net = ex3.case.network
    sol = solve_power_flow(net, build_ybus(net), np.zeros(2), np.zeros(2))
    assert sol.iterations <= 1
    assert np.abs(sol.state.v - 1.0).max() == 0.0


def zero_load_two_bus():
    return Network(
        buses=(Bus(id=0, bus_type=BusType.SLACK), Bus(id=1, bus_type=BusType.PQ)),
        lines=(Line(0, 1, g_series=0.0, b_series=-1.0),))


def test_newton_fails_beyond_transferable_power():
    # under q = p coupling the nose sits at (sqrt(2) - 1) / 2 ~ 0.2071;
    # verified by the parameter sweep below
    net = zero_load_two_bus()
    Y = build_ybus(net)
    with pytest.raises(NonConvergenceError) as info:
        solve_power_flow(net, Y, np.array([0.0, -2.0]), np.array([0.0, -2.0]))
    assert info.value.history  # iteration trace carried in the error
    for t, expect_ok in ((0.1, True), (0.2, True), (0.25, False), (0.5, False)):
        setp = (np.array([0.0, -t]), np.array([0.0, -t]))
        if expect_ok:
            sol = solve_power_flow(net, Y, *setp)
            assert np.abs(pf_residual(net, Y, sol.state)).max() <= 1e-10
        else:
            with pytest.raises(NonConvergenceError):
                solve_power_flow(net, Y, *setp)


def test_newton_result_feasible_over_random_setpoint_sweep():
    net = zero_load_two_bus()
    Y = build_ybus(net)
    rng = np.random.default_rng(11)
    for _ in range(20):
        t = rng.uniform(0.01, 0.15)
        sol = solve_power_flow(net, Y, np.array([0.0, -t]),
                               np.array([0.0, -t]))
        assert np.abs(pf_residual(net, Y, sol.state)).max() <= 1e-10


def test_newton_singular_matrix_flagged_as_degenerate():
    # an isolated PQ bus gives a zero row in the reduced system; asking it
    # to absorb power makes the Newton matrix singular at the start
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        net = Network(
            buses=(Bus(id=0, bus_type=BusType.SLACK),
                   Bus(id=1, bus_type=BusType.PQ),
                   Bus(id=2, bus_type=BusType.PQ, p_load=0.5)),
            lines=(Line(0, 1, 0.0, -1.0),))
    from opfdiag.powerflow import SingularNewtonError

    with pytest.raises(SingularNewtonError, match="degeneracy"):
        solve_power_flow(net, build_ybus(net), np.zeros(3), np.zeros(3))


def test_newton_pv_bus_holds_voltage_and_recovers_reactive():
    net = pv_three_bus()
    Y = build_ybus(net)
    sol = solve_power_flow(net, Y, np.array([0.0, 0.3, 0.0]), np.zeros(3))
    assert sol.state.v[1] == 1.02
    assert np.abs(pf_residual(net, Y, sol.state)).max() <= 1e-10
    # PV real setpoint held, reactive output recovered
    assert sol.state.p_gen[1] == 0.3
    assert sol.state.q_gen[1] != 0.0
    mask = sol.state.free_mask
    assert not mask[2 * 3 + 1]  # PV voltage eliminated


def pv_three_bus():
    return Network(
        buses=(Bus(id=0, bus_type=BusType.SLACK, v_setpoint=1.0),
               Bus(id=1, bus_type=BusType.PV, v_setpoint=1.02),
               Bus(id=2, bus_type=BusType.PQ, p_load=0.4, q_load=0.1)),
        lines=(Line(0, 1, 0.2, -4.0), Line(1, 2, 0.1, -3.0),
               Line(0, 2, 0.15, -2.5)))


@pytest.mark.parametrize("name", ["ex1", "pv3"])
def test_newton_path_is_pinned_bitwise(ex1, name):
    # iterates recorded from the solver before it moved onto
    # pf_residual/pf_jacobian; any reordering of the Newton system shows
    # up here as a changed bit
    if name == "ex1":
        net, p_gen, q_gen = ex1.case.network, ex1.case.gen_p, ex1.case.gen_q
        iterations = 6
        history = (1.0, 1.9193953882637205, 0.3183378219040571,
                   0.02214628944001018, 0.0008208778587612819,
                   2.011318311234689e-06, 1.1308731728831845e-11)
        flat = [1.0000000000113087, -1.0, -2.795097486796294e-11, 1.0,
                1.0, 1.4142135623848628, 0.0, 0.7853981633778184]
    else:
        net, p_gen, q_gen = pv_three_bus(), np.array([0.0, 0.3, 0.0]), np.zeros(3)
        iterations = 4
        history = (0.398, 0.014447718954869557, 4.4692031818088784e-05,
                   4.430472377858763e-10, 1.2490009027033011e-15)
        flat = [0.10149047975709251, 0.3, 0.0, -0.04776759957815857,
                0.18271332577178667, 0.0, 1.0, 1.02, 0.9866175499500538,
                0.0, 0.013729888547051447, -0.06457711233285712]
    sol = solve_power_flow(net, build_ybus(net), p_gen, q_gen)
    assert sol.iterations == iterations
    assert sol.history == history
    assert sol.state.flat().tolist() == flat


def test_newton_stops_at_non_finite_mismatch():
    # the first step overshoots to ~1e300 and the next mismatch overflows
    net = Network(
        buses=(Bus(id=0, bus_type=BusType.SLACK),
               Bus(id=1, bus_type=BusType.PQ, p_load=1e300)),
        lines=(Line(0, 1, g_series=0.0, b_series=-1.0),))
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as info:
            solve_power_flow(net, build_ybus(net), np.zeros(2), np.zeros(2))
    assert isinstance(info.value, NonConvergenceError)
    assert len(info.value.history) - 1 < MAX_ITER
    assert not np.isfinite(info.value.mismatch)


def test_nonconvergence_message_text():
    # the message is formatted when read, with the text of the eager format
    exc = NonConvergenceError("power flow did not converge",
                              [1.0, 0.5, 2.5e-3], 2.5e-3)
    assert str(exc) == (
        "power flow did not converge: final mismatch 2.500e-03 after 3 "
        "iterations; trace ['1.000e+00', '5.000e-01', '2.500e-03']")
    exc = DivergenceError(
        "power flow diverged: non-finite mismatch at iteration 2",
        [0.5, 1e300, math.inf], math.inf)
    assert str(exc) == (
        "power flow diverged: non-finite mismatch at iteration 2: final "
        "mismatch inf after 3 iterations; trace ['5.000e-01', '1.000e+300', "
        "'inf']")
    net = zero_load_two_bus()
    with pytest.raises(NonConvergenceError) as info:
        solve_power_flow(net, build_ybus(net), np.array([0.0, -2.0]),
                         np.array([0.0, -2.0]))
    history = info.value.history
    assert len(history) == MAX_ITER + 1
    assert str(info.value) == (
        f"power flow did not converge: final mismatch {history[-1]:.3e} "
        f"after {MAX_ITER + 1} iterations; trace "
        f"{['%.3e' % h for h in history]}")


def solve_stacked(net, ys, nets, p_gen, q_gen):
    """newton_states on the stacked trials, as (state row, outcome,
    history row) per trial."""
    x, outcome, errs = newton_states(
        net, np.stack([y.G for y in ys]), np.stack([y.B for y in ys]),
        np.stack([n.p_load for n in nets]), np.stack([n.q_load for n in nets]),
        p_gen, q_gen)
    return list(zip(x, outcome, errs))


def assert_same_outcome(stacked, net, Y, p_gen, q_gen):
    x, out, errs = stacked
    try:
        solo = solve_power_flow(net, Y, p_gen, q_gen)
    except PowerFlowError as exc:
        assert type(out) is type(exc)
        assert out.args == exc.args
        if isinstance(exc, NonConvergenceError):
            assert str(out) == str(exc)
            assert np.array_equal(out.history, exc.history, equal_nan=True)
            assert np.array_equal(errs[:len(exc.history)], exc.history,
                                  equal_nan=True)
        return False
    assert out == solo.iterations
    assert tuple(errs[:out + 1].tolist()) == solo.history
    assert x.tolist() == solo.state.flat().tolist()
    return True


@pytest.mark.parametrize("source,kind,trials", [
    ("ex1", "load", 200), ("pv3", "shunt", 60), ("pv3", "line", 60)])
def test_stacked_newton_matches_one_trial_solves(ex1, source, kind, trials):
    if source == "ex1":
        case = ex1.case
    else:
        case = Case(network=pv_three_bus(), gen_p=np.array([0.0, 0.3, 0.0]),
                    gen_q=np.zeros(3))
    model = make_model(kind, case)
    nets = [apply_parameters(model, case, trial_draw(42, t, model.box)).network
            for t in range(trials)]
    ys = [build_ybus(net) for net in nets]
    outs = solve_stacked(case.network, ys, nets, case.gen_p, case.gen_q)
    converged = [assert_same_outcome(out, net, y, case.gen_p, case.gen_q)
                 for out, net, y in zip(outs, nets, ys)]
    if source == "ex1":
        # the load box reaches beyond the nose curve
        assert 0 < sum(converged) < trials
    else:
        assert all(converged)


def test_stacked_newton_isolates_a_singular_trial():
    net = pv_three_bus()
    p_gen = np.array([0.0, 0.3, 0.0])
    Y = build_ybus(net)
    dead = AdmittanceMatrix(G=np.zeros((3, 3)), B=np.zeros((3, 3)))
    ys = [Y, dead, Y, dead, Y]
    outs = solve_stacked(net, ys, [net] * 5, p_gen, np.zeros(3))
    for i in (1, 3):
        assert isinstance(outs[i][1], SingularNewtonError)
        assert "iteration 0" in str(outs[i][1])
    for i in (0, 2, 4):
        assert assert_same_outcome(outs[i], net, Y, p_gen, np.zeros(3))


def test_state_round_trip_through_flat_json(ex1):
    net = ex1.case.network
    text = json.dumps(ex1.ground_truth.flat().tolist())
    back = state_from_list(json.loads(text), net)
    assert np.array_equal(back.flat(), ex1.ground_truth.flat())
    assert np.array_equal(back.free_mask, ex1.ground_truth.free_mask)


def test_free_mask_from_bus_types(ex1):
    mask = free_mask_from_bus_types(ex1.case.network)
    # slack v and theta eliminated; all generation entries free
    assert mask.tolist() == [True, True, True, True, False, True, False, True]


def test_state_arrays_are_read_only(ex1):
    with pytest.raises(ValueError):
        ex1.ground_truth.v[0] = 2.0


# ---------------------------------------------------------------------------
# Flow Jacobian rows: line-list assembly against the dense reference
# ---------------------------------------------------------------------------

def newton_selection(net):
    """Rows and columns of the Newton matrix, in newton_states' order."""
    n = net.n_bus
    mask = free_mask_from_bus_types(net)
    free_v, free_t = mask[2 * n:3 * n], mask[3 * n:]
    rows = np.concatenate([np.flatnonzero(free_t), n + np.flatnonzero(free_v)])
    cols = np.concatenate([3 * n + np.flatnonzero(free_t),
                           2 * n + np.flatnonzero(free_v)])
    return rows, cols


def with_pv_bus(net, bus):
    buses = list(net.buses)
    buses[bus] = replace(buses[bus], bus_type=BusType.PV, v_setpoint=1.03)
    return Network(buses=tuple(buses), lines=net.lines)


@pytest.mark.parametrize("network", [3, 20, 64, 70, "ex1", "ex2", "ex3"])
def test_line_jacobian_matches_dense_rows(network):
    if isinstance(network, str):
        # the two-bus fixtures: one line, a complete graph
        fix = od.builtin(network)
        net = fix.case.network
        rng = np.random.default_rng([11, 2, ord(network[-1])])
    else:
        rng = np.random.default_rng([11, network])
        net = with_pv_bus(random_network(network, rng), network - 1)
    n_bus = net.n_bus
    trials = 3
    # per-trial series admittances, the nodal and line shunts of net
    G, B = admittance_stack(
        net, rng.uniform(0.0, 2.0, (trials, net.n_line)),
        rng.uniform(-5.0, -0.5, (trials, net.n_line)),
        np.array([[b.g_shunt for b in net.buses]]),
        np.array([[b.b_shunt for b in net.buses]]))
    flats = np.array([random_state(net, rng).flat() for _ in range(trials)])
    flats[1, 2 * n_bus + n_bus // 2] = 0.0  # one v_k = 0
    if isinstance(network, str):
        # trial 0: the fixture's own admittances at its ground truth
        Y = build_ybus(net)
        G[0], B[0], flats[0] = Y.G, Y.B, fix.ground_truth.flat()
    mask = free_mask_from_bus_types(net)
    rows, cols = newton_selection(net)
    dense = _jacobian(G, B, flats)
    for sel_rows, sel_cols, ref in (
            (rows, cols, dense[..., rows[:, None], cols]),
            (None, mask, dense.compress(mask, axis=-1))):
        got = flow_rows(net, sel_rows, sel_cols)(G, B, flats)
        assert got.shape == ref.shape
        assert np.isfinite(got).all()
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("argv", [
    ["check", "--case", "{lattice8}"],
    ["check", "--case", "{lattice9}"],
    ["perturb", "--case", "{lattice8}", "--model", "shunt", "--trials", "5",
     "--seed", "0", "--out", "{out}"],
    ["check", "--builtin", "ex1", "--perturb-load", "1:+0.05"],
], ids=["check-8x8", "check-9x9", "shunt-sweep-8x8", "check-perturb-load"])
def test_flow_rows_never_build_the_dense_jacobian(
        capsys, tmp_path, monkeypatch, lattice_document, argv):
    # Newton, the check's stack and the projection take their flow rows
    # from the line list at every size; the dense 2N x 4N Jacobian is only
    # the reference behind pf_jacobian
    paths = {"out": tmp_path / "sweep.json"}
    for side in (8, 9):
        paths[f"lattice{side}"] = tmp_path / f"lattice{side}.json"
        paths[f"lattice{side}"].write_text(
            json.dumps(lattice_document(side, side, 0)))
    calls, real = [], powerflow._jacobian

    def counting(G, B, flat):
        calls.append(flat.shape)
        return real(G, B, flat)

    monkeypatch.setattr(powerflow, "_jacobian", counting)
    assert main([arg.format(**paths) for arg in argv]) == EXIT_OK
    capsys.readouterr()
    assert calls == []


def dense_newton(net, Y, p_gen, q_gen, tol=1e-10):
    """Plain Newton of solve_power_flow from pf_residual, pf_jacobian and
    np.linalg.solve: (flat state, iterations)."""
    n = net.n_bus
    mask = free_mask_from_bus_types(net)
    rows, cols = newton_selection(net)
    flat = np.concatenate([p_gen, q_gen, np.ones(n), np.zeros(n)])
    flat[2 * n:] = np.where(mask[2 * n:], flat[2 * n:],
                            [b.v_setpoint for b in net.buses]
                            + [b.theta_setpoint for b in net.buses])
    for it in range(MAX_ITER + 1):
        x = SystemState.from_flat(flat, mask)
        mis = pf_residual(net, Y, x)[rows]
        if np.abs(mis).max() <= tol:
            break
        jac = pf_jacobian(net, Y, x)[rows[:, None], cols]
        flat[cols] += np.linalg.solve(jac, -mis)
    p_inj, q_inj = injections(Y, flat[2 * n:3 * n], flat[3 * n:])
    flat[:n] = np.where(mask[3 * n:], flat[:n], p_inj + net.p_load)
    flat[n:2 * n] = np.where(mask[2 * n:3 * n], flat[n:2 * n],
                             q_inj + net.q_load)
    return flat, it


@pytest.mark.parametrize("side", [8, 9, 12])
def test_line_list_side_matches_dense_reference(lattice_document, side):
    case = load_case(lattice_document(side, side, 0))
    net = case.network
    Y = build_ybus(net)
    sol = solve_power_flow(net, Y, case.gen_p, case.gen_q)
    flat, iterations = dense_newton(net, Y, case.gen_p, case.gen_q)
    assert sol.iterations == iterations
    assert np.abs(sol.state.flat() - flat).max() <= 1e-12

    # the stack's flow rows against the dense Jacobian at the same point
    cs = system_for_case(case)
    a, _, _, _, mask = active_stack(cs, sol.state)
    dense = pf_jacobian(net, Y, sol.state).compress(mask, axis=1)
    assert np.abs(a[:2 * net.n_bus] - dense).max() <= 1e-12 * np.abs(dense).max()

    # the case's cost leaves the row space (NONE); a planted one,
    # c1 = -A^T y, makes the point a KKT point (UNIQUE)
    planted = np.zeros(cs.n_state)
    planted[mask] = -a.T @ np.random.default_rng(side).standard_normal(len(a))
    costs = (CostSpec.from_terms(case.cost, net.n_bus),
             CostSpec(c2=np.zeros(cs.n_state), c1=planted))
    got = [licq_check(cs, sol.state, cost) for cost in costs]
    # the same checks at the state of the dense Newton reference
    ref_state = SystemState.from_flat(flat, mask)
    ref = [licq_check(cs, ref_state, cost) for cost in costs]
    for g, r in zip(got, ref):
        assert g.licq_holds and r.licq_holds
        assert g.numerical_rank == r.numerical_rank
        assert g.face == r.face
        assert g.kkt.classification is r.kkt.classification
        assert g.kkt.family_dim == r.kkt.family_dim
    assert [g.kkt.classification for g in got] == [Classification.NONE,
                                                   Classification.UNIQUE]
    assert (kkt_residual(cs, sol.state, costs[1], got[1].kkt.particular)
            <= DEFAULT_STAT_TOL)


def test_cut_off_bus_still_singular_on_line_list_side(
        capsys, tmp_path, lattice_document):
    doc = lattice_document(9, 9, 0)
    cut = 80
    doc["lines"] = [ln for ln in doc["lines"] if cut not in (ln["from"], ln["to"])]
    with pytest.warns(UserWarning, match="not connected"):
        case = load_case(doc)
    with pytest.raises(SingularNewtonError):
        solve_power_flow(case.network, build_ybus(case.network), case.gen_p,
                         case.gen_q)
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(doc))
    with pytest.warns(UserWarning, match="not connected"):
        code = main(["check", "--case", str(path)])
    assert code == EXIT_INFEASIBLE
    assert "singular Newton matrix" in capsys.readouterr().err
