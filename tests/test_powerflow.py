import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opfdiag as od
from opfdiag import _blas, powerflow
from opfdiag.cli import EXIT_INFEASIBLE, EXIT_OK, main
from opfdiag.constraints import ConstraintSystem, system_for_case
from opfdiag.cqkit import (Classification, CostSpec, active_stack,
                          kkt_residual, licq_check)
from opfdiag.netmodel import (Case, Network, admittance_stack, build_ybus,
                              load_case)
from opfdiag.perturb import apply_parameters, make_model
from opfdiag.powerflow import (MAX_ITER, STALL_STEPS, DivergenceError,
                               NonConvergenceError, PowerFlowError,
                               SingularNewtonError, StalledNewtonError,
                               SystemState, _jacobian, flow_rows,
                               newton_states, pf_jacobian, pf_residual,
                               solve_power_flow, state_from_list)

from netgen import (dense_admittances, dense_residual, injections,
                    random_network, random_state, ring_network, trial_draw)


def finite_difference_jacobian(net, x, step=1e-6):
    flat = x.flat()
    fd = np.zeros((2 * net.n_bus, flat.size))
    for j in range(flat.size):
        up, dn = flat.copy(), flat.copy()
        up[j] += step
        dn[j] -= step
        fd[:, j] = (
            pf_residual(net, SystemState.from_flat(up))
            - pf_residual(net, SystemState.from_flat(dn))
        ) / (2.0 * step)
    return fd


def test_residual_vanishes_at_ex1_operating_point(ex1):
    net = ex1.case.network
    r = pf_residual(net, ex1.ground_truth)
    assert np.abs(r).max() <= 1e-12


def test_residual_zero_at_flat_no_load_profile(ex3):
    net = ex3.case.network
    r = pf_residual(net, ex3.ground_truth)
    assert np.abs(r).max() == 0.0


def test_residual_single_isolated_bus_cancels():
    net = Network(bus_type=["slack"], line_ends=[], p_load=[0.3],
                  q_load=[-0.2])
    x = SystemState(p_gen=np.array([0.3]), q_gen=np.array([-0.2]),
                    v=np.array([1.0]), theta=np.array([0.0]))
    r = pf_residual(net, x)
    assert np.abs(r).max() == 0.0


def test_jacobian_reduced_columns_match_closed_form(ex1):
    # 4 flow rows over (p1, p2, q1, q2, v2, th2) at the tangent point,
    # where sin = cos = sqrt(2)/2 and v2 = sqrt(2)
    net = ex1.case.network
    jac = pf_jacobian(net, ex1.ground_truth)
    reduced = jac[:, net.free_mask]
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
    jac = pf_jacobian(net, x)
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
        x = random_state(net, rng)
        jac = pf_jacobian(net, x)
        fd = finite_difference_jacobian(net, x)
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
    net = Network(bus_type=["slack", "pq"], line_ends=[(0, 1)],
                  g_series=[0.0], b_series=[b])
    p_inj, _ = injections(net, np.array([v1, v2]),
                          np.array([t1, t2]))
    assert abs(p_inj[0] + p_inj[1]) <= 1e-12


def test_newton_reaches_high_voltage_branch(ex1):
    net = ex1.case.network
    sol = solve_power_flow(net, ex1.case.gen_p, ex1.case.gen_q, pf_tol=1e-10)
    assert sol.iterations <= 10
    assert abs(sol.state.v[1] - math.sqrt(2.0)) <= 1e-9
    assert abs(sol.state.theta[1] - math.pi / 4.0) <= 1e-9
    # the post-condition re-checked through the residual path
    assert np.abs(pf_residual(net, sol.state)).max() <= 1e-10


def test_newton_flat_profile_is_immediate(ex3):
    net = ex3.case.network
    sol = solve_power_flow(net, np.zeros(2), np.zeros(2), pf_tol=1e-10)
    assert sol.iterations <= 1
    assert np.abs(sol.state.v - 1.0).max() == 0.0


def zero_load_two_bus():
    return Network(bus_type=["slack", "pq"], line_ends=[(0, 1)],
                   g_series=[0.0], b_series=[-1.0])


def test_newton_fails_beyond_transferable_power():
    # under q = p coupling the nose sits at (sqrt(2) - 1) / 2 ~ 0.2071;
    # verified by the parameter sweep below
    net = zero_load_two_bus()
    with pytest.raises(NonConvergenceError) as info:
        solve_power_flow(net, np.array([0.0, -2.0]), np.array([0.0, -2.0]),
                         pf_tol=1e-10)
    assert info.value.history  # iteration trace carried in the error
    for t, expect_ok in ((0.1, True), (0.2, True), (0.25, False), (0.5, False)):
        setp = (np.array([0.0, -t]), np.array([0.0, -t]))
        if expect_ok:
            sol = solve_power_flow(net, *setp, pf_tol=1e-10)
            assert np.abs(pf_residual(net, sol.state)).max() <= 1e-10
        else:
            with pytest.raises(NonConvergenceError):
                solve_power_flow(net, *setp, pf_tol=1e-10)


def test_newton_result_feasible_over_random_setpoint_sweep():
    net = zero_load_two_bus()
    rng = np.random.default_rng(11)
    for _ in range(20):
        t = rng.uniform(0.01, 0.15)
        sol = solve_power_flow(net, np.array([0.0, -t]),
                               np.array([0.0, -t]), pf_tol=1e-10)
        assert np.abs(pf_residual(net, sol.state)).max() <= 1e-10


def test_newton_singular_matrix_flagged_as_degenerate():
    # an isolated PQ bus gives a zero row in the reduced system; asking it
    # to absorb power makes the Newton matrix singular at the start
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        net = Network(bus_type=["slack", "pq", "pq"], line_ends=[(0, 1)],
                      p_load=[0.0, 0.0, 0.5], g_series=[0.0],
                      b_series=[-1.0])
    from opfdiag.powerflow import SingularNewtonError

    with pytest.raises(SingularNewtonError, match="degeneracy"):
        solve_power_flow(net, np.zeros(3), np.zeros(3), pf_tol=1e-10)


def test_newton_pv_bus_holds_voltage_and_recovers_reactive():
    net = pv_three_bus()
    sol = solve_power_flow(net, np.array([0.0, 0.3, 0.0]), np.zeros(3),
                           pf_tol=1e-10)
    assert sol.state.v[1] == 1.02
    assert np.abs(pf_residual(net, sol.state)).max() <= 1e-10
    # PV real setpoint held, reactive output recovered
    assert sol.state.p_gen[1] == 0.3
    assert sol.state.q_gen[1] != 0.0
    mask = net.free_mask
    assert not mask[2 * 3 + 1]  # PV voltage eliminated


def pv_three_bus():
    return Network(bus_type=["slack", "pv", "pq"],
                   line_ends=[(0, 1), (1, 2), (0, 2)],
                   p_load=[0.0, 0.0, 0.4], q_load=[0.0, 0.0, 0.1],
                   v_setpoint=[1.0, 1.02, 1.0], g_series=[0.2, 0.1, 0.15],
                   b_series=[-4.0, -3.0, -2.5])


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
        # the generation recovered at the slack and PV buses, re-recorded
        # when the flow residual moved onto the line list
        flat = [0.10149047975709252, 0.3, 0.0, -0.047767599578158126,
                0.18271332577178623, 0.0, 1.0, 1.02, 0.9866175499500538,
                0.0, 0.013729888547051447, -0.06457711233285712]
    sol = solve_power_flow(net, p_gen, q_gen, pf_tol=1e-10)
    assert sol.iterations == iterations
    assert sol.history == history
    assert sol.state.flat().tolist() == flat


def test_newton_stops_at_non_finite_mismatch():
    # the first step overshoots to ~1e300 and the next mismatch overflows
    net = Network(bus_type=["slack", "pq"], line_ends=[(0, 1)],
                  p_load=[0.0, 1e300], g_series=[0.0], b_series=[-1.0])
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as info:
            solve_power_flow(net, np.zeros(2), np.zeros(2), pf_tol=1e-10)
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
    with pytest.raises(StalledNewtonError) as info:
        solve_power_flow(net, np.array([0.0, -2.0]),
                         np.array([0.0, -2.0]), pf_tol=1e-10)
    history = info.value.history
    assert str(info.value) == (
        f"power flow stalled: no new least mismatch in {STALL_STEPS} steps: "
        f"final mismatch {history[-1]:.3e} after {len(history)} iterations; "
        f"trace {['%.3e' % h for h in history]}")


def test_nonconvergence_message_text_at_the_step_budget(ex1, monkeypatch):
    # ex1 sets a new least mismatch at each of its steps 2 to 6; a budget
    # of 3 steps ends it before it converges or stalls
    monkeypatch.setattr(powerflow, "MAX_ITER", 3)
    with pytest.raises(NonConvergenceError) as info:
        solve_power_flow(ex1.case.network, ex1.case.gen_p, ex1.case.gen_q,
                         pf_tol=1e-10)
    assert type(info.value) is NonConvergenceError
    history = info.value.history
    assert len(history) == powerflow.MAX_ITER + 1
    assert str(info.value) == (
        f"power flow did not converge: final mismatch {history[-1]:.3e} "
        f"after {powerflow.MAX_ITER + 1} iterations; trace "
        f"{['%.3e' % h for h in history]}")


def steps_without_new_least(history) -> int:
    """Longest run of steps whose mismatch sets no new least value."""
    longest = run = 0
    best = history[0]
    for h in history[1:]:
        run = 0 if h < best else run + 1
        best = min(best, h)
        longest = max(longest, run)
    return longest


def test_newton_stops_a_stalled_trial():
    # past the nose no flow solution exists: the mismatch never falls
    # below its start, and the solve stops at step STALL_STEPS
    net = zero_load_two_bus()
    with pytest.raises(StalledNewtonError) as info:
        solve_power_flow(net, np.array([0.0, -2.0]), np.array([0.0, -2.0]),
                         pf_tol=1e-10)
    assert isinstance(info.value, NonConvergenceError)
    history = info.value.history
    assert len(history) == STALL_STEPS + 1 < MAX_ITER + 1
    assert min(history[1:]) >= history[0]
    assert info.value.mismatch == history[-1]


def test_stall_margin_case_still_converges(ex1):
    # the converged trial with the longest run without a new least
    # mismatch found over ex1, ex2, ex3, grid and random sweeps: three
    # steps above its start, two short of STALL_STEPS
    model = make_model("shunt", ex1.case)
    case = apply_parameters(model, ex1.case, trial_draw(0, 805, model.box))
    sol = solve_power_flow(case.network, case.gen_p, case.gen_q, pf_tol=1e-10)
    assert sol.iterations == 9
    assert steps_without_new_least(sol.history) == 3 == STALL_STEPS - 2
    assert max(sol.history[1:4]) > sol.history[0] > sol.history[4]


def test_stacked_newton_mixes_every_outcome():
    # one stack of two-bus trials: converging, stalled past the nose,
    # diverging at a huge load and singular without line admittance
    net = zero_load_two_bus()
    dead = replace(net, b_series=[0.0])

    def loaded(base, p, q):
        return replace(base, p_load=[0.0, p], q_load=[0.0, q])

    nets = [loaded(net, 0.1, 0.1), loaded(net, 2.0, 2.0),
            loaded(net, 1e300, 0.0), loaded(dead, 0.1, 0.0),
            loaded(net, 0.15, 0.05), loaded(net, 0.5, 0.5)]
    outs = solve_stacked(net, nets, np.zeros(2), np.zeros(2))
    kinds = [type(out) for _, out, _ in outs]
    assert kinds == [int, StalledNewtonError, DivergenceError,
                     SingularNewtonError, int, StalledNewtonError]
    for out, each in zip(outs, nets):
        assert_same_outcome(out, each, np.zeros(2), np.zeros(2))


def solve_stacked(net, nets, p_gen, q_gen):
    """newton_states on the stacked trials, one per network of ``nets``
    (the lines of ``net`` with their own admittances and loads), as (state
    row, outcome, history row) per trial: the outcome is the iteration
    count where the trial converged, else its PowerFlowError, built from
    the arrays on demand."""
    states = newton_states(
        net, np.concatenate([n.admittances[0] for n in nets]),
        np.concatenate([n.admittances[1] for n in nets]),
        np.stack([n.p_load for n in nets]), np.stack([n.q_load for n in nets]),
        p_gen, q_gen, pf_tol=1e-10)
    outcome = [states.error(i) for i in range(len(nets))]
    # a failure kind exactly where the trial failed
    assert states.kind.astype(bool).tolist() == [o is not None
                                                 for o in outcome]
    outcome = [int(i) if o is None else o
               for i, o in zip(states.steps, outcome)]
    return list(zip(states.x, outcome, states.errs))


def assert_same_outcome(stacked, net, p_gen, q_gen):
    x, out, errs = stacked
    try:
        solo = solve_power_flow(net, p_gen, q_gen, pf_tol=1e-10)
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
    outs = solve_stacked(case.network, nets, case.gen_p, case.gen_q)
    converged = [assert_same_outcome(out, net, case.gen_p, case.gen_q)
                 for out, net in zip(outs, nets)]
    if source == "ex1":
        # the load box reaches beyond the nose curve
        assert 0 < sum(converged) < trials
    else:
        assert all(converged)


def test_stacked_newton_isolates_a_singular_trial():
    net = pv_three_bus()
    p_gen = np.array([0.0, 0.3, 0.0])
    # the same lines without admittance, and no shunt: Y = 0
    dead = replace(net, g_series=np.zeros(3), b_series=np.zeros(3))
    G, B = build_ybus(dead)
    assert not G.any() and not B.any()
    outs = solve_stacked(net, [net, dead, net, dead, net], p_gen, np.zeros(3))
    for i in (1, 3):
        assert isinstance(outs[i][1], SingularNewtonError)
        assert "iteration 0" in str(outs[i][1])
        assert isinstance(outs[i][1].__cause__, np.linalg.LinAlgError)
    for i in (0, 2, 4):
        assert assert_same_outcome(outs[i], net, p_gen, np.zeros(3))


def test_state_round_trip_through_flat_json(ex1):
    net = ex1.case.network
    text = json.dumps(ex1.ground_truth.flat().tolist())
    back = state_from_list(json.loads(text), net)
    assert np.array_equal(back.flat(), ex1.ground_truth.flat())


def test_network_free_mask(ex1):
    net = ex1.case.network
    # slack v and theta eliminated; all generation entries free
    assert net.free_mask.tolist() == [True, True, True, True, False, True,
                                      False, True]
    # computed once per network and locked
    assert net.free_mask is net.free_mask
    with pytest.raises(ValueError):
        net.free_mask[0] = False


def test_state_arrays_are_read_only(ex1):
    with pytest.raises(ValueError):
        ex1.ground_truth.v[0] = 2.0


# ---------------------------------------------------------------------------
# Flow Jacobian rows: line-list assembly against the dense reference
# ---------------------------------------------------------------------------

def newton_selection(net):
    """Rows and columns of the Newton matrix in the order of newton_states'
    batched dense solve."""
    n = net.n_bus
    mask = net.free_mask
    free_v, free_t = mask[2 * n:3 * n], mask[3 * n:]
    rows = np.concatenate([np.flatnonzero(free_t), n + np.flatnonzero(free_v)])
    cols = np.concatenate([3 * n + np.flatnonzero(free_t),
                           2 * n + np.flatnonzero(free_v)])
    return rows, cols


def with_pv_bus(net, bus):
    types, v = net.bus_type.copy(), net.v_setpoint.copy()
    types[bus], v[bus] = "pv", 1.03
    return replace(net, bus_type=types, v_setpoint=v)


def charged_lattice(doc, rng):
    """The lattice case with a shunt at every bus and line charging on
    every line."""
    for bus in doc["buses"]:
        bus["g_shunt"] = rng.uniform(0.0, 0.05)
        bus["b_shunt"] = rng.uniform(-0.05, 0.05)
    for ln in doc["lines"]:
        ln["g_shunt"] = rng.uniform(0.0, 0.02)
        ln["b_shunt"] = rng.uniform(0.0, 0.1)
    return load_case(doc).network


@pytest.mark.parametrize("network", ["lattice-4x5", "lattice-7x7",
                                     "random-12", "isolated-bus", "no-lines",
                                     "shared-lines"])
def test_line_list_residual_matches_dense_product(lattice_document, network):
    # Y u as the diagonal term plus per-bus sums over both directions of
    # each line, against one complex matrix product with the dense Yc
    rng = np.random.default_rng([29, len(network)])
    trials = 4
    if network == "random-12":
        net = random_network(12, rng)
    elif network in ("isolated-bus", "no-lines"):
        base = random_network(6, rng)
        lone = {"bus_type": "pq", "p_load": 0.0, "q_load": 0.0,
                "g_shunt": 0.2, "b_shunt": -0.1, "v_setpoint": 1.0,
                "theta_setpoint": 0.0}
        no_line = ("line_ends", "g_series", "b_series", "g_line_shunt",
                   "b_line_shunt")
        with pytest.warns(UserWarning, match="not connected"):
            net = (replace(base, **dict.fromkeys(no_line, []))
                   if network == "no-lines" else
                   replace(base, **{k: np.append(getattr(base, k), v)
                                    for k, v in lone.items()}))
    else:
        rows, cols = (4, 4) if network == "shared-lines" else map(
            int, network.split("-")[1].split("x"))
        net = charged_lattice(lattice_document(rows, cols, 1), rng)
    if network == "shared-lines":
        # a leading axis of 1: every trial shares the network's admittances
        g, b = net.admittances
    else:
        # per-trial series admittances and nodal shunts, the network's line
        # charging
        g, b = admittance_stack(
            net, rng.uniform(0.5, 1.5, (trials, net.n_line)),
            rng.uniform(-8.0, -4.0, (trials, net.n_line)),
            rng.uniform(0.0, 0.1, (trials, net.n_bus)),
            rng.uniform(-0.1, 0.1, (trials, net.n_bus)))
    p_load = rng.uniform(-1.0, 1.0, (trials, net.n_bus))
    q_load = rng.uniform(-1.0, 1.0, (trials, net.n_bus))
    flats = np.array([random_state(net, rng).flat() for _ in range(trials)])
    got = powerflow._residual(net, g + 1j * b, p_load, q_load, flats)
    G, B = dense_admittances(net, g, b)
    ref = dense_residual(G, B, p_load, q_load, flats)
    assert got.shape == ref.shape == (trials, 2 * net.n_bus)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    # without lines Y is diagonal, and both take d_k u_k alone
    assert net.n_line or np.array_equal(got, ref)


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
    g, b = admittance_stack(
        net, rng.uniform(0.0, 2.0, (trials, net.n_line)),
        rng.uniform(-5.0, -0.5, (trials, net.n_line)),
        net.g_shunt[None], net.b_shunt[None])
    flats = np.array([random_state(net, rng).flat() for _ in range(trials)])
    flats[1, 2 * n_bus + n_bus // 2] = 0.0  # one v_k = 0
    if isinstance(network, str):
        # trial 0: the fixture's own admittances at its ground truth
        g[0], b[0] = net.admittances[0][0], net.admittances[1][0]
        flats[0] = fix.ground_truth.flat()
    mask = net.free_mask
    rows, cols = newton_selection(net)
    dense = _jacobian(*dense_admittances(net, g, b), flats)
    for sel_rows, sel_cols, ref in (
            (rows, cols, dense[..., rows[:, None], cols]),
            (None, mask, dense.compress(mask, axis=-1))):
        got = flow_rows(net, sel_rows, sel_cols)(g, b, flats)
        assert got.shape == ref.shape
        assert np.isfinite(got).all()
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        # the same entries as row-major triplets: scattered on zeros they
        # are bitwise the dense storage
        r, q, values = flow_rows(net, sel_rows, sel_cols, coo=True)(
            g, b, flats)
        assert (np.diff(r * got.shape[-1] + q) > 0).all()
        rebuilt = np.zeros(got.shape)
        rebuilt[:, r, q] = values
        assert rebuilt.tobytes() == got.tobytes()


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


def dense_newton(net, p_gen, q_gen, tol=1e-10):
    """Plain Newton of solve_power_flow from the dense residual of
    ``build_ybus`` (netgen), pf_jacobian and np.linalg.solve: (flat state,
    iterations)."""
    n = net.n_bus
    G, B = build_ybus(net)

    def residual(flat):
        return dense_residual(G[None], B[None], net.p_load, net.q_load,
                              flat[None])[0]

    mask = net.free_mask
    rows, cols = newton_selection(net)
    # v = 1 at PQ buses, the setpoints elsewhere; every angle at the slack's
    slack = np.flatnonzero(net.bus_type == "slack")[0]
    flat = np.concatenate([p_gen, q_gen, np.ones(n),
                           np.full(n, net.theta_setpoint[slack])])
    flat[2 * n:3 * n] = np.where(mask[2 * n:3 * n], 1.0, net.v_setpoint)
    for it in range(MAX_ITER + 1):
        x = SystemState.from_flat(flat)
        mis = residual(flat)[rows]
        if np.abs(mis).max() <= tol:
            break
        jac = pf_jacobian(net, x)[rows[:, None], cols]
        flat[cols] += np.linalg.solve(jac, -mis)
    # without generation F = -(load + injection)
    served = -residual(np.concatenate([np.zeros(2 * n), flat[2 * n:]]))
    flat[:n] = np.where(mask[3 * n:], flat[:n], served[:n])
    flat[n:2 * n] = np.where(mask[2 * n:3 * n], flat[n:2 * n], served[n:])
    return flat, it


@pytest.mark.parametrize("side", [8, 9, 12])
def test_line_list_side_matches_dense_reference(lattice_document, side):
    case = load_case(lattice_document(side, side, 0))
    net = case.network
    sol = solve_power_flow(net, case.gen_p, case.gen_q, pf_tol=1e-10)
    flat, iterations = dense_newton(net, case.gen_p, case.gen_q)
    assert sol.iterations == iterations
    assert np.abs(sol.state.flat() - flat).max() <= 1e-12

    # the stack's flow rows against the dense Jacobian at the same point
    cs = system_for_case(case)
    a, _, _, _, mask = active_stack(cs, sol.state)
    dense = pf_jacobian(net, sol.state).compress(mask, axis=1)
    assert np.abs(a[:2 * net.n_bus] - dense).max() <= 1e-12 * np.abs(dense).max()

    # the case's cost leaves the row space (NONE); a planted one,
    # c1 = -A^T y, makes the point a KKT point (UNIQUE)
    planted = np.zeros(mask.size)
    planted[mask] = -a.T @ np.random.default_rng(side).standard_normal(len(a))
    costs = (case.cost, CostSpec(c2=np.zeros(mask.size), c1=planted))
    got = [licq_check(cs, sol.state, cost) for cost in costs]
    # the same checks at the state of the dense Newton reference
    ref_state = SystemState.from_flat(flat)
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
            <= ConstraintSystem.stat_tol)


def banded_solves(monkeypatch):
    """Spy on the band solver: the LAPACK info of every call, in order."""
    solver = _blas.band_solver()
    if solver is None:
        pytest.skip("numpy's BLAS has no dgbsv of its wheel's OpenBLAS")
    infos = []

    def spy(kl, ku, ab, b):
        infos.append(solver(kl, ku, ab, b).tolist())
        return np.array(infos[-1])

    monkeypatch.setattr(_blas, "band_solver", lambda: spy)
    return infos


def test_cut_off_bus_still_singular_on_line_list_side(
        capsys, tmp_path, monkeypatch, lattice_document):
    doc = lattice_document(9, 9, 0)
    cut = 80
    doc["lines"] = [ln for ln in doc["lines"] if cut not in (ln["from"], ln["to"])]
    with pytest.warns(UserWarning, match="not connected"):
        case = load_case(doc)
    infos = banded_solves(monkeypatch)
    with pytest.raises(SingularNewtonError):
        solve_power_flow(case.network, case.gen_p, case.gen_q, pf_tol=1e-10)
    # dgbsv found the zero pivot of the cut-off bus
    assert len(infos) == 1 and infos[0][0] > 0
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(doc))
    with pytest.warns(UserWarning, match="not connected"):
        code = main(["check", "--case", str(path)])
    assert code == EXIT_INFEASIBLE
    assert "singular Newton matrix" in capsys.readouterr().err


@pytest.mark.parametrize("network, side", [
    pytest.param("lattice", 8, id="lattice-8x8"),
    pytest.param("ring", 8, id="ring-64"),
    # 289 buses: one BLAS thread at every size, not only on small networks
    pytest.param("lattice", 17, id="lattice-17x17"),
])
def test_every_newton_solve_takes_one_blas_thread(lattice_document,
                                                   monkeypatch, network, side):
    fns = _blas._openblas()
    if fns is None:
        pytest.skip("numpy's BLAS is not the OpenBLAS of its wheel")
    get, _ = fns
    before = get()
    seen = []
    solve = powerflow._newton_steps

    def spy(jac, rhs, band=None):
        # lattices are solved banded, the 64-bus ring with chords by the
        # dense LU, which OpenBLAS threads
        assert (band is not None) == (network == "lattice")
        seen.append(get())
        return solve(jac, rhs, band)

    monkeypatch.setattr(powerflow, "_newton_steps", spy)
    if network == "lattice":
        case = load_case(lattice_document(side, side, 0))
        net, p_gen, q_gen = case.network, case.gen_p, case.gen_q
    else:
        net = ring_network(side * side, 0)
        p_gen = q_gen = np.zeros(net.n_bus)
    sol = solve_power_flow(net, p_gen, q_gen, pf_tol=1e-10)
    assert len(seen) == sol.iterations > 0
    assert set(seen) == {1}
    assert get() == before


def test_serial_blas_restores_the_thread_count_on_error():
    fns = _blas._openblas()
    if fns is None:
        pytest.skip("numpy's BLAS is not the OpenBLAS of its wheel")
    get, _ = fns
    before = get()
    with pytest.raises(np.linalg.LinAlgError):
        with _blas.serial():
            assert get() == 1
            np.linalg.solve(np.zeros((2, 2)), np.ones(2))
    assert get() == before


def shuffled_document(doc, seed):
    """The case document with its bus ids permuted."""
    new = np.random.default_rng(seed).permutation(len(doc["buses"])).tolist()

    def moved(obj):
        if isinstance(obj, dict):
            return {key: new[val] if key in ("id", "bus", "from", "to")
                    else moved(val) for key, val in obj.items()}
        return [moved(val) for val in obj] if isinstance(obj, list) else obj

    out = moved(doc)
    out["buses"].sort(key=lambda bus: bus["id"])
    return out, new


def from_band(ab, kl, ku):
    """Dense T x m x m matrices from their LAPACK band storage."""
    trials, m, _ = ab.shape
    dense = np.zeros((trials, m, m))
    for q in range(m):
        for r in range(max(0, q - ku), min(m, q + kl + 1)):
            dense[:, r, q] = ab[:, q, kl + ku + r - q]
    return dense


@pytest.mark.parametrize("side, shuffle", [(8, None), (12, None), (9, 5)])
def test_banded_newton_matches_dense_reference(lattice_document, side,
                                               shuffle):
    if _blas.band_solver() is None:
        pytest.skip("numpy's BLAS has no dgbsv of its wheel's OpenBLAS")
    doc = lattice_document(side, side, 0)
    band = powerflow._newton_system(load_case(doc).network)[2]
    if shuffle is not None:
        doc, new = shuffled_document(doc, shuffle)
        # the bus order undoes the numbering: the same band within one
        # bus, two unknowns
        shuffled_band = powerflow._newton_system(load_case(doc).network)[2]
        assert np.abs(np.subtract(shuffled_band, band)).max() <= 2
        band = shuffled_band
    assert band is not None
    case = load_case(doc)
    net = case.network
    sol = solve_power_flow(net, case.gen_p, case.gen_q, pf_tol=1e-10)
    flat, iterations = dense_newton(net, case.gen_p, case.gen_q)
    assert sol.iterations == iterations
    assert np.abs(sol.state.flat() - flat).max() <= 1e-12
    if shuffle is not None:
        # the state of the ordered grid, bus by bus
        ordered = load_case(lattice_document(side, side, 0))
        ref = solve_power_flow(ordered.network, ordered.gen_p,
                               ordered.gen_q, pf_tol=1e-10)
        at = (np.arange(4)[:, None] * net.n_bus + np.array(new)).ravel()
        assert np.abs(sol.state.flat()[at] - ref.state.flat()).max() <= 1e-12

    # the band storage holds the dense Newton rows and nothing else
    rows, cols, (kl, ku) = powerflow._newton_system(net)
    x = sol.state.flat()[None]
    ab = flow_rows(net, rows, cols, (kl, ku))(*net.admittances, x)
    assert ab.shape == (1, cols.size, 2 * kl + ku + 1)
    ref = pf_jacobian(net, sol.state)[None, rows[:, None], cols]
    assert not ab[:, :, :kl].any()
    assert np.abs(from_band(ab, kl, ku) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_singular_trial_of_a_banded_block(monkeypatch, lattice_document):
    case = load_case(lattice_document(9, 9, 0))
    net = case.network
    rng = np.random.default_rng(13)
    nets = [replace(net, p_load=net.p_load
                    + rng.uniform(-0.01, 0.01, net.n_bus))
            for _ in range(13)]
    # trial 6 keeps every line, but those of bus 80 carry no admittance
    cut = (net.line_ends == 80).any(axis=1)
    nets[6] = replace(nets[6], g_series=np.where(cut, 0.0, net.g_series),
                      b_series=np.where(cut, 0.0, net.b_series))
    infos = banded_solves(monkeypatch)
    stacked = solve_stacked(net, nets, case.gen_p, case.gen_q)
    assert [i for i, (_, out, _) in enumerate(stacked)
            if isinstance(out, SingularNewtonError)] == [6]
    assert sum(info > 0 for call in infos for info in call) == 1
    assert infos[0][6] > 0
    for trial, n in zip(stacked, nets):
        assert_same_outcome(trial, n, case.gen_p, case.gen_q)
