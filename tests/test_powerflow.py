import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opfdiag as od
from opfdiag.netmodel import Bus, BusType, Case, Line, Network, build_ybus
from opfdiag.perturb import _trial_draw, apply_parameters, make_model
from opfdiag.powerflow import (MAX_ITER, DivergenceError, NonConvergenceError,
                               PowerFlowError, SingularNewtonError,
                               SystemState, pf_jacobian, pf_residual,
                               solve_power_flow, solve_power_flows,
                               state_from_list, state_to_list)

from netgen import random_network, random_state


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
    from opfdiag.powerflow import injections

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
    return solve_power_flows(
        net, np.stack([y.G for y in ys]), np.stack([y.B for y in ys]),
        np.stack([n.p_load for n in nets]), np.stack([n.q_load for n in nets]),
        p_gen, q_gen)


def assert_same_outcome(stacked, net, Y, p_gen, q_gen):
    try:
        solo = solve_power_flow(net, Y, p_gen, q_gen)
    except PowerFlowError as exc:
        assert type(stacked) is type(exc)
        assert stacked.args == exc.args
        return False
    assert isinstance(stacked, type(solo))
    assert stacked.iterations == solo.iterations
    assert stacked.history == solo.history
    assert stacked.state.flat().tolist() == solo.state.flat().tolist()
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
    nets = [apply_parameters(model, case, _trial_draw(42, t, model.box)).network
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
    dead = od.AdmittanceMatrix(G=np.zeros((3, 3)), B=np.zeros((3, 3)))
    ys = [Y, dead, Y, dead, Y]
    outs = solve_stacked(net, ys, [net] * 5, p_gen, np.zeros(3))
    for i in (1, 3):
        assert isinstance(outs[i], SingularNewtonError)
        assert "iteration 0" in str(outs[i])
    for i in (0, 2, 4):
        assert assert_same_outcome(outs[i], net, Y, p_gen, np.zeros(3))


def test_state_round_trip_through_flat_json(ex1):
    net = ex1.case.network
    text = json.dumps(state_to_list(ex1.ground_truth))
    back = state_from_list(json.loads(text), net)
    assert np.array_equal(back.flat(), ex1.ground_truth.flat())
    assert np.array_equal(back.free_mask, ex1.ground_truth.free_mask)


def test_free_mask_from_bus_types(ex1):
    mask = od.free_mask_from_bus_types(ex1.case.network)
    # slack v and theta eliminated; all generation entries free
    assert mask.tolist() == [True, True, True, True, False, True, False, True]


def test_state_arrays_are_read_only(ex1):
    with pytest.raises(ValueError):
        ex1.ground_truth.v[0] = 2.0
