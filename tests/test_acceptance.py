"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on the terminal.
"""

import math
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

import opfdiag as od
from opfdiag.cases import example1, example2, example3
from opfdiag.constraints import (ApparentPower, BoxUpper, ExpLoadEq, LinearEq,
                                 evaluate)
from opfdiag.cqkit import (Classification, active_stack, kkt_residual,
                           kkt_solve, licq_check, numerical_rank)
from opfdiag.perturb import (line_model, load_model, nearest_feasible_point,
                             param_jacobian, shift_load, shunt_model)
from opfdiag.powerflow import (SystemState, pf_jacobian, pf_residual,
                               solve_power_flow)

from netgen import random_network, random_state, reduced_rows

MC_SEED = 42


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} — {label}: FAIL")
        raise
    print(f"ACCEPTANCE {number} — {label}: PASS")


def test_criterion_1_tangent_dispatch_reproduction():
    with criterion(1, "tangent dispatch reproduction (alpha in {1, 2, 0.5})"):
        for alpha in (1.0, 2.0, 0.5):
            fix = example1(alpha)
            net = fix.case.network

            residual = np.abs(pf_residual(net, fix.ground_truth)).max()
            assert residual <= 1e-12

            cq = licq_check(fix.system, fix.ground_truth)
            assert cq.m == 6 and cq.n_free == 6
            assert cq.numerical_rank == 5
            assert cq.sigma_min <= cq.rank_tol
            assert not cq.licq_holds

            kkt = kkt_solve(fix.system, fix.ground_truth, fix.case.cost)
            assert kkt.classification is Classification.RAY
            vertex = np.array([-alpha, -alpha, 0.0, 0.0, 0.0, 0.0])
            assert np.abs(kkt.particular - vertex).max() <= 1e-8

            want = np.array([0.0, -alpha, 0.0, 1.0, -1.0,
                             math.sqrt(alpha * alpha + 1.0)])
            want /= np.linalg.norm(want)
            have = kkt.ray_direction / np.linalg.norm(kkt.ray_direction)
            assert np.abs(have - want).max() <= 1e-8

            # multiplier of the bus-1 real power balance covers exactly
            # (-inf, -alpha]: vertex value -alpha, strictly decreasing
            # along the unbounded sign-feasible ray
            row = fix.expected["price_row"]
            assert kkt.zeta_interval == (0.0, np.inf)
            assert abs(kkt.particular[row] - (-alpha)) <= 1e-8
            assert kkt.ray_direction[row] < 0.0


def test_criterion_2_crossing_pair_reproduction():
    with criterion(2, "tangent crossing pair reproduction"):
        fix = example2()
        x = fix.ground_truth
        h_vals, g_vals, feasible = evaluate(fix.system, x)
        assert feasible
        assert abs(h_vals[0]) <= 1e-9
        assert abs(g_vals[0]) <= 1e-9

        # the gradients of h and g restricted to the flow manifold: the
        # rows of the check's reduced matrix R
        a = active_stack(fix.system, x)[0]
        grad_h, grad_g = reduced_rows(a, fix.case.network.n_bus)
        unit_h = grad_h / np.linalg.norm(grad_h)
        unit_g = grad_g / np.linalg.norm(grad_g)
        angle = math.asin(min(1.0, abs(unit_h[0] * unit_g[1]
                                       - unit_h[1] * unit_g[0])))
        assert angle <= 1e-6

        fixed = licq_check(fix.system, x)
        assert not fixed.licq_holds
        assert fixed.numerical_rank == 5 and fixed.m == 6

        kkt = kkt_solve(fix.system, x, fix.case.cost)
        assert kkt.classification is Classification.NONE
        assert kkt.stationarity_residual >= 0.1


def test_criterion_3_parameter_jacobian_rank_checks():
    with criterion(3, "parameter Jacobian exact values and ranks"):
        rng = np.random.default_rng(17)
        fix = example1(1.0)
        net = fix.case.network
        load = load_model(fix.case)
        for _ in range(10):
            x = random_state(net, rng)
            assert np.array_equal(param_jacobian(load, net, x),
                                  -np.eye(4))

        shunt = shunt_model(fix.case)
        jac = param_jacobian(shunt, net, fix.ground_truth)
        v2 = fix.ground_truth.v ** 2
        expected_diag = np.concatenate([-v2, -v2])
        assert np.abs(np.diag(jac) - expected_diag).max() <= 1e-14
        assert np.abs(jac - np.diag(np.diag(jac))).max() == 0.0

        flat = example3()
        line = line_model(flat.case)
        jac_line = param_jacobian(line, flat.case.network,
                                  flat.ground_truth)
        assert np.abs(jac_line).max() <= 1e-14
        rank, *_ = numerical_rank(jac_line)
        assert rank == 0


def test_criterion_4_genericity_corroboration():
    with criterion(4, "Monte Carlo genericity and tangency escape sweep"):
        fix = example1(1.0)
        model = load_model(fix.case)  # +/- 10 percent default box
        report = od.run_genericity_experiment(fix.case, model,
                                              trials=1000, seed=MC_SEED)
        assert report.feasible_count > 0
        assert report.licq_pass_count == report.feasible_count
        assert not report.failures
        assert min(report.sigma_min_sorted) > 1e-6

        deltas = [0.0, 1e-3, -1e-3, 1e-2, -1e-2, 1e-1, -1e-1]
        rows = od.tangency_escape_probe(fix.case, fix.ground_truth, deltas,
                                        direction=1)
        for row in rows:
            assert row.converged
            if row.delta == 0.0:
                assert row.licq_holds is False
            else:
                assert row.licq_holds is True


def test_criterion_5_numerical_hygiene():
    with criterion(5, "gradient oracles, Newton budget, bit determinism"):
        rng = np.random.default_rng(23)
        step = 1e-6
        worst = 0.0
        for _ in range(100):
            net = random_network(3, rng)
            x = random_state(net, rng)
            jac = pf_jacobian(net, x)
            flat = x.flat()
            fd = np.zeros_like(jac)
            for j in range(flat.size):
                up, dn = flat.copy(), flat.copy()
                up[j] += step
                dn[j] -= step
                fd[:, j] = (
                    pf_residual(net, SystemState.from_flat(up))
                    - pf_residual(net, SystemState.from_flat(dn))
                ) / (2.0 * step)
            err = np.abs(jac - fd) / np.maximum(1.0, np.abs(jac))
            worst = max(worst, err.max())

            ops = [
                BoxUpper(index=int(rng.integers(0, flat.size)),
                         bound=float(rng.uniform(-1, 1))),
                LinearEq(terms=((int(rng.integers(0, flat.size)),
                                 float(rng.uniform(-2, 2))),),
                         offset=0.0),
                ApparentPower(bus=int(rng.integers(0, 3)), n_bus=3,
                              s2_max=1.0),
                ExpLoadEq(bus=int(rng.integers(0, 3)), n_bus=3,
                          alpha=float(rng.uniform(0.1, 2.0)), p_load=0.0),
            ]
            probe = flat.copy()
            probe[6:9] = rng.uniform(0.1, 1.5, 3)  # keep sqrt in domain
            for op in ops:
                grad = op.gradient(probe)
                fd_g = np.zeros_like(grad)
                for j in range(probe.size):
                    up, dn = probe.copy(), probe.copy()
                    up[j] += step
                    dn[j] -= step
                    fd_g[j] = (op.value(up) - op.value(dn)) / (2.0 * step)
                rel = np.abs(grad - fd_g) / np.maximum(1.0, np.abs(grad))
                worst = max(worst, rel.max())
        assert worst <= 1e-6

        for fix, setp in (
            (example1(1.0), None),
            (example1(2.0), None),
            (example1(0.5), None),
            (example2(), None),
            (example3(), None),
        ):
            net = fix.case.network
            sol = solve_power_flow(net, fix.case.gen_p,
                                   fix.case.gen_q, pf_tol=1e-10)
            assert sol.iterations <= 10
            assert np.abs(pf_residual(net, sol.state)).max() <= 1e-10

        fix = example1(1.0)
        model = load_model(fix.case)
        rep1 = od.run_genericity_experiment(fix.case, model, trials=100,
                                            seed=MC_SEED)
        rep2 = od.run_genericity_experiment(fix.case, model, trials=100,
                                            seed=MC_SEED)
        assert rep1.to_json() == rep2.to_json()
        assert rep1.to_csv() == rep2.to_csv()


def test_criterion_6_kkt_verifier_independence():
    with criterion(6, "independent stationarity verification of solves"):
        rng = np.random.default_rng(31)
        stat_tol = 1e-8
        solves = []

        fix = example1(1.0)
        solves.append((fix.system, fix.ground_truth, fix.case.cost))

        shifted = shift_load(fix.case, 1, +0.05)
        cs = od.system_for_case(shifted)
        state, _ = nearest_feasible_point(cs, fix.ground_truth)
        assert state is not None
        solves.append((cs, state, fix.case.cost))

        fix = example2()
        # a cost inside the constraint span admits multipliers
        inside = od.CostSpec(
            c2=np.zeros(8),
            c1=fix.system.g_ops[0].gradient(fix.ground_truth.flat()).copy())
        solves.append((fix.system, fix.ground_truth, inside))

        for cs_i, x_i, cost_i in solves:
            result = kkt_solve(replace(cs_i, stat_tol=stat_tol), x_i, cost_i)
            assert result.classification is not Classification.NONE
            base = kkt_residual(cs_i, x_i, cost_i, result.particular)
            assert base <= stat_tol + 1e-12
            dim = result.nullspace_basis.shape[1]
            for _ in range(10):
                z = rng.uniform(-1.0, 1.0, dim)
                y = result.particular + result.nullspace_basis @ z
                assert kkt_residual(cs_i, x_i, cost_i, y) <= stat_tol + 1e-12
