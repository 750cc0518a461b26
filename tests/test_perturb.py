import hashlib
import json
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import opfdiag as od
from opfdiag import cli, cqkit, powerflow
from opfdiag.cases import example1
from opfdiag.constraints import InfeasiblePointError
from opfdiag.cqkit import licq_check, numerical_rank
from opfdiag.netmodel import BoxLower, BoxUpper, Case, state_index
from opfdiag.perturb import (ModelKind, PerturbationError, PerturbationModel,
                             TrialRecord, _draws, _generate_state,
                             _pcg64_seeded, _seed_pool, apply_parameters,
                             check_rank_hypothesis, line_model, load_model,
                             lumped_shunts, nearest_feasible_point,
                             param_jacobian, run_genericity_experiment,
                             shift_load, shunt_model, tangency_escape_probe)
from opfdiag.powerflow import SystemState, pf_residual

from netgen import (bench_grid_document, case_document, every_column_document,
                    random_network, random_state, trial_draw)


def random_case(rng, n_bus=4):
    net = random_network(n_bus, rng)
    return Case(network=net, gen_p=rng.uniform(-1, 1, n_bus),
                gen_q=rng.uniform(-1, 1, n_bus))


def nominal_parameters(model, case):
    net = case.network
    if model.kind is ModelKind.LOAD:
        return np.concatenate([net.p_load, net.q_load])
    if model.kind is ModelKind.SHUNT:
        g, b = lumped_shunts(net)
        return np.concatenate([g, -b])
    return np.concatenate([net.g_series, net.b_series])


def fd_param_jacobian(model, case, x, step=1e-6):
    xi0 = nominal_parameters(model, case)
    cols = []
    for j in range(xi0.size):
        up, dn = xi0.copy(), xi0.copy()
        up[j] += step
        dn[j] -= step
        cu = apply_parameters(model, case, up)
        cd = apply_parameters(model, case, dn)
        cols.append((pf_residual(cu.network, x)
                     - pf_residual(cd.network, x))
                    / (2.0 * step))
    return np.column_stack(cols)


def test_load_jacobian_is_exact_negative_identity(rng):
    case = random_case(rng)
    model = load_model(case)
    for _ in range(10):
        x = random_state(case.network, rng)
        jac = param_jacobian(model, case.network, x)
        assert np.array_equal(jac, -np.eye(8))


def test_shunt_jacobian_diagonal_is_negated_squared_voltage():
    fix = example1(1.0)
    model = shunt_model(fix.case)
    jac = param_jacobian(model, fix.case.network, fix.ground_truth)
    # v = (1, sqrt(2)) so the two diagonal blocks carry (-1, -2)
    expected = np.diag([-1.0, -2.0, -1.0, -2.0])
    assert np.abs(jac - expected).max() <= 1e-14


@pytest.mark.parametrize("kind", ["load", "shunt", "line"])
def test_param_jacobians_match_finite_differences(kind, rng):
    worst = 0.0
    for _ in range(5):
        case = random_case(rng)
        model = od.make_model(kind, case)
        x = random_state(case.network, rng)
        jac = param_jacobian(model, case.network, x)
        fd = fd_param_jacobian(model, case, x)
        err = np.abs(jac - fd) / np.maximum(1.0, np.abs(jac))
        worst = max(worst, err.max())
    assert worst <= 1e-6


def test_line_jacobian_zero_at_flat_no_load(ex3):
    model = line_model(ex3.case)
    jac = param_jacobian(model, ex3.case.network, ex3.ground_truth)
    assert np.abs(jac).max() <= 1e-14
    rank, *_ = numerical_rank(jac)
    assert rank == 0


def test_line_jacobian_locality(rng):
    case = random_case(rng, n_bus=5)
    net = case.network
    model = line_model(case)
    x = random_state(net, rng)
    jac = param_jacobian(model, net, x)
    n, m = net.n_bus, net.n_line
    for j, (k, l) in enumerate(net.line_ends.tolist()):
        touched = {k, l, n + k, n + l}
        for col in (j, m + j):
            nonzero = set(np.flatnonzero(jac[:, col]).tolist())
            assert nonzero <= touched


def test_line_jacobian_keeps_the_per_line_entries(rng):
    # the columns by indexed writes over line_ends hold, bit for bit, the
    # entries of a loop over the lines on one float at a time, whose v ** 2
    # is pow and now and then a last bit off the square v * v
    for n_bus in [2, 5, 12, 20] * 10:
        case = random_case(rng, n_bus=n_bus)
        net = case.network
        x = random_state(net, rng)
        n, m = net.n_bus, net.n_line
        ref = np.zeros((2 * n, 2 * m))
        v, theta = x.v, x.theta
        for j, (k, l) in enumerate(net.line_ends.tolist()):
            c, s = np.cos(theta[k] - theta[l]), np.sin(theta[k] - theta[l])
            vkl = v[k] * v[l]
            ref[[k, l, n + k, n + l], j] = (vkl * c - v[k] ** 2,
                                            vkl * c - v[l] ** 2,
                                            vkl * s, -vkl * s)
            ref[[k, l, n + k, n + l], m + j] = (vkl * s, -vkl * s,
                                                v[k] ** 2 - vkl * c,
                                                v[l] ** 2 - vkl * c)
        jac = param_jacobian(line_model(case), net, x)
        assert jac.tobytes() == ref.tobytes()


def test_rank_hypothesis_load_always_satisfied(rng):
    case = random_case(rng)
    model = load_model(case)
    x = random_state(case.network, rng)
    report = check_rank_hypothesis(model, od.system_for_case(case), x)
    assert report.satisfied and report.rank == 8


def test_rank_hypothesis_shunt_premise_flag():
    fix = example1(1.0)
    model = shunt_model(fix.case)
    collapsed = SystemState(
        p_gen=fix.ground_truth.p_gen, q_gen=fix.ground_truth.q_gen,
        v=np.array([1.0, 0.0]), theta=fix.ground_truth.theta)
    report = check_rank_hypothesis(model, fix.system, collapsed)
    assert not report.satisfied
    assert report.voltage_premise_ok is False


def test_rank_hypothesis_line_flat_not_satisfied(ex3):
    model = line_model(ex3.case)
    report = check_rank_hypothesis(model, ex3.system, ex3.ground_truth)
    assert not report.satisfied and report.rank == 0


@pytest.mark.parametrize("scale", [2.0 ** -52, 1e-3, "split", 0.2])
@pytest.mark.parametrize("source", ["ex1", "grid"])
def test_rank_hypothesis_by_structure_matches_the_svd(ex1, lattice_document,
                                                      source, scale):
    # LOAD and SHUNT take their singular values from structure, LINE from
    # an SVD: each rank is numerical_rank of the parameter Jacobian, also
    # at scales that drop some values (ex1 at 0.2: diag(1, 2, 1, 2) has
    # rank 2) and at one that splits the grid's v^2 values in the middle
    case = ex1.case if source == "ex1" else od.load_case(lattice_document(8, 8, 0))
    net = case.network
    x = od.solve_power_flow(net, case.gen_p, case.gen_q, pf_tol=1e-10).state
    split = scale == "split"
    if split:
        v2 = x.v ** 2
        scale = np.median(v2) / v2.max() / (2 * net.n_bus)
    cs = od.system_for_case(case, rank_ulp_scale=scale)
    ranks = []
    for model in (load_model(case), shunt_model(case), line_model(case)):
        jac = param_jacobian(model, net, x)
        rank = numerical_rank(jac, ulp_scale=scale)[0]
        assert check_rank_hypothesis(model, cs, x).rank == rank
        ranks.append(rank)
    if split:
        assert 0 < ranks[1] < 2 * net.n_bus
    if source == "ex1" and scale == 0.2:
        assert ranks[1] == 2


def test_shunt_rank_tracks_voltage_threshold():
    fix = example1(1.0)
    model = shunt_model(fix.case)
    tiny = SystemState(
        p_gen=fix.ground_truth.p_gen, q_gen=fix.ground_truth.q_gen,
        v=np.array([1.0, 1e-12]), theta=fix.ground_truth.theta)
    jac = param_jacobian(model, fix.case.network, tiny)
    rank, _, tol, svals = numerical_rank(jac)
    assert rank < 4
    assert (tiny.v.min() ** 2) <= tol


def test_combined_model_rank_with_full_coverage(rng):
    case = random_case(rng)
    x = random_state(case.network, rng)
    n = case.network.n_bus
    load_jac = param_jacobian(load_model(case), case.network, x)
    shunt_jac = param_jacobian(shunt_model(case), case.network, x)

    def combined(load_buses, shunt_buses):
        # load (p, q) columns at some buses, shunt (g, -b) at the others
        return np.column_stack(
            [load_jac[:, [k, n + k]] for k in load_buses]
            + [shunt_jac[:, [k, n + k]] for k in shunt_buses])

    rank, *_ = numerical_rank(combined([0, 1], [2, 3]))
    assert rank == 8
    # dropping coverage of one bus loses two rows of reach
    rank_partial, *_ = numerical_rank(combined([0, 1], [2]))
    assert rank_partial == 6


def test_shunt_apply_round_trips_lumped_values(rng):
    case = random_case(rng)
    model = shunt_model(case)
    xi = np.linspace(-0.2, 0.3, model.dimension)
    applied = apply_parameters(model, case, xi)
    g, b = lumped_shunts(applied.network)
    n = case.network.n_bus
    assert np.abs(g - xi[:n]).max() <= 1e-15
    assert np.abs(-b - xi[n:]).max() <= 1e-15


def test_model_box_requires_positive_volume():
    with pytest.raises(PerturbationError, match="positive volume"):
        PerturbationModel(ModelKind.LOAD, np.array([[0.0, 0.0]]))


def test_model_dimension_checked_against_network(ex1):
    model = PerturbationModel(ModelKind.LOAD, np.array([[0.0, 1.0]] * 6))
    with pytest.raises(PerturbationError, match="dimension"):
        param_jacobian(model, ex1.case.network, ex1.ground_truth)


def test_default_load_box_floors_zero_nominals(ex1):
    model = load_model(ex1.case)
    box = model.box
    assert box[0].tolist() == [1.8, 2.2]     # 10 percent of 2
    assert box[1].tolist() == [-2.2, -1.8]
    assert box[2].tolist() == [-0.1, 0.1]    # floored at zero nominal
    assert box[3].tolist() == [-0.1, 0.1]


def test_genericity_experiment_deterministic(ex1):
    model = load_model(ex1.case)
    rep1 = run_genericity_experiment(ex1.case, model, trials=60, seed=7)
    rep2 = run_genericity_experiment(ex1.case, model, trials=60, seed=7)
    assert rep1.to_json() == rep2.to_json()
    assert rep1.to_csv() == rep2.to_csv()
    changed = run_genericity_experiment(ex1.case, model, trials=60, seed=8)
    assert changed.to_json() != rep1.to_json()


@pytest.mark.parametrize("kind", ["load", "shunt", "line"])
def test_genericity_report_independent_of_block_size(ex1, monkeypatch, kind):
    model = od.make_model(kind, ex1.case)
    stacked = run_genericity_experiment(ex1.case, model, trials=300, seed=7)
    monkeypatch.setattr(od.perturb, "BLOCK_JACOBIAN_BYTES", 1)
    assert od.perturb._block_size(ex1.case.network) == 1
    single = run_genericity_experiment(ex1.case, model, trials=300, seed=7)
    assert stacked.to_json() == single.to_json()
    assert stacked.to_csv() == single.to_csv()


def test_grid_shunt_sweep_independent_of_block_size(lattice_document,
                                                    monkeypatch):
    # N = 64: 35 trials a block by default, the last block of five
    case = od.load_case(lattice_document(8, 8, 0))
    model = shunt_model(case)
    assert od.perturb._block_size(case.network) == 35
    stacked = run_genericity_experiment(case, model, trials=40, seed=3)
    monkeypatch.setattr(od.perturb, "BLOCK_JACOBIAN_BYTES", 1)
    assert od.perturb._block_size(case.network) == 1
    single = run_genericity_experiment(case, model, trials=40, seed=3)
    assert stacked.to_json() == single.to_json()
    assert stacked.to_csv() == single.to_csv()


def test_face_free_sweep_failures_independent_of_block_size(lattice_document,
                                                           monkeypatch):
    # the 8x8 lattice with its voltage bands alone: every feasible trial is
    # decided by structure, and at rank scale 0.2 fails LICQ; each failure
    # assembles its own stack for the report, bit for bit as in a block of
    # one trial
    doc = lattice_document(8, 8, 0)
    doc["constraints"] = [c for c in doc["constraints"]
                          if c["target"] and c["target"]["var"] == "v"]
    case = od.load_case(doc)
    model = shunt_model(case)
    stacked = run_genericity_experiment(case, model, trials=13, seed=3,
                                        rank_ulp_scale=0.2)
    assert stacked.licq_pass_count == 0
    assert len(stacked.failures) == stacked.feasible_count == 12
    monkeypatch.setattr(od.perturb, "BLOCK_JACOBIAN_BYTES", 1)
    single = run_genericity_experiment(case, model, trials=13, seed=3,
                                       rank_ulp_scale=0.2)
    assert stacked.to_json() == single.to_json()
    assert stacked.to_csv() == single.to_csv()


def test_sweep_block_holds_no_dense_admittances(lattice_document):
    # a 32-trial block of the 8x8 lattice under the shunt model, with its
    # voltage bands alone (no face, no h row): its flow data are line
    # lists, so beyond its Newton matrices (the band storage _block_size
    # counts) a block holds less than the dense G, B and complex Yc of an
    # 8-trial block did, 32 N^2 bytes a trial
    doc = lattice_document(8, 8, 0)
    doc["constraints"] = [c for c in doc["constraints"]
                          if c["target"] and c["target"]["var"] == "v"]
    case = od.load_case(doc)
    net, trials = case.network, 32
    cs = od.system_for_case(case)
    model = shunt_model(case)
    flow = od.perturb._flow_of_draws(model, case)(
        od.perturb._draws(3, range(trials), model.box))
    _, cols, band = powerflow._newton_system(net)
    newton = cols.size * (cols.size if band is None
                          else 2 * band[0] + band[1] + 1)
    tracemalloc.start()
    try:
        states = od.perturb.newton_states(
            net, *flow, case.gen_p, case.gen_q, pf_tol=cs.pf_tol)
        verdicts = od.cqkit.licq_checks(cs, states.x, flow)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not states.kind.any()
    assert np.count_nonzero(verdicts.licq_holds) > trials // 2
    assert peak - trials * newton * 8 < 8 * 32 * net.n_bus ** 2


def test_genericity_report_independent_of_draw_chunks(ex1, monkeypatch):
    # blocks of 7 trials, draws in chunks of 21: a 300-trial sweep makes 15
    # _draws calls, the last chunk and block partial
    model = shunt_model(ex1.case)
    whole = run_genericity_experiment(ex1.case, model, trials=300, seed=7)
    monkeypatch.setattr(od.perturb, "_block_size", lambda net: 7)
    monkeypatch.setattr(od.perturb, "DRAW_CHUNK_BYTES",
                        8 * len(model.box) * 7 * 3)
    assert od.perturb._draw_chunk(7, len(model.box)) == 21
    calls = []
    draws = od.perturb._draws
    monkeypatch.setattr(od.perturb, "_draws",
                        lambda *a: calls.append(a[1]) or draws(*a))
    chunked = run_genericity_experiment(ex1.case, model, trials=300, seed=7)
    assert calls[-2:] == [range(273, 294), range(294, 300)]
    assert len(calls) == 15
    assert whole.to_json() == chunked.to_json()
    assert whole.to_csv() == chunked.to_csv()


def test_draw_chunk_bounds_the_draws_by_bytes_not_trials():
    assert od.perturb._draw_chunk(2048, 4) == 32768      # ex1: one call
    assert od.perturb._draw_chunk(2, 128) == 1024        # 8x8 grid shunt
    assert od.perturb._draw_chunk(1, 10**6) == 1         # at least a block
    assert od.perturb._draw_chunk(1, 0) >= 1             # no lines: k = 0


def reference_sweep(case, model, trials, seed, **tols):
    """The sweep's records and failures from a per-trial loop: each draw is
    written into its own case (apply_parameters), solved alone and checked
    on its own constraint system."""
    cs = od.system_for_case(case, **tols)
    records, failures = [], []
    for t in range(trials):
        xi = trial_draw(seed, t, model.box)
        net = apply_parameters(model, case, xi).network
        try:
            x = od.solve_power_flow(net, case.gen_p, case.gen_q,
                                    pf_tol=cs.pf_tol).state
        except od.PowerFlowError:
            records.append(TrialRecord(t, False, False, None, None))
            continue
        try:
            report = licq_check(replace(cs, net=net), x)
        except InfeasiblePointError:
            records.append(TrialRecord(t, True, False, None, None))
            continue
        if not report.licq_holds:
            failures.append({"trial": t, "seed": seed, "xi": xi.tolist(),
                             "state": x.flat().tolist(),
                             "cq_report": report.to_dict()})
        records.append(TrialRecord(t, True, True, report.licq_holds,
                                   report.sigma_min))
    return records, failures


def band_case():
    """Shunted random network with a voltage band of half-width 0.002
    around bus 2's nominal voltage, checked with act_tol = 0.004: a trial
    near the band's centre has both bounds active, so its stack repeats a
    row and fails LICQ; the others sit on one bound or are infeasible."""
    net = random_network(5, np.random.default_rng([0, 99]))
    case = Case(network=net, gen_p=np.zeros(5), gen_q=np.zeros(5))
    v = od.solve_power_flow(net, case.gen_p,
                            case.gen_q, pf_tol=1e-10).state.v[2]
    at = state_index("v", 2, 5)
    band = (BoxUpper(index=at, bound=float(v) + 0.002),
            BoxLower(index=at, bound=float(v) - 0.002))
    return replace(case, constraints=band), {"act_tol": 0.004}


@pytest.mark.parametrize("source", ["ex1", "band"])
@pytest.mark.parametrize("kind", ["load", "shunt", "line"])
def test_block_sweep_matches_per_trial_reference(ex1, source, kind):
    case, tols = (ex1.case, {}) if source == "ex1" else band_case()
    model = od.make_model(kind, case)
    report = run_genericity_experiment(case, model, trials=200, seed=7, **tols)
    records, failures = reference_sweep(case, model, 200, 7, **tols)
    # repr compares sigma_min bit for bit
    assert [repr(r) for r in report.records] == [repr(r) for r in records]
    assert (json.dumps(report.failures, sort_keys=True)
            == json.dumps(failures, sort_keys=True))
    outcomes = {(r.converged, r.feasible, r.licq_holds) for r in records}
    if source == "ex1":
        # no LICQ failure on ex1 (see the tangent-family test)
        assert outcomes == {(False, False, None), (True, False, None),
                            (True, True, True)}
    else:
        assert {(True, True, True), (True, True, False)} <= outcomes
        faces = {tuple(f["cq_report"]["face"]) for f in failures}
        assert faces == {(0, 1)}


def test_block_sweep_matches_reference_on_a_multiword_seed(ex1):
    # a seed of two 32-bit words puts the trial at the third entropy word
    model = shunt_model(ex1.case)
    seed = 123456789012345
    report = run_genericity_experiment(ex1.case, model, trials=20, seed=seed)
    records, failures = reference_sweep(ex1.case, model, 20, seed)
    assert [repr(r) for r in report.records] == [repr(r) for r in records]
    assert list(report.failures) == failures == []


# Every bench/reference.json seed, then seeds of two, two and four 32-bit
# words; with four, the trial is an entropy word past SeedSequence's pool.
DRAW_SEEDS = [*range(32), 42, 2**32, 2**40 + 1, 2**100 + 7]


def draw_box(rng, k):
    """k intervals with negative lows and widths from 1e-9 to 10."""
    low = -rng.uniform(0.0, 10.0, k)
    return np.column_stack([low, low + 10.0 ** rng.uniform(-9.0, 1.0, k)])


@pytest.mark.parametrize("seed", DRAW_SEEDS)
def test_draws_are_default_rng_uniform_bit_for_bit(seed):
    # numpy does not promise that uniform computes lo + (hi - lo) * u
    # unfused; on a platform whose kernel fuses the multiply-add this test
    # fails instead of the sweep's draws drifting silently
    rng = np.random.default_rng([seed, 1])
    for k in (1, 4, 9, 128):
        box = draw_box(rng, k)
        expected = np.array([trial_draw(seed, t, box) for t in range(1000)])
        assert np.array_equal(_draws(seed, range(1000), box).view(np.uint64),
                              expected.view(np.uint64)), k
        # a later range gives the same rows as the whole sweep
        assert np.array_equal(_draws(seed, range(400, 1000), box),
                              expected[400:]), k


def test_draw_boxes_tell_a_fused_uniform_apart():
    # rounded once instead of twice, lo + (hi - lo) * u comes out different
    # in some draws of draw_box's intervals, so the bit-for-bit test would
    # see a fused kernel
    box = draw_box(np.random.default_rng([0, 1]), 128)
    unit = np.tile([0.0, 1.0], (128, 1))
    u = np.array([trial_draw(0, t, unit) for t in range(20)])
    fused = np.array([[float(Fraction(lo) + Fraction(hi - lo) * Fraction(x))
                       for (lo, hi), x in zip(box, row)] for row in u])
    assert (fused != _draws(0, range(20), box)).any()


def test_draws_reject_a_negative_seed_and_a_two_word_trial():
    box = np.array([[0.0, 1.0]])
    with pytest.raises(PerturbationError, match="seed"):
        _draws(-1, range(1), box)
    # trial 2**32 would take two entropy words, the kernel gives it one
    with pytest.raises(PerturbationError, match="2\\*\\*32"):
        _draws(0, range(2**32 + 1), box)


@pytest.mark.parametrize("trials, seed, match", [
    (-1, 1, "trials"), (0, -1, "seed"), (2**32 + 1, 1, "2\\*\\*32")])
def test_genericity_experiment_rejects_bad_trials_and_seed(ex1, trials, seed,
                                                           match):
    with pytest.raises(PerturbationError, match=match):
        run_genericity_experiment(ex1.case, load_model(ex1.case),
                                  trials=trials, seed=seed)


# seeds of one to four 32-bit words: the pool is zero-filled, exactly
# filled, or mixed with the trial past its size
@pytest.mark.parametrize("seed", [0, 42, 2**32, 2**64, 2**100 + 7,
                                  2**128 - 1])
def test_draw_stages_match_seed_sequence_and_pcg64(seed):
    ts = np.array([0, 1, 2, 999, 2**32 - 1], dtype=np.uint64)
    pool = _seed_pool(seed, ts)
    words = _generate_state(pool)
    hi, lo, inc_hi, inc_lo = _pcg64_seeded(seed, ts)
    for i, t in enumerate(ts.tolist()):
        ss = np.random.SeedSequence([seed, t])
        assert [int(p[i]) for p in pool] == ss.pool.tolist()
        assert ([int(w[i]) for w in words]
                == ss.generate_state(4, np.uint64).tolist())
        state = np.random.PCG64(ss).state["state"]
        assert int(hi[i]) << 64 | int(lo[i]) == state["state"]
        assert int(inc_hi[i]) << 64 | int(inc_lo[i]) == state["inc"]


def test_genericity_experiment_zero_trials(ex1):
    model = load_model(ex1.case)
    rep = run_genericity_experiment(ex1.case, model, trials=0, seed=1)
    assert rep.trials == 0
    assert rep.feasible_count == 0
    assert rep.licq_pass_count == 0
    assert rep.sigma_min_sorted == ()


def test_genericity_experiment_no_failures_on_tangent_family(ex1):
    model = load_model(ex1.case)
    rep = run_genericity_experiment(ex1.case, model, trials=200, seed=7)
    assert rep.feasible_count > 0
    assert rep.licq_pass_count == rep.feasible_count
    assert not rep.failures
    assert min(rep.sigma_min_sorted) > 1e-6
    assert rep.hypothesis is not None and rep.hypothesis.satisfied


def test_genericity_line_experiment_flagged_outside_hypotheses(ex3):
    model = line_model(ex3.case)
    rep = run_genericity_experiment(ex3.case, model, trials=5, seed=1)
    assert rep.hypothesis is not None
    assert not rep.hypothesis.satisfied
    assert rep.to_dict()["hypothesis"]["satisfied"] is False


def test_genericity_counts_nonconvergent_trials(ex1):
    # a box far beyond the transfer capability forces failed solves
    box = np.array([[1.8, 2.2], [-9.0, -8.0], [-0.1, 0.1], [-0.1, 0.1]])
    model = PerturbationModel(ModelKind.LOAD, box)
    rep = run_genericity_experiment(ex1.case, model, trials=10, seed=3)
    assert rep.trials == 10
    assert rep.feasible_count == 0
    assert any(not r.converged for r in rep.records)


@pytest.mark.parametrize("source, kind, trials, seed", [
    ("ex1", "load", 1000, 0), ("ex1", "load", 1000, 42),
    ("ex1", "shunt", 1000, 0), ("ex1", "line", 1000, 0),
    ("ex2", "load", 300, 0), ("ex2", "load", 300, 5), ("ex2", "load", 300, 9),
    ("grid8", "shunt", 200, 0)])
def test_stall_rule_leaves_sweep_reports_unchanged(ex1, ex2, monkeypatch,
                                                   source, kind, trials,
                                                   seed):
    # with STALL_STEPS past the budget no trial stalls, as before the rule:
    # stopping a stalled trial early changes no verdict and no byte
    case = {"ex1": ex1.case, "ex2": ex2.case}.get(source) or od.load_case(
        bench_grid_document(8, 0, shunts=True))
    model = od.make_model(kind, case)

    def texts():
        rep = run_genericity_experiment(case, model, trials=trials, seed=seed)
        return rep.to_json(), rep.to_csv(), rep

    *stalling, rep = texts()
    monkeypatch.setattr(powerflow, "STALL_STEPS", powerflow.MAX_ITER + 1)
    *budget, _ = texts()
    assert stalling == budget
    if kind == "load":
        # the load boxes reach past the nose: trials fail to converge
        assert any(not r.converged for r in rep.records)


# sha256 of the JSON and CSV reports of each sweep of CI's sweep
# determinism step, recorded before a sweep kept its trials as columns
# (numpy 2.4 on x86-64); GRID8 is bench/grid.py's 8 x 8 shunt grid, and at
# rank scale 0.2 every one of its trials fails LICQ and is written with its
# report under failures[].
GOLDEN_SWEEPS = {
    "load": ("--builtin ex1 --model load --trials 1000 --seed 42",
             "b579c9cd4fd3e55c33e82a8939b45815ddddebcaa6284b5bcdcab1594797940b",
             "016e91a6de10ee2cf0c978d7fcacf4e987a11c2cdda9c3e84ae63621543013c1"),
    "shunt": ("--builtin ex1 --model shunt --trials 300 --seed 7",
              "5cce549f71c4d43c56dc5f58c0f6a7e474fa54790e190959187bbb4366bb3faa",
              "399625e9a70b81193783aa97d5eae4ca3eeb59aa5e2b8a1a58d93d96bb11f5a6"),
    "line": ("--builtin ex3 --model line --trials 300 --seed 7",
             "badbbdbeba2431dbebdd73aeeea163803dd3c6c9297b58bab918506493d7bfa0",
             "df2f6e24906bb2442a77d3cf78b5d6e4254785d1914c298b9891af0bb3748911"),
    "bigseed": (
        "--builtin ex1 --model shunt --trials 300 --seed 123456789012345",
        "1fb4ba82bbd804452dbc247771670afb9d6dac5f2d96550e1ffcd177f11e5f8e",
        "968006efd3b4f9c542b1c3e1c2f985b122be445681e80fdc49ffad422959dfab"),
    "grid8shunt": (
        "--case GRID8 --model shunt --trials 200 --seed 0",
        "3fa3b30fb2be8bc7910510667da2aae81b80eb520ef1469a40421b262f0f70d5",
        "daae66ccd2d1b75554912d731741277ec2035326eead18f4ac1c8a23ada63319"),
    "grid8tol": (
        "--case GRID8 --model shunt --trials 5 --seed 0 --rank-tol-scale 0.2",
        "3a70d35caa62e13dbfc0191ec41d626f5a4ce4e494714b44b689de8c97eb9c66",
        "28821858c3888c319d50045ec6deb5266bdc9e65816368d8d73e85206762d146"),
}


@pytest.mark.parametrize("name", list(GOLDEN_SWEEPS))
def test_sweep_reports_keep_their_bytes(tmp_path, capsys, name):
    args, json_sha, csv_sha = GOLDEN_SWEEPS[name]
    grid = tmp_path / "grid8.json"
    grid.write_text(json.dumps(bench_grid_document(8, 0, shunts=True)))
    out = tmp_path / f"{name}.json"
    argv = [str(grid) if a == "GRID8" else a for a in args.split()]
    assert cli.main(["perturb", *argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert [hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (out, out.with_suffix(".csv"))] == [json_sha, csv_sha]


# sha256 of the reports of CI's checks, of the default tangency probe, of
# ybus on GRID8S (bench/grid.py's 8 x 8 shunt grid) and of a check and two
# sweeps of COLS (tests/netgen.py's every_column_document), recorded while
# the network was a tuple of per-bus and per-line records (numpy 2.4 on
# x86-64). GRIDn is bench/grid.py's shunt-free n x n grid. Each entry is
# (arguments, exit code, sha256 of the JSON report[, of the CSV]).
GOLDEN_REPORTS = {
    "check-ex1": ("check --builtin ex1", 3,
        "40c4256b5553cd6f26a555483f08eee634180a6d138d2ac00a4110db276b8b66"),
    "check-ex2": ("check --builtin ex2", 3,
        "9a34756773267d46094d4969bb9be8ccea4ac4a5cebdb8d3df19e69480935aac"),
    "check-ex1-shift": ("check --builtin ex1 --perturb-load 1:+0.05", 0,
        "29c4815d8a978616bee8a7b5d968a78b119109466dc30f72caa1980b53984409"),
    "check-grid8": ("check --case GRID8", 0,
        "b249279be574b6c3884965b3d72d90883c191e68113ea3cc272be3727d1dd161"),
    "check-grid8-jac": ("check --case GRID8 --emit-jacobian", 0,
        "5ca8e3b7cc67febe5f9eedd693da92cca3a211a83392d0761fd48c17c387eb8f"),
    "check-grid12": ("check --case GRID12", 0,
        "d6d683f4aad691c2db61e03721511b87195c6918c7e6748694030986d908d948"),
    "check-grid12-jac": ("check --case GRID12 --emit-jacobian", 0,
        "23a0cc7c3941bc8d91bd60f3e92c5d38977030bd607f37ae89a3f87c3d104840"),
    "check-grid24": ("check --case GRID24", 0,
        "aaead5194156635f8e7b0bb52f330542cee8f44ef1b5e2093bf5ec71f25bbf0e"),
    "check-grid24-jac": ("check --case GRID24 --emit-jacobian", 0,
        "a96ea24c1df2c179ce8c1e6e1bd0434fab39393983ca2a9c8e187eab211a8392"),
    "sweep": ("sweep", 0,
        "22ab5467e3e114f5afb5085ace7d6cf025a87ac7332ff0efd81eac3dfc6222d9"),
    "ybus-grid8s": ("ybus --case GRID8S", 0,
        "a3fa6a0e6002bd9a583c339b3ee91906e5dc6a551e3f253875bf1bb6adfca24d"),
    "check-cols": ("check --case COLS", 0,
        "4838742e7d622e23efd47207833f871d17b9bbc7933c4cec64cb2201fa0c0cdd"),
    "perturb-cols-line": (
        "perturb --case COLS --model line --trials 50 --seed 0", 0,
        "7387e765c6817c082414fe0c4e81216941b4f735437c6257c530f9cf8213e27c",
        "e43439cd283145d5aeac3f3a8f2cf79eaa0807b8e3273ee75addb767c9a169ad"),
    "perturb-cols-shunt": (
        "perturb --case COLS --model shunt --trials 50 --seed 0", 0,
        "992c6358643f2fe63a2c1462896925c22ccaf1e589ceed728c7a80d08f54f772",
        "e43439cd283145d5aeac3f3a8f2cf79eaa0807b8e3273ee75addb767c9a169ad"),
}


@pytest.mark.parametrize("name", list(GOLDEN_REPORTS))
def test_reports_keep_their_bytes(tmp_path, capsys, name):
    args, code, *shas = GOLDEN_REPORTS[name]
    docs = {"COLS": every_column_document,
            "GRID8S": lambda: bench_grid_document(8, 0, shunts=True)}
    docs.update((f"GRID{side}",
                 lambda side=side: bench_grid_document(side, 0, shunts=False))
                for side in (8, 12, 24))
    argv = []
    for arg in args.split():
        if arg in docs:
            path = tmp_path / f"{arg}.json"
            path.write_text(json.dumps(docs[arg]()))
            arg = str(path)
        argv.append(arg)
    out = tmp_path / "report.json"
    assert cli.main([*argv, "--out", str(out)]) == code
    capsys.readouterr()
    assert [hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (out, out.with_suffix(".csv"))[:len(shas)]] == shas


def count_constructions(monkeypatch, cls) -> list:
    """The classes of the instances of ``cls`` and its subclasses built
    while the test runs, counted at ``cls.__init__``."""
    made, init = [], cls.__init__

    def counting(self, *args, **kwargs):
        made.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)
    return made


@pytest.mark.parametrize("scale", [2.0 ** -52, 0.2])
def test_sweep_builds_no_object_per_trial(ex1, monkeypatch, scale):
    # the seed-42 load sweep has 206 non-converged, 490 infeasible and 304
    # checked trials; at rank scale 0.2 every checked trial fails LICQ.
    # Only a LICQ failure's report is built, and the records when read.
    reports = count_constructions(monkeypatch, cqkit.CQReport)
    records = count_constructions(monkeypatch, TrialRecord)
    infeasible = count_constructions(monkeypatch, InfeasiblePointError)
    solves = count_constructions(monkeypatch, od.PowerFlowError)
    rep = run_genericity_experiment(ex1.case, load_model(ex1.case),
                                    trials=1000, seed=42,
                                    rank_ulp_scale=scale)
    assert rep.feasible_count == 304
    assert len(rep.failures) == (304 if scale == 0.2 else 0)
    assert len(reports) == len(rep.failures)
    assert records == infeasible == solves == []
    assert sum(not r.converged for r in rep.records) == 206
    assert rep.records is rep.records
    assert len(records) == 1000


def test_sweep_plans_the_newton_system_once(monkeypatch):
    # the nominal solve, _block_size and every block of the 200-trial
    # 8 x 8 shunt sweep share the network's one plan
    case = od.load_case(bench_grid_document(8, 0, shunts=True))
    plans = []
    real = powerflow._newton_system
    monkeypatch.setattr(powerflow, "_newton_system",
                        lambda net: plans.append(net) or real(net))
    run_genericity_experiment(case, shunt_model(case), trials=200, seed=0)
    assert len(plans) == 1 and plans[0] is case.network


def test_csv_columns(ex1):
    model = load_model(ex1.case)
    rep = run_genericity_experiment(ex1.case, model, trials=5, seed=2)
    lines = rep.to_csv().strip().splitlines()
    assert lines[0] == "trial,seed,feasible,licq,sigma_min"
    assert len(lines) == 6


def test_tangency_probe_flags_only_zero_delta(ex1):
    deltas = [0.0, 1e-3, -1e-3, 1e-2, -1e-2, 1e-1, -1e-1]
    rows = tangency_escape_probe(ex1.case, ex1.ground_truth, deltas,
                                 direction=1)
    by_delta = {r.delta: r for r in rows}
    assert all(r.converged for r in rows)
    assert by_delta[0.0].licq_holds is False
    assert by_delta[0.0].sigma_min <= 1e-12
    for d in deltas[1:]:
        assert by_delta[d].licq_holds is True
        assert by_delta[d].sigma_min > 1e-6


def test_tangency_probe_small_escape(ex1):
    rows = tangency_escape_probe(ex1.case, ex1.ground_truth,
                                 [0.05, -0.05], direction=1)
    assert all(r.licq_holds for r in rows)


def test_tangency_probe_margin_trend_recorded(ex1):
    # on the pinned side the margin grows with the shift; recorded as a
    # numerical observation over the swept deltas
    rows = tangency_escape_probe(ex1.case, ex1.ground_truth,
                                 [1e-3, 1e-2, 1e-1], direction=1)
    margins = [r.sigma_min for r in rows]
    assert margins == sorted(margins)


def capped_ex1(ex1):
    """ex1 with a cap of 1.05 on the slack's p."""
    doc = case_document(ex1.case)
    doc["constraints"].append({"kind": "box_upper",
                               "target": {"var": "p", "bus": 0},
                               "params": {"bound": 1.05}})
    return od.load_case(json.dumps(doc))


def test_probe_leaves_feasibility_to_the_check(ex1):
    # a cap on the slack's p that holds after the first projection but not
    # after the second, which pins the voltage cap: the projection returns
    # its point, the check rejects it and the probe reports no convergence
    case = capped_ex1(ex1)
    cs = od.system_for_case(shift_load(case, 1, 0.01))
    state, pinned = nearest_feasible_point(cs, ex1.ground_truth)
    assert pinned and state is not None
    with pytest.raises(InfeasiblePointError, match=r"g:1 = 5\.487e-02"):
        licq_check(cs, state)
    # a shift of -3 takes the load past the nose: Gauss-Newton finds no
    # point, and the row's reason tells the two failures apart
    rows = tangency_escape_probe(case, ex1.ground_truth, [0.0, 0.01, -3.0],
                                 direction=1)
    assert [(r.converged, r.licq_holds, r.bound_pinned, r.reason)
            for r in rows] == [(True, False, False, None),
                               (False, None, True, "infeasible:g:1"),
                               (False, None, False, "projection_failed")]
    assert [r.to_dict()["reason"] for r in rows] == [
        None, "infeasible:g:1", "projection_failed"]


def test_probe_stops_where_the_projection_leaves_a_domain(ex2):
    # at +0.05 a Gauss-Newton trial step of the pinned projection reaches
    # v2 < 0, outside the load coupling's domain: the row is not converged
    rows = tangency_escape_probe(ex2.case, ex2.ground_truth,
                                 [-0.05, 0.0, 0.05], direction=1)
    assert [(r.delta, r.converged, r.licq_holds, r.reason) for r in rows] == [
        (-0.05, True, True, None), (0.0, True, False, None),
        (0.05, False, None, "projection_failed")]


@pytest.mark.parametrize("capped, delta, flat, pinned", [
    (False, 0.05, [1.2472048604328894, -1.1972048604328893,
                   -0.1972048604328896, 0.8027951395671107, 1.0,
                   1.4142135623730951, 0.0, 0.5613228780956294], True),
    (False, 0.01, [1.1048749218090692, -1.0948749218090692,
                   -0.09487492180906971, 0.9051250781909307, 1.0,
                   1.4142135623730951, 0.0, 0.6853564497541892], True),
    (False, -0.3, [1.0664695694848014, -1.3664695694848012,
                   0.39022128704841247, 0.633530430515199, 1.0,
                   1.1150377318578895, 0.0, 0.9921773599152077], False),
    (True, 0.01, [1.1048749218090692, -1.0948749218090692,
                  -0.09487492180906971, 0.9051250781909307, 1.0,
                  1.4142135623730951, 0.0, 0.6853564497541892], True),
], ids=["+0.05", "+0.01", "-0.3", "capped+0.01"])
def test_projection_is_pinned_bitwise(ex1, capped, delta, flat, pinned):
    # points recorded from the projection when it assembled its residual
    # and Jacobian from pf_residual/pf_jacobian and full-width rows; any
    # reordering of its rows or columns shows up here as a changed bit
    case = capped_ex1(ex1) if capped else ex1.case
    cs = od.system_for_case(shift_load(case, 1, delta))
    state, bound_pinned = nearest_feasible_point(cs, ex1.ground_truth)
    assert state.flat().tolist() == flat
    assert bound_pinned is pinned


@pytest.mark.parametrize("side, bus, delta, pinned, face", [
    (3, 1, 0.05, True, (2, 5, 8, 11)),
    (3, 1, -0.05, False, ()),
    (3, 8, 0.2, True, (2, 5, 8, 11)),
    (6, 1, 0.05, True, (2, 5, 8, 11)),
    (6, 1, -0.05, False, ()),
    (6, 35, 0.2, True, (5, 8, 11)),
], ids=["3x3-bus1+0.05", "3x3-bus1-0.05", "3x3-last+0.2", "6x6-bus1+0.05",
        "6x6-bus1-0.05", "6x6-last+0.2"])
def test_projection_beyond_two_buses(lattice_document, side, bus, delta,
                                     pinned, face):
    # from a lattice's solved point onto the case with one p load shifted:
    # where the first projection pushes p above the caps of buses 1 to 4
    # (g:2, g:5, g:8, g:11), the second pins them, and the check accepts
    # the point with LICQ on its face
    case = od.load_case(lattice_document(side, side, 0))
    base = od.system_for_case(case)
    x0 = od.solve_power_flow(case.network, case.gen_p, case.gen_q,
                             pf_tol=base.pf_tol).state
    cs = od.system_for_case(shift_load(case, bus, delta))
    state, bound_pinned = nearest_feasible_point(cs, x0)
    assert bound_pinned is pinned
    report = licq_check(cs, state)
    assert report.face == face
    assert report.licq_holds


@pytest.mark.parametrize("direction, name", [(1, "p_load"), (3, "q_load")])
def test_shift_load_past_the_float_range_is_rejected(ex1, direction, name):
    doc = case_document(ex1.case)
    doc["buses"][1][name] = 1e308
    case = od.load_case(json.dumps(doc))
    assert shift_load(case, direction, -1e308).network.p_load[1] == (
        0.0 if name == "p_load" else -2.0)
    with pytest.raises(PerturbationError) as err:
        shift_load(case, direction, 1e308)
    assert str(err.value) == (f"{name} of bus 1 shifted by 1e+308 is inf; a "
                              "load must be a finite number")


def test_probe_rejects_bad_direction(ex1):
    with pytest.raises(PerturbationError, match="direction"):
        tangency_escape_probe(ex1.case, ex1.ground_truth, [0.0], direction=9)
