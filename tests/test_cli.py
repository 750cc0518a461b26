import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opfdiag as od
from opfdiag import constraints as con
from opfdiag import cqkit
from opfdiag.cli import (EXIT_INFEASIBLE, EXIT_INPUT, EXIT_LICQ_FAILS,
                         EXIT_OK, EXIT_REPRO_MISMATCH, main)

from netgen import case_document


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ybus_builtin_ex1(capsys):
    code, out, _ = run(capsys, "ybus", "--builtin", "ex1")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload == {"G": [[0.0, 0.0], [0.0, 0.0]],
                       "B": [[-1.0, 1.0], [1.0, -1.0]]}


def test_ybus_single_bus_case(capsys, tmp_path):
    doc = {"buses": [{"id": 0, "type": "slack", "g_shunt": 0.1,
                      "b_shunt": 0.2}], "lines": []}
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "ybus", "--case", str(path))
    assert code == EXIT_OK
    assert json.loads(out) == {"G": [[0.1]], "B": [[0.2]]}


def test_ybus_malformed_case_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"buses": [{"id": 0, "type": "nope"}]}')
    code, _, err = run(capsys, "ybus", "--case", str(path))
    assert code == EXIT_INPUT
    assert "buses[0].type" in err


def test_check_requires_an_input(capsys):
    code, _, err = run(capsys, "check")
    assert code == EXIT_INPUT
    assert "--case or --builtin" in err


def test_check_ex1_reports_ray_and_exit_3(capsys):
    code, out, _ = run(capsys, "check", "--builtin", "ex1", "--alpha", "1")
    assert code == EXIT_LICQ_FAILS
    payload = json.loads(out)
    assert payload["cq"]["licq_holds"] is False
    assert payload["cq"]["numerical_rank"] == 5
    assert payload["kkt"]["classification"] == "RAY"
    assert payload["kkt"]["zeta_interval"] == [0.0, "inf"]
    assert payload["tolerances"]["stat_tol"] == 1e-8


def test_check_ex1_perturbed_load_unique_and_exit_0(capsys):
    code, out, _ = run(capsys, "check", "--builtin", "ex1", "--alpha", "1",
                       "--perturb-load", "1:+0.05")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["cq"]["licq_holds"] is True
    assert payload["kkt"]["classification"] == "UNIQUE"


def test_check_ex2_reduced_fixed_failure(capsys):
    code, out, _ = run(capsys, "check", "--builtin", "ex2")
    assert code == EXIT_LICQ_FAILS
    payload = json.loads(out)
    assert payload["cq"]["licq_holds"] is False
    assert payload["cq"]["numerical_rank"] == 1
    assert payload["kkt"]["classification"] == "NONE"
    assert payload["kkt"]["stationarity_residual"] >= 0.1


def test_check_ex2_applies_eq_tol(capsys):
    # |h| is about 5.6e-16 at the crossing point, so an equality tolerance
    # below that makes the point infeasible
    code, out, err = run(capsys, "check", "--builtin", "ex2",
                         "--eq-tol", "1e-30")
    assert code == EXIT_INFEASIBLE
    assert out == ""
    assert "infeasible" in err
    assert "|h:0| = 5.551e-16 > eq_tol = 1e-30" in err


def test_check_infeasible_state_exits_4(capsys, tmp_path, ex1):
    state = np.array(ex1.ground_truth.flat().tolist())
    state[0] += 0.5  # break the slack real balance
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state.tolist()))
    doc_path = tmp_path / "case.json"
    doc_path.write_text(json.dumps(case_document(ex1.case)))
    code, _, err = run(capsys, "check", "--case", str(doc_path),
                       "--state", str(path))
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in err
    assert "|flow:p:0| = 5.000e-01 > pf_tol = 1e-10" in err


def test_check_infeasible_names_violated_cap(capsys, tmp_path, ex1):
    doc = case_document(ex1.case)
    cap = doc["constraints"][1]
    assert cap["kind"] == "box_upper" and cap["target"]["var"] == "v"
    cap["params"]["bound"] -= 0.01
    doc_path = tmp_path / "case.json"
    doc_path.write_text(json.dumps(doc))
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(ex1.ground_truth.flat().tolist()))
    code, out, err = run(capsys, "check", "--case", str(doc_path),
                         "--state", str(state_path))
    assert code == EXIT_INFEASIBLE
    assert out == ""
    assert "worst violation g:0 = 1.000e-02 > act_tol = 1e-06" in err


def test_check_unsolvable_flow_exits_4(capsys, tmp_path, ex1):
    # every exit 4 comes from the InfeasiblePointError handler in main
    doc = case_document(ex1.case)
    doc["buses"][1]["p_load"] = -50.0  # far beyond what the line can carry
    doc_path = tmp_path / "case.json"
    doc_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", "--case", str(doc_path))
    assert code == EXIT_INFEASIBLE
    assert out == ""
    assert err.startswith("infeasible: power flow failed: ")


def test_check_file_case_round_trip(capsys, tmp_path, ex1):
    doc_path = tmp_path / "case.json"
    doc_path.write_text(json.dumps(case_document(ex1.case)))
    code, out, _ = run(capsys, "check", "--case", str(doc_path))
    payload = json.loads(out)
    # the re-solved point sits a solver tolerance away from the exact
    # tangency: the stack is technically full rank but the degeneracy
    # margin collapses to the solver's accuracy
    assert code == EXIT_OK
    assert payload["cq"]["licq_holds"] is True
    assert payload["cq"]["sigma_min"] <= 1e-8


def test_check_file_case_with_exact_state(capsys, tmp_path, ex1):
    doc_path = tmp_path / "case.json"
    doc_path.write_text(json.dumps(case_document(ex1.case)))
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(ex1.ground_truth.flat().tolist()))
    code, out, _ = run(capsys, "check", "--case", str(doc_path),
                       "--state", str(state_path))
    assert code == EXIT_LICQ_FAILS
    payload = json.loads(out)
    assert payload["cq"]["numerical_rank"] == 5
    assert payload["kkt"]["classification"] == "RAY"


def test_check_rejects_both_inputs(capsys, tmp_path):
    path = tmp_path / "case.json"
    path.write_text("{}")
    code, _, err = run(capsys, "check", "--case", str(path),
                       "--builtin", "ex1")
    assert code == EXIT_INPUT


def test_check_bad_perturb_spec(capsys):
    code, _, err = run(capsys, "check", "--builtin", "ex1",
                       "--perturb-load", "oops")
    assert code == EXIT_INPUT
    assert "BUS:DELTA" in err


def test_perturb_zero_trials_empty_report(capsys):
    code, out, _ = run(capsys, "perturb", "--builtin", "ex1",
                       "--model", "load", "--trials", "0", "--seed", "1")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["trials"] == 0
    assert payload["feasible_count"] == 0


def test_perturb_writes_json_and_csv(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "perturb", "--builtin", "ex1", "--model", "load",
                     "--trials", "25", "--seed", "42", "--out", str(out_path))
    assert code == EXIT_OK
    payload = json.loads(out_path.read_text())
    assert payload["rng_seed"] == 42
    assert payload["licq_failure_count"] == 0
    assert "tolerances" in payload
    csv_text = out_path.with_suffix(".csv").read_text()
    assert csv_text.splitlines()[0] == "trial,seed,feasible,licq,sigma_min"


def test_perturb_csv_format_stdout(capsys):
    code, out, _ = run(capsys, "perturb", "--builtin", "ex1",
                       "--model", "load", "--trials", "5", "--seed", "3",
                       "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "trial,seed,feasible,licq,sigma_min"
    assert len(out.strip().splitlines()) == 6


def test_perturb_line_model_flagged(capsys):
    code, out, _ = run(capsys, "perturb", "--builtin", "ex3",
                       "--model", "line", "--trials", "3", "--seed", "1")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["hypothesis"]["satisfied"] is False


@pytest.mark.parametrize("buses", [
    [{"id": 0, "type": "slack"}],
    [{"id": 0, "type": "slack"}, {"id": 1, "type": "pq"}],
])
@pytest.mark.filterwarnings("ignore:line graph is not connected")
def test_perturb_line_model_on_a_network_without_lines(capsys, tmp_path,
                                                       buses):
    # the line model then draws k = 0 parameters per trial
    path = tmp_path / "case.json"
    path.write_text(json.dumps({"buses": buses, "lines": []}))
    code, out, err = run(capsys, "perturb", "--case", str(path),
                         "--model", "line", "--trials", "3")
    assert code == EXIT_OK
    assert "Traceback" not in err
    if len(buses) == 1:
        assert json.loads(out)["feasible_count"] == 3


def test_perturb_deterministic_across_runs(capsys):
    _, out1, _ = run(capsys, "perturb", "--builtin", "ex1", "--model", "load",
                     "--trials", "30", "--seed", "11")
    _, out2, _ = run(capsys, "perturb", "--builtin", "ex1", "--model", "load",
                     "--trials", "30", "--seed", "11")
    assert out1 == out2


@pytest.mark.parametrize("seed_args,env", [(["--seed", "-1"], None),
                                            ([], "-1")])
def test_perturb_negative_seed_exits_2(capsys, monkeypatch, seed_args, env):
    if env is not None:
        monkeypatch.setenv("CQA_SEED", env)
    code, out, err = run(capsys, "perturb", "--builtin", "ex1", "--model",
                         "load", "--trials", "2", *seed_args)
    assert code == EXIT_INPUT
    assert out == ""
    assert "seed" in err and "Traceback" not in err


def test_perturb_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("CQA_SEED", "99")
    code, out, _ = run(capsys, "perturb", "--builtin", "ex1",
                       "--model", "load", "--trials", "2")
    assert code == EXIT_OK
    assert json.loads(out)["rng_seed"] == 99

    # a malformed fallback is an input error of perturb alone
    monkeypatch.setenv("CQA_SEED", "abc")
    with pytest.raises(SystemExit) as info:
        main(["perturb", "--builtin", "ex1", "--model", "load",
              "--trials", "2"])
    assert info.value.code == EXIT_INPUT
    assert "--seed" in capsys.readouterr().err
    code, out, _ = run(capsys, "perturb", "--builtin", "ex1",
                       "--model", "load", "--trials", "2", "--seed", "7")
    assert code == EXIT_OK
    assert json.loads(out)["rng_seed"] == 7
    code, _, _ = run(capsys, "check", "--builtin", "ex1")
    assert code == EXIT_LICQ_FAILS


@pytest.mark.parametrize("which,phrase", [
    ("ex1", "nodal price"),
    ("ex2", "tangent constraints"),
    ("ex3", "LINE param rank 0"),
])
def test_repro_passes(capsys, which, phrase):
    code, out, _ = run(capsys, "repro", which)
    assert code == EXIT_OK
    assert phrase in out
    assert "PASS" in out
    assert "FAIL" not in out


def test_repro_writes_machine_payload(capsys, tmp_path):
    out_path = tmp_path / "repro.json"
    code, _, _ = run(capsys, "repro", "ex1", "--out", str(out_path))
    assert code == EXIT_OK
    payload = json.loads(out_path.read_text())
    assert payload["ok"] is True
    assert all(c["ok"] for c in payload["checks"])


def test_repro_ex1_without_a_ray_is_a_mismatch(capsys):
    # at alpha = 1e8 the multipliers are UNIQUE, so there is no ray
    # direction to compare and the direction and price checks fail
    code, out, err = run(capsys, "repro", "ex1", "--alpha", "1e8")
    assert code == EXIT_REPRO_MISMATCH
    assert "failed assertions" in err
    assert "Traceback" not in err
    assert "classification UNIQUE, no ray direction" in out


def test_tolerance_flags_must_be_positive(capsys):
    with pytest.raises(SystemExit) as info:
        main(["check", "--builtin", "ex1", "--act-tol", "-1"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["check", "--builtin", "ex1", "--alpha", "inf"],
    ["repro", "ex1", "--alpha", "inf"],
    ["sweep", "--alpha", "inf"],
    ["check", "--builtin", "ex1", "--act-tol", "inf"],
    ["sweep", "--deltas", "nan"],
    ["sweep", "--deltas", "inf"],
    ["check", "--builtin", "ex1", "--perturb-load", "1:nan"],
])
def test_nonfinite_numeric_flags_exit_2(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    _, err = capsys.readouterr()
    assert code == EXIT_INPUT
    assert "finite" in err


@pytest.mark.parametrize("argv", [
    ["check", "--builtin", "ex3", "--alpha", "5"],
    ["check", "--case", "{case}", "--alpha", "5"],
    ["ybus", "--builtin", "ex2", "--alpha", "3"],
    ["perturb", "--builtin", "ex3", "--model", "line", "--trials", "1",
     "--alpha", "4"],
    ["repro", "ex2", "--alpha", "5"],
])
def test_alpha_outside_ex1_exits_2(capsys, tmp_path, ex1, argv):
    case = tmp_path / "case.json"
    case.write_text(json.dumps(case_document(ex1.case)))
    code, out, err = run(capsys, *[a.replace("{case}", str(case)) for a in argv])
    assert code == EXIT_INPUT
    assert out == ""
    assert "--alpha" in err


def test_negative_trials_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["perturb", "--builtin", "ex1", "--model", "load",
              "--trials", "-1"])
    assert info.value.code == EXIT_INPUT
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "[1.0, 2.0, 3.0]",                        # wrong length
    '{"a": 1}',                               # not an array
    "[[1, 0, 0, 0, 0, 0, 0, 0]]",             # nested
    '[1, 0, 0, 0, 0, 0, 0, "x"]',             # non-number entry
    "[true, 0, 0, 0, 0, 0, 0, 0]",            # bool entry
    "[1e400, 0, 0, 0, 0, 0, 0, 0]",           # overflows to inf
    "[NaN, 0, 0, 0, 0, 0, 0, 0]",
    pytest.param("[" + "9" * 5000 + ", 0, 0, 0, 0, 0, 0, 0]",
                 id="int-past-parser-limit"),
])
def test_check_malformed_state_exits_2(capsys, tmp_path, text):
    path = tmp_path / "state.json"
    path.write_text(text)
    code, _, err = run(capsys, "check", "--builtin", "ex1",
                       "--state", str(path))
    assert code == EXIT_INPUT
    assert "state" in err


@pytest.mark.parametrize("flag", ["--case", "--state"])
def test_check_undecodable_file_exits_2(capsys, tmp_path, ex1, flag):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe\x00[")
    case = tmp_path / "case.json"
    case.write_text(json.dumps(case_document(ex1.case)))
    argv = (["--case", str(bad)] if flag == "--case"
            else ["--case", str(case), "--state", str(bad)])
    code, _, err = run(capsys, "check", *argv)
    assert code == EXIT_INPUT
    assert "error:" in err


@pytest.mark.parametrize("extra", [["--perturb-load", "1:0.5"],
                                   ["--state", "state.json"],
                                   ["--pf-tol", "1e-8"]])
def test_check_ex2_rejects_state_and_perturb_load(capsys, extra):
    code, out, err = run(capsys, "check", "--builtin", "ex2", *extra)
    assert code == EXIT_INPUT
    assert out == ""
    assert "reduced (v, theta) view" in err


def test_sweep_margin_vanishes_only_at_zero_shift(capsys):
    code, out, _ = run(capsys, "sweep", "--alpha", "1", "--direction", "1",
                       "--deltas", "1e-3", "1e-2", "1e-1")
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert [r["delta"] for r in rows] == [-0.1, -0.01, -0.001, 0.0,
                                          0.001, 0.01, 0.1]
    assert all(r["converged"] for r in rows)
    assert [r["delta"] for r in rows if r["licq_holds"] is False] == [0.0]
    assert all(r["licq_holds"] is True for r in rows if r["delta"] != 0.0)

    # a shift that overflows the residual stops the projection quietly
    code, out, err = run(capsys, "sweep", "--alpha", "1", "--direction", "1",
                         "--deltas", "1e300")
    assert code == EXIT_OK
    assert err == ""
    rows = json.loads(out)["rows"]
    assert [(r["delta"], r["converged"], r["licq_holds"]) for r in rows] == [
        (-1e300, False, None), (0.0, True, False), (1e300, False, None)]

    code, _, err = run(capsys, "sweep", "--direction", "9")
    assert code == EXIT_INPUT
    assert "direction 9" in err



def _check_argv(source, tmp_path, lattice_document) -> list[str]:
    """Input flags of a check on a builtin fixture or on a 3x3 lattice."""
    if source != "lattice":
        return ["--builtin", source]
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(lattice_document(3, 3, 0)))
    return ["--case", str(path)]


@pytest.mark.parametrize("source", ["ex1", "ex2", "ex3", "lattice"])
def test_check_factors_each_point_once(capsys, tmp_path, monkeypatch,
                                       lattice_document, source):
    # a check is a block of one point: one stack assembly and at most one
    # thin SVD, of the reduced matrix R (r x n_z), none where R has no rows
    # (ex3); there is no QR
    svd_calls, qr_calls, stack_calls = [], [], []
    real_svd, real_qr = np.linalg.svd, np.linalg.qr
    real_stack = cqkit.active_stacks

    def counting_svd(a, *args, **kwargs):
        full = kwargs.get("full_matrices", args[0] if args else True)
        uv = kwargs.get("compute_uv", args[1] if len(args) > 1 else True)
        svd_calls.append((np.shape(a), bool(full and uv)))
        return real_svd(a, *args, **kwargs)

    def counting_qr(a, *args, **kwargs):
        qr_calls.append(np.shape(a))
        return real_qr(a, *args, **kwargs)

    def counting_stack(cs, flats, *args, **kwargs):
        stack_calls.append(len(flats))
        return real_stack(cs, flats, *args, **kwargs)

    argv = _check_argv(source, tmp_path, lattice_document)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    monkeypatch.setattr(cqkit, "active_stacks", counting_stack)
    code, out, _ = run(capsys, "check", *argv)
    assert code in (EXIT_OK, EXIT_LICQ_FAILS)
    payload = json.loads(out)
    assert "classification" in payload["kkt"]
    assert stack_calls == [1]
    assert qr_calls == []
    # every flow row is a pivot row, so R has the operational rows: none
    # at ex3, the four equalities and four active caps of the lattice
    cq = payload["cq"]
    p = sum(label.startswith("flow:") for label in cq["row_labels"])
    r, n_z = cq["m"] - p, cq["n_free"] - p
    assert r == {"ex1": 2, "ex2": 2, "ex3": 0, "lattice": 8}[source]
    assert svd_calls == ([((1, r, n_z), r > n_z)] if r else [])


@pytest.mark.parametrize("source", ["ex1", "ex2", "lattice"])
def test_check_report_rebuilds_active_jacobian(capsys, tmp_path, monkeypatch,
                                               lattice_document, source):
    reports = []
    real_check = cqkit.licq_check

    def keeping_check(*args, **kwargs):
        reports.append(real_check(*args, **kwargs))
        return reports[-1]

    argv = _check_argv(source, tmp_path, lattice_document)
    monkeypatch.setattr(cqkit, "licq_check", keeping_check)
    code, out, _ = run(capsys, "check", *argv)
    assert code in (EXIT_OK, EXIT_LICQ_FAILS)
    (report,) = reports
    coo = json.loads(out)["cq"]["active_jacobian"]
    assert coo["shape"] == list(report.active_jacobian.shape)
    assert len(coo["values"]) == np.count_nonzero(report.active_jacobian)
    rebuilt = np.zeros(coo["shape"])
    rebuilt[coo["rows"], coo["cols"]] = coo["values"]
    assert (rebuilt == report.active_jacobian).all()


@pytest.mark.parametrize("argv, points", [
    (["check", "--builtin", "ex1"], 1),
    (["check", "--builtin", "ex2"], 1),
    (["check", "lattice"], 1),
    (["check", "--builtin", "ex1", "--perturb-load", "1:+0.05"], 1),
    # 794 of the 1000 trials converge: 304 feasible, 490 infeasible
    (["perturb", "--builtin", "ex1", "--model", "load", "--trials", "1000",
      "--seed", "42"], 794),
    (["sweep"], 7),
], ids=["check-ex1", "check-ex2", "check-lattice", "check-perturb-load",
        "perturb-ex1", "sweep"])
def test_one_constraint_evaluation_per_point(capsys, tmp_path, monkeypatch,
                                             lattice_document, argv, points):
    # points evaluated, summed over the blocks of evaluate_points (a check
    # is a block of one point; the sweep evaluates its converged trials)
    calls = []
    real_evaluate = con.evaluate_points

    def counting_evaluate(cs, flats, *args, **kwargs):
        calls.append(len(flats))
        return real_evaluate(cs, flats, *args, **kwargs)

    if "lattice" in argv:
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps(lattice_document(3, 3, 0)))
        argv = ["check", "--case", str(path)]
    monkeypatch.setattr(con, "evaluate_points", counting_evaluate)
    code, out, _ = run(capsys, *argv)
    assert code in (EXIT_OK, EXIT_LICQ_FAILS)
    if argv[0] == "perturb":
        assert json.loads(out)["feasible_count"] == 304
    assert sum(calls) == points


def test_perturbed_check_builds_one_system(capsys, monkeypatch):
    # after its input is loaded, check --perturb-load builds the shifted
    # case's constraint system once: the projection runs on it too
    calls = []
    real_system, real_load = con.system_for_case, od.cli._load_input

    def counting_system(case, **tols):
        calls.append(case)
        return real_system(case, **tols)

    def load_then_reset(args):
        loaded = real_load(args)
        calls.clear()
        return loaded

    monkeypatch.setattr(con, "system_for_case", counting_system)
    monkeypatch.setattr(od.cli, "_load_input", load_then_reset)
    code, _, _ = run(capsys, "check", "--builtin", "ex1", "--perturb-load",
                     "1:+0.05")
    assert code == EXIT_OK
    assert len(calls) == 1


def _relabel(doc: dict, perm: np.ndarray) -> dict:
    """The case with bus k renamed perm[k]; buses, lines, constraint specs
    and cost terms are listed in the new bus order."""
    def term(t):
        return {**t, "bus": int(perm[t["bus"]])}

    def spec(c):
        out = dict(c)
        if c["target"] is not None:
            out["target"] = term(c["target"])
        if "terms" in c["params"]:
            out["params"] = {**c["params"],
                             "terms": [term(t) for t in c["params"]["terms"]]}
        return out

    def first_bus(c):
        return (c["target"] or c["params"]["terms"][0])["bus"]

    return {
        "buses": sorted(({**b, "id": int(perm[b["id"]])} for b in doc["buses"]),
                        key=lambda b: b["id"]),
        "lines": sorted(({**ln, "from": int(perm[ln["from"]]),
                          "to": int(perm[ln["to"]])} for ln in doc["lines"]),
                        key=lambda ln: (ln["from"], ln["to"])),
        "generators": doc["generators"],
        "constraints": sorted((spec(c) for c in doc["constraints"]),
                              key=first_bus),
        "cost": {kind: sorted((term(t) for t in terms),
                              key=lambda t: t["bus"])
                 for kind, terms in doc["cost"].items()},
    }


def test_check_verdict_invariant_under_bus_relabelling(capsys, tmp_path,
                                                       lattice_document):
    doc = lattice_document(8, 7, 3)
    n = len(doc["buses"])
    assert n >= 50
    perm = np.concatenate(([0], 1 + np.random.default_rng(5).permutation(n - 1)))
    assert (perm != np.arange(n)).any()
    reports = []
    for i, case in enumerate((doc, _relabel(doc, perm))):
        path = tmp_path / f"case{i}.json"
        path.write_text(json.dumps(case))
        code, out, _ = run(capsys, "check", "--case", str(path))
        payload = json.loads(out)
        reports.append((code, payload["cq"], payload["kkt"]))
    (code0, cq0, kkt0), (code1, cq1, kkt1) = reports
    assert code0 == code1
    assert len(cq0["face"]) == len(cq1["face"]) > 0
    for key in ("licq_holds", "numerical_rank", "m", "n_free"):
        assert cq0[key] == cq1[key], key
    for key in ("classification", "family_dim"):
        assert kkt0[key] == kkt1[key], key
    assert cq0["sigma_min"] == pytest.approx(cq1["sigma_min"], rel=1e-9)


def test_cli_import_leaves_scipy_unloaded():
    # the set-up cost of a CLI call is the import of opfdiag.cli; scipy's
    # import alone costs more than a network-scale check saves by it
    src = str(Path(od.__file__).parents[1])
    code = ("import sys, opfdiag.cli; sys.exit(' '.join(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy') or None)")
    done = subprocess.run([sys.executable, "-c", code], cwd=src,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
