import dataclasses
import json
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opfdiag as od
from opfdiag.cases import example1
from opfdiag.netmodel import (ApparentPower, BoxLower, BoxUpper, Case,
                              CaseError, CostSpec, ExpLoadEq, LinearEq,
                              Network, build_ybus, load_case, state_index)

from netgen import (all_kinds_document, bench_grid_document, case_document,
                    network_columns, random_network)


def test_ybus_two_bus_unit_susceptance():
    # hand application of the three-case entry formula
    G, B = build_ybus(Network(bus_type=["slack", "pq"], line_ends=[(0, 1)],
                              g_series=[0.0], b_series=[-1.0]))
    assert np.array_equal(G, np.zeros((2, 2)))
    assert np.array_equal(B, np.array([[-1.0, 1.0], [1.0, -1.0]]))


def test_ybus_single_bus_shunt_only():
    net = Network(bus_type=["slack"], line_ends=[], g_shunt=[0.1],
                  b_shunt=[0.2])
    G, B = build_ybus(net)
    assert G.tolist() == [[0.1]]
    assert B.tolist() == [[0.2]]


def test_ybus_duplicate_line_rejected():
    with pytest.raises(CaseError, match=r"duplicate line.*\(0, 1\)"):
        Network(bus_type=["slack", "pq"], line_ends=[(0, 1), (1, 0)],
                g_series=[0.0, 0.5], b_series=[-1.0, -2.0])


admittances = st.floats(min_value=-5.0, max_value=5.0,
                        allow_nan=False, allow_infinity=False)
# dyadic rationals: sums of these are exact in binary floating point
dyadic = st.integers(min_value=-5 * 1024, max_value=5 * 1024).map(
    lambda k: k / 1024.0)


@st.composite
def shunt_free_networks(draw, values=admittances):
    n = draw(st.integers(min_value=2, max_value=5))
    p, q = zip(*[(draw(values), draw(values)) for _ in range(n)])
    g, b = np.array([(draw(values), draw(values))
                     for _ in range(n - 1)]).T
    return Network(bus_type=["slack"] + ["pq"] * (n - 1),
                   line_ends=[(k, k + 1) for k in range(n - 1)],
                   p_load=p, q_load=q, g_series=g, b_series=b)


@settings(max_examples=50, deadline=None)
@given(shunt_free_networks(values=dyadic))
def test_ybus_shunt_free_row_sums_exactly_zero(net):
    # exact whenever the admittance sums round nowhere, which dyadic
    # rationals of a shared scale guarantee
    G, B = build_ybus(net)
    ones = np.ones(net.n_bus)
    assert np.abs(G @ ones).max() == 0.0
    assert np.abs(B @ ones).max() == 0.0


@settings(max_examples=50, deadline=None)
@given(shunt_free_networks())
def test_ybus_shunt_free_row_sums_vanish_to_machine_precision(net):
    G, B = build_ybus(net)
    ones = np.ones(net.n_bus)
    scale = max(1.0, np.abs(G).max(), np.abs(B).max())
    assert np.abs(G @ ones).max() <= 4e-16 * scale * net.n_bus
    assert np.abs(B @ ones).max() <= 4e-16 * scale * net.n_bus


@settings(max_examples=50, deadline=None)
@given(shunt_free_networks())
def test_ybus_symmetric_exactly(net):
    G, B = build_ybus(net)
    assert np.array_equal(G, G.T)
    assert np.array_equal(B, B.T)


def test_ybus_row_sums_equal_lumped_shunts(rng):
    from opfdiag.perturb import lumped_shunts

    net = random_network(4, rng)
    G, B = build_ybus(net)
    g_lump, b_lump = lumped_shunts(net)
    ones = np.ones(net.n_bus)
    assert np.abs(G @ ones - g_lump).max() <= 1e-14
    assert np.abs(B @ ones - b_lump).max() <= 1e-14
    # bit for bit the sums of a loop over the lines in case order, each
    # adding half its shunt at its from bus, then at its to bus
    g, b = net.g_shunt.tolist(), net.b_shunt.tolist()
    for (k, l), g_sh, b_sh in zip(net.line_ends.tolist(), net.g_line_shunt,
                                  net.b_line_shunt):
        for end in (k, l):
            g[end] += g_sh / 2.0
            b[end] += b_sh / 2.0
    assert (g, b) == (g_lump.tolist(), b_lump.tolist())


def per_line_ybus(net):
    """Per-line complex accumulation, lines in case order and the nodal
    shunt last: the summation order the assembly keeps."""
    y = np.zeros((net.n_bus, net.n_bus), dtype=complex)
    for (k, l), g, b, g_sh, b_sh in zip(
            net.line_ends.tolist(), net.g_series, net.b_series,
            net.g_line_shunt, net.b_line_shunt):
        ys = complex(g, b)
        ysh_half = complex(g_sh, b_sh) / 2.0
        y[k, k] += ys + ysh_half
        y[l, l] += ys + ysh_half
        y[k, l] -= ys
        y[l, k] -= ys
    for k in range(net.n_bus):
        y[k, k] += complex(net.g_shunt[k], net.b_shunt[k])
    return y


def line_list_of(net, y):
    """The nonzero pattern of ``build_ybus``, read from a dense matrix y
    in line-list order: each line's off-diagonal entry, then the
    diagonal."""
    ends = net.line_ends
    return np.concatenate((y[ends[:, 0], ends[:, 1]], np.diagonal(y)))


@pytest.mark.parametrize("shared_series", [False, True])
def test_admittance_stack_trials_match_per_line_sums(rng, shared_series):
    for _ in range(10):
        net = random_network(8, rng)
        n, m, trials = net.n_bus, net.n_line, 5
        series = (rng.uniform(0.0, 2.0, (1 if shared_series else trials, m)),
                  rng.uniform(-5.0, -0.5, (1 if shared_series else trials, m)))
        shunts = rng.uniform(-0.3, 0.3, (2, trials, n))
        g, b = od.netmodel.admittance_stack(net, *series, *shunts)
        assert g.shape == b.shape == (trials, m + n)
        for t in range(trials):
            s = 0 if shared_series else t
            trial = replace(net, g_shunt=shunts[0, t], b_shunt=shunts[1, t],
                            g_series=series[0][s], b_series=series[1][s])
            y = per_line_ybus(trial)
            assert g[t].tobytes() == line_list_of(net, y.real).tobytes()
            assert b[t].tobytes() == line_list_of(net, y.imag).tobytes()
        # the network's own line list, and its dense matrix: the per-line
        # sums, zero off the lines and the diagonal
        y = per_line_ybus(net)
        g, b = net.admittances
        assert g.tobytes() == line_list_of(net, y.real).tobytes()
        assert b.tobytes() == line_list_of(net, y.imag).tobytes()
        G, B = build_ybus(net)
        assert G.tobytes() == y.real.tobytes()
        assert B.tobytes() == y.imag.tobytes()


def test_network_rejects_empty_bus_list():
    with pytest.raises(CaseError, match="non-empty"):
        Network(bus_type=[], line_ends=[])


def test_network_rejects_two_slacks():
    with pytest.raises(CaseError, match="exactly one slack"):
        Network(bus_type=["slack", "slack"], line_ends=[(0, 1)],
                g_series=[0.0], b_series=[-1.0])


def test_network_rejects_dangling_endpoint():
    with pytest.raises(CaseError, match="existing buses"):
        Network(bus_type=["slack", "pq"], line_ends=[(0, 7)], g_series=[0.0],
                b_series=[-1.0])


def _chain(n_bus: int, **changes) -> dict:
    """The case document of an n-bus chain with the slack at bus 0, with
    ``changes`` ({bus index: entry fields} under "buses", {line index:
    (from, to)} under "lines") applied."""
    buses = [{"id": k, "type": "slack" if k == 0 else "pq"}
             for k in range(n_bus)]
    for k, fields in changes.get("buses", {}).items():
        buses[k].update(fields)
    ends = [(k, k + 1) for k in range(n_bus - 1)]
    for j, pair in changes.get("lines", {}).items():
        ends[j] = pair
    return {"buses": buses,
            "lines": [{"from": k, "to": l, "g_series": 0.0, "b_series": -1.0}
                      for k, l in ends]}


@pytest.mark.parametrize("changes, message", [
    ({"buses": {2: {"id": 7}, 4: {"type": "pv", "v_setpoint": -1.0}}},
     "buses must carry sequential 0-based ids; buses[2].id == 7"),
    ({"buses": {3: {"type": "pv", "v_setpoint": 0.0},
                5: {"type": "slack"}}},
     "v_setpoint > 0 required at bus 3"),
    ({"buses": {0: {"v_setpoint": float("nan")}}},
     "v_setpoint > 0 required at bus 0"),
    ({"buses": {2: {"v_setpoint": -1.0}}, "lines": {1: (4, 4)}},
     "lines[1] is a self-loop at bus 4"),
    ({"lines": {2: (1, 1), 4: (0, 9)}}, "lines[2] is a self-loop at bus 1"),
    ({"lines": {1: (4, 1), 3: (1, 0), 4: (-1, 2)}},
     "duplicate line for bus pair (0, 1); "
     "parallel lines must be pre-aggregated"),
    ({"lines": {2: (1, 0), 4: (0, 9)}},
     "duplicate line for bus pair (0, 1); "
     "parallel lines must be pre-aggregated"),
    ({"lines": {2: (0, 6), 3: (2, 1)}},
     "lines[2] endpoints (0, 6) must reference existing buses"),
])
def test_network_names_its_first_offender(changes, message):
    # the columns name the offender that one pass over the buses, then one
    # over the lines, in case order, would name: a PQ bus's v_setpoint is
    # not read, and a second slack is counted after the buses. Bus ids
    # exist only in a document, and load_case checks them
    doc = _chain(6, **changes)
    with pytest.raises(CaseError) as err:
        if [bus["id"] for bus in doc["buses"]] == list(range(6)):
            _network(doc)
        else:
            load_case(doc)
    assert str(err.value).removeprefix("network invariant: ") == message


def test_load_case_checks_bus_ids_before_the_network():
    # a bus id out of sequence is named before any network invariant, also
    # before one at an earlier bus
    doc = _chain(6, buses={3: {"type": "pv", "v_setpoint": 0.0}, 5: {"id": 9}})
    with pytest.raises(CaseError) as err:
        load_case(doc)
    assert str(err.value) == ("network invariant: buses must carry "
                              "sequential 0-based ids; buses[5].id == 9")
    doc["buses"][5]["id"] = 5
    with pytest.raises(CaseError, match="v_setpoint > 0 required at bus 3"):
        load_case(doc)


@pytest.mark.parametrize("columns, message", [
    ({"line_ends": [(0, 1)]}, "g_series is required"),
    ({"line_ends": [(0, 1)], "g_series": [1.0]}, "b_series is required"),
    ({"line_ends": [], "p_load": [0.1]}, "p_load must hold one number per bus"),
    ({"line_ends": [(0, 1)], "g_series": [1.0], "b_series": [-5.0],
      "b_line_shunt": [0.1, 0.2]},
     "b_line_shunt must hold one number per line"),
    ({"line_ends": [(0, 10 ** 400)], "g_series": [1.0], "b_series": [-5.0]},
     f"lines[0] endpoints (0, {10 ** 400}) must reference existing buses"),
])
def test_network_checks_its_columns(columns, message):
    with pytest.raises(CaseError) as err:
        Network(bus_type=["slack", "pq"], **columns)
    assert str(err.value) == f"network invariant: {message}"


def test_network_columns_are_locked_copies():
    # a column left out takes its default; a given one is copied, so the
    # caller's array stays writeable
    load = np.array([0.1, -0.2])
    net = Network(bus_type=["slack", "pv"], line_ends=[(1, 0)], p_load=load,
                  v_setpoint=[1.0, 1.02], g_series=[1.0], b_series=[-5.0])
    load[0] = 7.0
    assert net.p_load.tolist() == [0.1, -0.2]
    assert net.q_load.tolist() == net.theta_setpoint.tolist() == [0.0, 0.0]
    assert net.line_ends.dtype.kind == "i"
    for f in dataclasses.fields(net):
        assert not getattr(net, f.name).flags.writeable, f.name


def test_network_warns_on_disconnected_graph():
    with pytest.warns(UserWarning, match="not connected"):
        Network(bus_type=["slack", "pq", "pq"], line_ends=[(0, 1)],
                g_series=[0.0], b_series=[-1.0])


def test_disconnected_graph_warning_names_the_caller():
    # the warning points past the dataclass-generated __init__ at the code
    # that built the network
    with pytest.warns(UserWarning, match="not connected") as record:
        Network(bus_type=["slack", "pq"], line_ends=[])
    assert record[0].filename == __file__


def test_load_case_builtin_document_matches_fixture(ex1):
    case = load_case(json.dumps(case_document(ex1.case)))
    net = case.network
    assert net.g_series.tolist() == [0.0] and net.b_series.tolist() == [-1.0]
    assert case.network.n_bus == 2


def test_load_case_rejects_empty_buses():
    with pytest.raises(CaseError, match="buses"):
        load_case(json.dumps({"buses": [], "lines": []}))


def test_load_case_rejects_two_slacks():
    doc = {"buses": [{"id": 0, "type": "slack"}, {"id": 1, "type": "slack"}],
           "lines": [{"from": 0, "to": 1, "g_series": 0.0, "b_series": -1.0}]}
    with pytest.raises(CaseError, match="exactly one slack"):
        load_case(json.dumps(doc))


def test_load_case_schema_error_names_path():
    doc = {"buses": [{"id": 0, "type": "mystery"}]}
    with pytest.raises(CaseError, match=r"buses\[0\]\.type"):
        load_case(json.dumps(doc))
    doc = {"buses": [{"id": 0, "type": "slack"}],
           "lines": [{"from": 0, "to": 0}]}
    with pytest.raises(CaseError, match=r"lines\[0\]\.g_series"):
        load_case(json.dumps(doc))


@pytest.mark.parametrize("bus, key", [(1, "theta_setpoint"),
                                      (2, "v_setpoint"), (2, "theta_setpoint")])
def test_load_case_rejects_setpoints_the_bus_type_ignores(bus, key):
    # a PV bus reads v_setpoint alone, a PQ bus neither: Newton starts every
    # angle at the slack's
    doc = {"buses": [{"id": 0, "type": "slack", "v_setpoint": 1.02,
                      "theta_setpoint": -0.5},
                     {"id": 1, "type": "pv", "v_setpoint": 1.01},
                     {"id": 2, "type": "pq"}],
           "lines": [{"from": 0, "to": 1, "g_series": 0.0, "b_series": -1.0},
                     {"from": 1, "to": 2, "g_series": 0.0, "b_series": -1.0}]}
    case = load_case(json.dumps(doc))
    assert case.network.v_setpoint.tolist() == [1.02, 1.01, 1.0]
    assert case.network.theta_setpoint[0] == -0.5
    doc["buses"][bus][key] = 1.0
    with pytest.raises(CaseError, match=rf"^buses\[{bus}\]\.{key}: "):
        load_case(json.dumps(doc))


def test_load_case_rejects_invalid_json():
    with pytest.raises(CaseError, match="invalid JSON"):
        load_case("{not json")


MISSING = object()
KINDS = "box_upper|box_lower|linear_eq|apparent_power|exp_load_eq"
# (path into all_kinds_document, new value or MISSING, CaseError text);
# constraints[0] is box_upper, [1] linear_eq, [2] apparent_power,
# [3] box_lower, [4] exp_load_eq
ENTRY_ERRORS = [
    (("constraints",), {}, "constraints: expected an array"),
    (("constraints", 0), [], "constraints[0]: expected an object"),
    (("constraints", 0, "kind"), MISSING,
     f"constraints[0].kind: expected one of {KINDS}, got None"),
    (("constraints", 3, "kind"), "box",
     f"constraints[3].kind: expected one of {KINDS}, got 'box'"),
    (("constraints", 0, "params"), MISSING,
     "constraints[0].params: expected an object"),
    (("constraints", 4, "params"), [1], "constraints[4].params: expected an object"),
    (("constraints", 0, "target"), None, "constraints[0].target: expected an object"),
    (("constraints", 0, "target", "var"), MISSING,
     "constraints[0].target.var: expected one of p|q|v|theta, got None"),
    (("constraints", 3, "target", "var"), "w",
     "constraints[3].target.var: expected one of p|q|v|theta, got 'w'"),
    (("constraints", 0, "target", "bus"), MISSING,
     "constraints[0].target.bus: required integer is missing"),
    (("constraints", 3, "target", "bus"), 1.0,
     "constraints[3].target.bus: expected an integer, got 1.0"),
    (("constraints", 0, "target", "bus"), 3,
     "constraints[0].target.bus: bus 3 does not exist"),
    (("constraints", 3, "target", "bus"), -1,
     "constraints[3].target.bus: bus -1 does not exist"),
    (("constraints", 0, "params", "bound"), MISSING,
     "constraints[0].params.bound: required number is missing"),
    (("constraints", 3, "params", "bound"), "1",
     "constraints[3].params.bound: expected a finite number, got '1'"),
    (("constraints", 0, "params", "bound"), float("nan"),
     "constraints[0].params.bound: expected a finite number, got nan"),
    (("constraints", 1, "params", "terms"), MISSING,
     "constraints[1].params.terms: expected a non-empty array"),
    (("constraints", 1, "params", "terms"), [],
     "constraints[1].params.terms: expected a non-empty array"),
    (("constraints", 1, "params", "terms", 1), "p",
     "constraints[1].params.terms[1]: expected an object"),
    (("constraints", 1, "params", "terms", 1, "var"), "P",
     "constraints[1].params.terms[1].var: expected one of p|q|v|theta, got 'P'"),
    (("constraints", 1, "params", "terms", 0, "bus"), True,
     "constraints[1].params.terms[0].bus: expected an integer, got True"),
    (("constraints", 1, "params", "terms", 0, "bus"), 7,
     "constraints[1].params.terms[0].bus: bus 7 does not exist"),
    (("constraints", 1, "params", "terms", 1, "coef"), MISSING,
     "constraints[1].params.terms[1].coef: required number is missing"),
    (("constraints", 1, "params", "terms", 0, "coef"), None,
     "constraints[1].params.terms[0].coef: expected a finite number, got None"),
    (("constraints", 1, "params", "offset"), None,
     "constraints[1].params.offset: expected a finite number, got None"),
    (("constraints", 1, "params", "offset"), float("inf"),
     "constraints[1].params.offset: expected a finite number, got inf"),
    (("constraints", 2, "target"), MISSING,
     "constraints[2].target: expected an object"),
    (("constraints", 4, "target"), [2], "constraints[4].target: expected an object"),
    (("constraints", 2, "target", "bus"), MISSING,
     "constraints[2].target.bus: required integer is missing"),
    (("constraints", 4, "target", "bus"), 3,
     "constraints[4].target.bus: bus 3 does not exist"),
    (("constraints", 2, "params", "s2_max"), MISSING,
     "constraints[2].params.s2_max: required number is missing"),
    (("constraints", 2, "params", "s2_max"), [1.0],
     "constraints[2].params.s2_max: expected a finite number, got [1.0]"),
    (("constraints", 4, "params", "alpha"), MISSING,
     "constraints[4].params.alpha: required number is missing"),
    (("constraints", 4, "params", "alpha"), False,
     "constraints[4].params.alpha: expected a finite number, got False"),
    (("constraints", 4, "params", "p_load"), MISSING,
     "constraints[4].params.p_load: required number is missing"),
    (("constraints", 4, "params", "p_load"), "x",
     "constraints[4].params.p_load: expected a finite number, got 'x'"),
    (("cost",), [], "cost: expected an object"),
    (("cost", "quadratic"), {}, "cost.quadratic: expected an array"),
    (("cost", "linear"), None, "cost.linear: expected an array"),
    (("cost", "quadratic", 1), 0.2, "cost.quadratic[1]: expected an object"),
    (("cost", "linear", 0, "var"), "x",
     "cost.linear[0].var: expected one of p|q|v|theta, got 'x'"),
    (("cost", "quadratic", 0, "bus"), MISSING,
     "cost.quadratic[0].bus: required integer is missing"),
    (("cost", "linear", 1, "bus"), 3, "cost.linear[1].bus: bus 3 does not exist"),
    (("cost", "quadratic", 1, "coef"), MISSING,
     "cost.quadratic[1].coef: required number is missing"),
    (("cost", "linear", 0, "coef"), "1",
     "cost.linear[0].coef: expected a finite number, got '1'"),
    (("generators",), {}, "generators: expected an array"),
    (("generators", 0), 1, "generators[0]: expected an object"),
    (("generators", 0, "bus"), MISSING,
     "generators[0].bus: required integer is missing"),
    (("generators", 1, "bus"), "2",
     "generators[1].bus: expected an integer, got '2'"),
    (("generators", 1, "bus"), 3, "generators[1].bus: bus 3 does not exist"),
    (("generators", 0, "p"), None,
     "generators[0].p: expected a finite number, got None"),
    (("generators", 1, "q"), "0",
     "generators[1].q: expected a finite number, got '0'"),
]


@pytest.mark.parametrize("path, value, message", ENTRY_ERRORS,
                         ids=[m.split(":")[0] for _, _, m in ENTRY_ERRORS])
def test_load_case_entry_error_text(path, value, message):
    doc = all_kinds_document()
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is MISSING:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    with pytest.raises(CaseError) as err:
        load_case(json.dumps(doc))
    assert str(err.value) == message


STATE = "bus|var"
TERM = "bus|coef|var"
# (path into all_kinds_document of an object, key added to it, CaseError
# text); a misspelled key would leave its value unread
UNKNOWN_KEYS = [
    ((), "constraint",
     "$.constraint: unknown key; expected one of "
     "base_mva|buses|constraints|cost|generators|lines"),
    (("buses", 2), "p_lod",
     "buses[2].p_lod: unknown key; expected one of b_shunt|g_shunt|id|"
     "p_load|q_load|theta_setpoint|type|v_setpoint"),
    (("lines", 1), "r",
     "lines[1].r: unknown key; expected one of "
     "b_series|b_shunt|from|g_series|g_shunt|to"),
    (("generators", 0), "qq",
     "generators[0].qq: unknown key; expected one of bus|p|q"),
    (("constraints", 2), "comment",
     "constraints[2].comment: unknown key; expected one of kind|params|target"),
    (("constraints", 0, "params"), "bond",
     "constraints[0].params.bond: unknown key; expected one of bound"),
    (("constraints", 3, "params"), "offset",
     "constraints[3].params.offset: unknown key; expected one of bound"),
    (("constraints", 1, "params"), "bound",
     "constraints[1].params.bound: unknown key; expected one of offset|terms"),
    (("constraints", 2, "params"), "s_max",
     "constraints[2].params.s_max: unknown key; expected one of s2_max"),
    (("constraints", 4, "params"), "q_load",
     "constraints[4].params.q_load: unknown key; expected one of alpha|p_load"),
    (("constraints", 0, "target"), "coef",
     f"constraints[0].target.coef: unknown key; expected one of {STATE}"),
    (("constraints", 2, "target"), "var",
     "constraints[2].target.var: unknown key; expected one of bus"),
    (("constraints", 4, "target"), "id",
     "constraints[4].target.id: unknown key; expected one of bus"),
    (("constraints", 1, "params", "terms", 1), "cof",
     f"constraints[1].params.terms[1].cof: unknown key; expected one of {TERM}"),
    (("cost",), "constant",
     "cost.constant: unknown key; expected one of linear|quadratic"),
    (("cost", "quadratic", 1), "coeff",
     f"cost.quadratic[1].coeff: unknown key; expected one of {TERM}"),
    (("cost", "linear", 0), "weight",
     f"cost.linear[0].weight: unknown key; expected one of {TERM}"),
]


@pytest.mark.parametrize("path, key, message", UNKNOWN_KEYS,
                         ids=[m.split(":")[0] for _, _, m in UNKNOWN_KEYS])
def test_load_case_rejects_unknown_keys(path, key, message):
    doc = all_kinds_document()
    load_case(json.dumps(doc))
    node = doc
    for step in path:
        node = node[step]
    node[key] = 0.0
    with pytest.raises(CaseError) as err:
        load_case(json.dumps(doc))
    assert str(err.value) == message


def test_load_case_rejects_a_misspelled_section():
    # a misspelled constraints section used to load as a case with no
    # constraints, and check then ran on another problem
    doc = all_kinds_document()
    doc["constraint"] = doc.pop("constraints")
    with pytest.raises(CaseError, match=r"^\$\.constraint: unknown key"):
        load_case(json.dumps(doc))


def test_load_case_names_the_first_unknown_key_in_document_order():
    doc = all_kinds_document()
    doc["lines"][2].update(zz=1.0, aa=2.0)
    doc["lines"][0]["x"] = 0.5
    with pytest.raises(CaseError, match=r"^lines\[0\]\.x: "):
        load_case(json.dumps(doc))
    del doc["lines"][0]["x"]
    with pytest.raises(CaseError, match=r"^lines\[2\]\.zz: "):
        load_case(json.dumps(doc))


def coef_terms(*entries):
    """{var, bus, coef} terms from (var, bus, coef) triples."""
    return [{"var": v, "bus": b, "coef": c} for v, b, c in entries]


@pytest.mark.parametrize("section", ["cost", "linear_eq"])
@pytest.mark.parametrize("entries, bad", [
    ([("p", 0, 1e308), ("p", 0, 1e308)], 1),
    ([("p", 0, -1e308), ("p", 0, -1e308)], 1),
    # the running sum in document order: back to 0, then past the range
    ([("p", 0, 1e308), ("p", 0, -1e308), ("p", 0, 1e308), ("p", 0, 1e308)],
     3),
    # each state entry sums its own terms
    ([("q", 1, 1e308), ("p", 0, 1e308), ("q", 1, 1e308)], 2),
], ids=["max", "min", "running", "per-entry"])
def test_load_case_rejects_a_coefficient_sum_past_the_float_range(
        recwarn, section, entries, bad):
    doc = all_kinds_document()
    if section == "cost":
        doc["cost"]["linear"] = coef_terms(*entries)
        path = f"cost.linear[{bad}]"
    else:
        doc["constraints"][1]["params"]["terms"] = coef_terms(*entries)
        path = f"constraints[1].params.terms[{bad}]"
    with pytest.raises(CaseError) as err:
        load_case(json.dumps(doc))
    assert str(err.value) == (f"{path}.coef: the coefficients of this state "
                              "entry sum past the float range")
    assert not recwarn.list


def test_load_case_sums_coefficients_per_state_entry():
    # 1e308 on two entries, and a sum that comes back into range before its
    # last term, are finite: both load with every term as written
    entries = [("p", 0, 1e308), ("q", 0, 1e308), ("p", 0, -1e308),
               ("p", 0, 1e308)]
    doc = all_kinds_document()
    doc["cost"]["linear"] = coef_terms(*entries)
    doc["constraints"][1]["params"]["terms"] = coef_terms(*entries)
    case = load_case(json.dumps(doc))
    p0, q0 = state_index("p", 0, 3), state_index("q", 0, 3)
    assert (case.cost.c1[p0], case.cost.c1[q0]) == (1e308, 1e308)
    assert case.constraints[1].terms == ((p0, 1e308), (q0, 1e308),
                                         (p0, -1e308), (p0, 1e308))


@pytest.mark.parametrize("target", [{"var": "zzz"}, {}, [], 0])
def test_load_case_rejects_a_linear_eq_target(target):
    # a linear_eq names its state entries in its terms; a null target, as
    # case_document writes it, is no target
    doc = all_kinds_document()
    doc["constraints"][1]["target"] = None
    load_case(json.dumps(doc))
    doc["constraints"][1]["target"] = target
    with pytest.raises(CaseError) as err:
        load_case(json.dumps(doc))
    assert str(err.value) == ("constraints[1].target: a linear_eq takes no "
                              "target; its terms name the state entries")


def test_round_trip_bit_equality(ex1):
    # the all-kinds document repeats a linear_eq term and a cost term: its
    # case serializes the summed cost entry, which loads back bit for bit
    for doc in (case_document(ex1.case), all_kinds_document()):
        case = load_case(json.dumps(doc))
        again = load_case(json.dumps(case_document(case)))
        assert network_columns(case.network) == network_columns(again.network)
        assert np.array_equal(case.gen_p, again.gen_p)
        assert np.array_equal(case.gen_q, again.gen_q)
        assert case.constraints == again.constraints
        for got, want in ((again.cost.c2, case.cost.c2),
                          (again.cost.c1, case.cost.c1)):
            assert got.tobytes() == want.tobytes()


def test_load_case_rejects_a_second_generator_at_a_bus():
    # one generators entry per bus, as one line per bus pair: a repeat
    # would replace the first entry, its unstated q included
    doc = all_kinds_document()
    doc["generators"] = [{"bus": 1, "p": 0.1, "q": 0.05}, {"bus": 1, "p": 0.2}]
    with pytest.raises(CaseError) as err:
        load_case(json.dumps(doc))
    assert str(err.value) == ("generators[1].bus: a second generator at bus 1; "
                              "generators at one bus must be pre-aggregated")
    doc["generators"] = [{"bus": 1, "p": 0.1, "q": 0.05}, {"bus": 2, "p": 0.2}]
    case = load_case(json.dumps(doc))
    assert case.gen_p.tolist() == [0.0, 0.1, 0.2]
    assert case.gen_q.tolist() == [0.0, 0.05, 0.0]


def test_a_second_generator_is_named_before_a_later_bad_field():
    # the repeat is a fault of its own entry, found before the entries
    # after it are read
    doc = all_kinds_document()
    doc["generators"] = [{"bus": 1}, {"bus": 1}, {"bus": 2, "p": "x"}]
    with pytest.raises(CaseError) as err:
        load_case(json.dumps(doc))
    assert str(err.value) == ("generators[1].bus: a second generator at bus 1; "
                              "generators at one bus must be pre-aggregated")


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_load_case_rejects_nonfinite_numbers(ex1, literal):
    text = json.dumps(case_document(ex1.case)).replace(
        '"p_load": -2.0', f'"p_load": {literal}')
    assert literal in text
    with pytest.raises(CaseError, match=r"buses\[1\]\.p_load.*finite"):
        load_case(text)


def test_load_case_rejects_integer_beyond_parser_limit():
    with pytest.raises(CaseError, match="invalid JSON"):
        load_case('{"buses": [{"id": ' + "9" * 5000 + ', "type": "slack"}]}')


# The loader decides each column of an array's field table at once and,
# where one fails, reads the entries in document order, each whole: the
# first bad entry is named, whichever column failed. Each row below
# spoils one field of a late entry (path, value or MISSING, CaseError
# text, or None where the default fills it); the test then also spoils
# another field of an earlier entry of the same section, which must be
# the one named.
HUGE = 10 ** 400
OVER = "<1e400>"  # written as the bare literal 1e400, which parses to inf


def _column_document(lattice_document) -> dict:
    """The 3 x 3 test lattice with every field of every bus, line and
    generator written, the slack at bus 7, a PV bus at 8 and a generator
    at every bus but the slack: each column has a late entry. Its lines
    run (0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8), then (0, 3) to
    (5, 8); its constraints end with a box_lower on v at bus 8."""
    doc = lattice_document(3, 3, 0)
    for bus in doc["buses"]:
        bus.update(type="pq", g_shunt=0.01, b_shunt=-0.02)
    doc["buses"][7].update(type="slack", v_setpoint=1.0, theta_setpoint=0.1)
    doc["buses"][8].update(type="pv", v_setpoint=1.01)
    for line in doc["lines"]:
        line.update(g_shunt=0.0, b_shunt=0.01)
    doc["generators"] = [{"bus": k, "p": 0.01 * k, "q": -0.01}
                         for k in (0, 1, 2, 3, 4, 5, 6, 8)]
    return doc


def _spoilt(doc: dict, path: tuple, value) -> None:
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is MISSING:
        del node[path[-1]]
    else:
        node[path[-1]] = value


def _column_errors():
    rows = []
    numbers = [(True, "expected a finite number, got True"),
               ("0.5", "expected a finite number, got '0.5'"),
               (None, "expected a finite number, got None"),
               (OVER, "expected a finite number, got inf"),
               (HUGE, f"expected a finite number, got {HUGE!r}")]
    for at, key, required in [
            (("buses", 8), "p_load", False), (("buses", 8), "q_load", False),
            (("buses", 8), "g_shunt", False), (("buses", 8), "b_shunt", False),
            (("buses", 8), "v_setpoint", False),
            (("buses", 7), "theta_setpoint", False),
            (("lines", 11), "g_series", True), (("lines", 11), "b_series", True),
            (("lines", 11), "g_shunt", False), (("lines", 11), "b_shunt", False),
            (("generators", 7), "p", False), (("generators", 7), "q", False),
            (("constraints", 23, "params"), "bound", True)]:
        where = ".".join(f"[{k}]" if isinstance(k, int) else k for k in at)
        where = where.replace(".[", "[")
        for value, text in numbers:
            rows.append((at + (key,), value, f"{where}.{key}: {text}"))
        rows.append((at + (key,), MISSING,
                     f"{where}.{key}: required number is missing"
                     if required else None))
    ints = [(8.0, "expected an integer, got 8.0"),
            ("8", "expected an integer, got '8'"),
            (True, "expected an integer, got True"),
            (None, "expected an integer, got None"),
            (MISSING, "required integer is missing")]
    for path, where in [(("buses", 8, "id"), "buses[8].id"),
                        (("lines", 11, "from"), "lines[11].from"),
                        (("lines", 11, "to"), "lines[11].to"),
                        (("generators", 7, "bus"), "generators[7].bus"),
                        (("constraints", 23, "target", "bus"),
                         "constraints[23].target.bus")]:
        rows += [(path, value, f"{where}: {text}") for value, text in ints]
    for bus in (-1, 9, HUGE):
        rows += [
            (("generators", 7, "bus"), bus,
             f"generators[7].bus: bus {bus} does not exist"),
            (("constraints", 23, "target", "bus"), bus,
             f"constraints[23].target.bus: bus {bus} does not exist"),
            (("lines", 11, "from"), bus, f"network invariant: lines[11] "
             f"endpoints ({bus}, 8) must reference existing buses")]
    rows += [
        (("buses", 8, "id"), HUGE, "network invariant: buses must carry "
         f"sequential 0-based ids; buses[8].id == {HUGE}"),
        (("lines", 11, "to"), 5, "network invariant: lines[11] is a "
         "self-loop at bus 5"),
        (("lines", 11, "to"), 2, "duplicate line for bus pair (2, 5); "
         "parallel lines must be pre-aggregated")]
    for value in ("PQ", None, 3, []):
        rows.append((("buses", 8, "type"), value,
                     f"buses[8].type: expected one of slack|pv|pq, got {value!r}"))
    rows += [
        (("buses", 6, "v_setpoint"), 1.0,
         "buses[6].v_setpoint: a pq bus has no v_setpoint"),
        (("buses", 6, "theta_setpoint"), 0.0,
         "buses[6].theta_setpoint: a pq bus has no theta_setpoint"),
        (("buses", 8, "theta_setpoint"), 0.0,
         "buses[8].theta_setpoint: a pv bus has no theta_setpoint"),
        (("constraints", 23, "target", "var"), "V",
         "constraints[23].target.var: expected one of p|q|v|theta, got 'V'"),
        (("constraints", 23, "target", "var"), [],
         "constraints[23].target.var: expected one of p|q|v|theta, got []"),
        (("constraints", 23, "target"), [],
         "constraints[23].target: expected an object"),
        (("constraints", 23, "params"), 1,
         "constraints[23].params: expected an object")]
    for path, value in [(("buses", 8), []), (("lines", 11), "x"),
                        (("generators", 7), 7), (("constraints", 23), None)]:
        rows.append((path, value, f"{path[0]}[{path[1]}]: expected an object"))
    return rows


COLUMN_ERRORS = _column_errors()
# per section, (path, value, CaseError text) of an earlier bad entry; a
# row takes the first whose field differs from its own
EARLIER = {
    "buses": [(("buses", 2, "q_load"), "x",
               "buses[2].q_load: expected a finite number, got 'x'"),
              (("buses", 2, "id"), 2.0,
               "buses[2].id: expected an integer, got 2.0")],
    "lines": [(("lines", 3, "b_series"), None,
               "lines[3].b_series: expected a finite number, got None"),
              (("lines", 3, "from"), "3",
               "lines[3].from: expected an integer, got '3'")],
    "generators": [(("generators", 2, "q"), True,
                    "generators[2].q: expected a finite number, got True"),
                   (("generators", 2, "bus"), 1.0,
                    "generators[2].bus: expected an integer, got 1.0")],
    "constraints": [(("constraints", 4, "params", "bound"), "1.2",
                     "constraints[4].params.bound: expected a finite "
                     "number, got '1.2'"),
                    (("constraints", 4, "target", "bus"), None,
                     "constraints[4].target.bus: expected an integer, "
                     "got None")],
}


# (path of an unknown key, path of a bad field, CaseError text): an
# entry's keys are read after its fields, and before the next entry
UNKNOWN_FIRST = [
    (("buses", 2, "p_lod"), ("buses", 8, "q_load"),
     "buses[2].p_lod: unknown key; expected one of b_shunt|g_shunt|id|"
     "p_load|q_load|theta_setpoint|type|v_setpoint"),
    (("lines", 3, "r"), ("lines", 11, "g_series"),
     "lines[3].r: unknown key; expected one of "
     "b_series|b_shunt|from|g_series|g_shunt|to"),
    (("generators", 2, "qq"), ("generators", 7, "p"),
     "generators[2].qq: unknown key; expected one of bus|p|q"),
    (("constraints", 4, "comment"), ("constraints", 23, "params", "bound"),
     "constraints[4].comment: unknown key; expected one of "
     "kind|params|target"),
    (("buses", 8, "p_lod"), ("buses", 8, "q_load"),
     "buses[8].q_load: expected a finite number, got 'x'"),
]


@pytest.mark.parametrize("unknown, bad, message", UNKNOWN_FIRST,
                         ids=[m.split(":")[0] for _, _, m in UNKNOWN_FIRST])
def test_load_case_names_an_unknown_key_as_a_fault_of_its_entry(
        lattice_document, unknown, bad, message):
    doc = _column_document(lattice_document)
    _spoilt(doc, unknown, 0.0)
    _spoilt(doc, bad, "x")
    with pytest.raises(CaseError) as err:
        load_case(json.dumps(doc))
    assert str(err.value) == message


def _row_id(path, value, message):
    shown = ("missing" if value is MISSING else "huge" if value is HUGE
             else "1e400" if value == OVER else repr(value))
    return ".".join(map(str, path)) + "=" + shown


@pytest.mark.parametrize("path, value, message", COLUMN_ERRORS,
                         ids=[_row_id(*row) for row in COLUMN_ERRORS])
def test_load_case_names_the_first_bad_entry_of_a_column(
        lattice_document, path, value, message):
    doc = _column_document(lattice_document)

    def load():
        return load_case(json.dumps(doc).replace(f'"{OVER}"', "1e400"))

    load()
    _spoilt(doc, path, value)
    if message is None:
        load()
    else:
        with pytest.raises(CaseError) as err:
            load()
        assert str(err.value) == message
    at, value, message = next(row for row in EARLIER[path[0]]
                              if row[0][2:3] != path[2:3])
    _spoilt(doc, at, value)
    with pytest.raises(CaseError) as err:
        load()
    assert str(err.value) == message


# a bus's number columns, named as its keys, with their defaults; a line's
# number columns with their keys, 0.0 where a key is left out
BUS_DEFAULTS = {"p_load": 0.0, "q_load": 0.0, "g_shunt": 0.0, "b_shunt": 0.0,
                "v_setpoint": 1.0, "theta_setpoint": 0.0}
LINE_KEYS = {"g_series": "g_series", "b_series": "b_series",
             "g_line_shunt": "g_shunt", "b_line_shunt": "b_shunt"}


def _network(doc: dict) -> Network:
    """The network of a document's buses and lines, built entry by entry:
    each entry's values, a key it leaves out at its default, appended to
    the columns."""
    cols = defaultdict(list, line_ends=[])
    for e in doc["buses"]:
        cols["bus_type"].append(e["type"])
        for name, default in BUS_DEFAULTS.items():
            cols[name].append(float(e.get(name, default)))
    for e in doc.get("lines", []):
        cols["line_ends"].append((e["from"], e["to"]))
        for name, key in LINE_KEYS.items():
            cols[name].append(float(e.get(key, 0.0)))
    return Network(**cols)


def _constructed(doc: dict) -> Case:
    """The case of a well-formed document, built entry by entry by the
    constructors: ``Network``, the constraint classes and ``CostSpec``."""
    n = len(doc["buses"])
    gen_p, gen_q = np.zeros(n), np.zeros(n)
    for e in doc.get("generators", []):
        gen_p[e["bus"]], gen_q[e["bus"]] = e.get("p", 0.0), e.get("q", 0.0)
    ops = []
    for e in doc.get("constraints", []):
        kind, params, target = e["kind"], e["params"], e.get("target")
        if kind in ("box_upper", "box_lower"):
            box = BoxUpper if kind == "box_upper" else BoxLower
            ops.append(box(state_index(target["var"], target["bus"], n),
                           float(params["bound"])))
        elif kind == "linear_eq":
            ops.append(LinearEq(
                tuple((state_index(t["var"], t["bus"], n), float(t["coef"]))
                      for t in params["terms"]),
                float(params.get("offset", 0.0))))
        elif kind == "apparent_power":
            ops.append(ApparentPower(target["bus"], n, float(params["s2_max"])))
        else:
            ops.append(ExpLoadEq(target["bus"], n, float(params["alpha"]),
                                 float(params["p_load"])))
    c2, c1 = np.zeros(4 * n), np.zeros(4 * n)
    for key, sink in (("quadratic", c2), ("linear", c1)):
        for t in doc.get("cost", {}).get(key, []):
            sink[state_index(t["var"], t["bus"], n)] += t["coef"]
    return Case(network=_network(doc), gen_p=gen_p, gen_q=gen_q,
                constraints=tuple(ops), cost=CostSpec(c2=c2, c1=c1))


def _random_document(n_bus: int, rng) -> dict:
    """A random network's document with generators, boxes and a cost."""
    net = random_network(n_bus, rng)
    index = rng.choice(4 * n_bus, size=n_bus, replace=False)
    boxes = tuple(
        (BoxUpper if k % 2 else BoxLower)(int(i), float(rng.uniform(-1, 1)))
        for k, i in enumerate(index))
    return case_document(Case(
        network=net, gen_p=rng.uniform(-1.0, 1.0, n_bus),
        gen_q=np.where(rng.uniform(size=n_bus) < 0.5, 0.0, 0.3),
        constraints=boxes, cost=CostSpec(c2=rng.uniform(0, 1, 4 * n_bus),
                                         c1=rng.uniform(-1, 1, 4 * n_bus))))


@pytest.mark.parametrize("source", [
    "random-2", "random-7", "random-16", "lattice-3x3", "lattice-4x7",
    "lattice-6x6", "column", "all-kinds", "grid-8-shunts", "grid-12",
    "grid-24"])
def test_load_case_builds_what_the_constructors_build(lattice_document,
                                                      source):
    kind, _, size = source.partition("-")
    if kind == "random":
        doc = _random_document(int(size), np.random.default_rng(int(size)))
    elif kind == "lattice":
        doc = lattice_document(*map(int, size.split("x")), 0)
    elif kind == "column":
        doc = _column_document(lattice_document)
    elif kind == "all":
        doc = all_kinds_document()
    else:
        side, _, shunts = size.partition("-")
        doc = bench_grid_document(int(side), 0, shunts=bool(shunts))
    got, want = load_case(json.dumps(doc)), _constructed(doc)
    # reprs and bytes tell -0.0 from 0.0, reprs an int from a float
    assert network_columns(got.network) == network_columns(want.network)
    assert repr(got.constraints) == repr(want.constraints)
    for a, b in ((got.gen_p, want.gen_p), (got.gen_q, want.gen_q),
                 (got.cost.c2, want.cost.c2), (got.cost.c1, want.cost.c1)):
        assert a.tobytes() == b.tobytes()


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [p for key, child in items for p in _leaf_paths(child, path + (key,))]


EX1_DOC = case_document(example1(1.0).case)
malformed_leaves = st.one_of(
    st.just(float("nan")), st.just(float("inf")), st.just(float("-inf")),
    st.text(), st.none(), st.booleans(),
    st.lists(st.integers(), max_size=3),
    st.integers(), st.integers(min_value=2 ** 1024),
    st.integers(max_value=-2 ** 1024),
)


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(_leaf_paths(EX1_DOC)), value=malformed_leaves)
def test_load_case_fuzzed_leaf_returns_case_or_case_error(path, value):
    doc = json.loads(json.dumps(EX1_DOC))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        case = load_case(json.dumps(doc))
    except CaseError:
        return
    assert isinstance(case, Case)


def test_bus_order_follows_the_lines_not_the_ids():
    # the path 0 - 3 - 1 - 4 and the isolated bus 2: each component from its
    # bus of least degree, ties by id, and the components' whole order
    # reversed
    with pytest.warns(UserWarning, match="not connected"):
        net = Network(bus_type=["slack"] + ["pq"] * 4,
                      line_ends=[(0, 3), (3, 1), (1, 4)],
                      g_series=[1.0] * 3, b_series=[-5.0] * 3)
    assert net.components == ((2,), (0, 3, 1, 4))
    assert net.bus_order.tolist() == [4, 1, 3, 0, 2]
    assert not net.bus_order.flags.writeable
