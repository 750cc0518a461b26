import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opfdiag as od
from opfdiag.cases import example1
from opfdiag.netmodel import (Bus, BusType, Case, CaseError, Line, Network,
                              build_ybus, load_case)

from netgen import case_document, random_network


def two_bus(b_series=-1.0, **bus1_kwargs):
    return Network(
        buses=(Bus(id=0, bus_type=BusType.SLACK),
               Bus(id=1, bus_type=BusType.PQ, **bus1_kwargs)),
        lines=(Line(from_bus=0, to_bus=1, g_series=0.0, b_series=b_series),),
    )


def test_ybus_two_bus_unit_susceptance():
    # hand application of the three-case entry formula
    y = build_ybus(two_bus())
    assert np.array_equal(y.G, np.zeros((2, 2)))
    assert np.array_equal(y.B, np.array([[-1.0, 1.0], [1.0, -1.0]]))


def test_ybus_single_bus_shunt_only():
    net = Network(
        buses=(Bus(id=0, bus_type=BusType.SLACK, g_shunt=0.1, b_shunt=0.2),),
        lines=())
    y = build_ybus(net)
    assert y.G.tolist() == [[0.1]]
    assert y.B.tolist() == [[0.2]]


def test_ybus_duplicate_line_rejected():
    buses = (Bus(id=0, bus_type=BusType.SLACK), Bus(id=1, bus_type=BusType.PQ))
    lines = (Line(0, 1, 0.0, -1.0), Line(1, 0, 0.5, -2.0))
    with pytest.raises(CaseError, match=r"duplicate line.*\(0, 1\)"):
        Network(buses=buses, lines=lines)


admittances = st.floats(min_value=-5.0, max_value=5.0,
                        allow_nan=False, allow_infinity=False)
# dyadic rationals: sums of these are exact in binary floating point
dyadic = st.integers(min_value=-5 * 1024, max_value=5 * 1024).map(
    lambda k: k / 1024.0)


@st.composite
def shunt_free_networks(draw, values=admittances):
    n = draw(st.integers(min_value=2, max_value=5))
    buses = tuple(
        Bus(id=k,
            bus_type=BusType.SLACK if k == 0 else BusType.PQ,
            p_load=draw(values), q_load=draw(values))
        for k in range(n))
    lines = tuple(
        Line(from_bus=k, to_bus=k + 1,
             g_series=draw(values), b_series=draw(values))
        for k in range(n - 1))
    return Network(buses=buses, lines=lines)


@settings(max_examples=50, deadline=None)
@given(shunt_free_networks(values=dyadic))
def test_ybus_shunt_free_row_sums_exactly_zero(net):
    # exact whenever the admittance sums round nowhere, which dyadic
    # rationals of a shared scale guarantee
    y = build_ybus(net)
    ones = np.ones(net.n_bus)
    assert np.abs(y.G @ ones).max() == 0.0
    assert np.abs(y.B @ ones).max() == 0.0


@settings(max_examples=50, deadline=None)
@given(shunt_free_networks())
def test_ybus_shunt_free_row_sums_vanish_to_machine_precision(net):
    y = build_ybus(net)
    ones = np.ones(net.n_bus)
    scale = max(1.0, np.abs(y.G).max(), np.abs(y.B).max())
    assert np.abs(y.G @ ones).max() <= 4e-16 * scale * net.n_bus
    assert np.abs(y.B @ ones).max() <= 4e-16 * scale * net.n_bus


@settings(max_examples=50, deadline=None)
@given(shunt_free_networks())
def test_ybus_symmetric_exactly(net):
    y = build_ybus(net)
    assert np.array_equal(y.G, y.G.T)
    assert np.array_equal(y.B, y.B.T)


def test_ybus_row_sums_equal_lumped_shunts(rng):
    from opfdiag.perturb import lumped_shunts

    net = random_network(4, rng)
    y = build_ybus(net)
    g_lump, b_lump = lumped_shunts(net)
    ones = np.ones(net.n_bus)
    assert np.abs(y.G @ ones - g_lump).max() <= 1e-14
    assert np.abs(y.B @ ones - b_lump).max() <= 1e-14


def per_line_ybus(net):
    """Per-line complex accumulation, lines in case order and the nodal
    shunt last: the summation order the assembly keeps."""
    y = np.zeros((net.n_bus, net.n_bus), dtype=complex)
    for ln in net.lines:
        ys = complex(ln.g_series, ln.b_series)
        ysh_half = complex(ln.g_shunt, ln.b_shunt) / 2.0
        k, l = ln.from_bus, ln.to_bus
        y[k, k] += ys + ysh_half
        y[l, l] += ys + ysh_half
        y[k, l] -= ys
        y[l, k] -= ys
    for bus in net.buses:
        y[bus.id, bus.id] += complex(bus.g_shunt, bus.b_shunt)
    return y


@pytest.mark.parametrize("shared_series", [False, True])
def test_admittance_stack_trials_match_per_line_sums(rng, shared_series):
    for _ in range(10):
        net = random_network(8, rng)
        n, m, trials = net.n_bus, net.n_line, 5
        series = (rng.uniform(0.0, 2.0, (1 if shared_series else trials, m)),
                  rng.uniform(-5.0, -0.5, (1 if shared_series else trials, m)))
        shunts = rng.uniform(-0.3, 0.3, (2, trials, n))
        G, B = od.netmodel.admittance_stack(net, *series, *shunts)
        for t in range(trials):
            s = 0 if shared_series else t
            trial = Network(
                buses=tuple(replace(b, g_shunt=float(shunts[0, t, b.id]),
                                    b_shunt=float(shunts[1, t, b.id]))
                            for b in net.buses),
                lines=tuple(replace(ln, g_series=float(series[0][s, j]),
                                    b_series=float(series[1][s, j]))
                            for j, ln in enumerate(net.lines)))
            y = per_line_ybus(trial)
            assert G[t].tobytes() == y.real.tobytes()
            assert B[t].tobytes() == y.imag.tobytes()
        y = per_line_ybus(net)
        assert build_ybus(net).G.tobytes() == y.real.tobytes()
        assert build_ybus(net).B.tobytes() == y.imag.tobytes()


def test_network_rejects_empty_bus_list():
    with pytest.raises(CaseError, match="non-empty"):
        Network(buses=(), lines=())


def test_network_rejects_two_slacks():
    buses = (Bus(id=0, bus_type=BusType.SLACK),
             Bus(id=1, bus_type=BusType.SLACK))
    with pytest.raises(CaseError, match="exactly one slack"):
        Network(buses=buses, lines=(Line(0, 1, 0.0, -1.0),))


def test_network_rejects_dangling_endpoint():
    buses = (Bus(id=0, bus_type=BusType.SLACK), Bus(id=1, bus_type=BusType.PQ))
    with pytest.raises(CaseError, match="existing buses"):
        Network(buses=buses, lines=(Line(0, 7, 0.0, -1.0),))


def test_network_warns_on_disconnected_graph():
    buses = (Bus(id=0, bus_type=BusType.SLACK),
             Bus(id=1, bus_type=BusType.PQ),
             Bus(id=2, bus_type=BusType.PQ))
    with pytest.warns(UserWarning, match="not connected"):
        Network(buses=buses, lines=(Line(0, 1, 0.0, -1.0),))


def test_load_case_builtin_document_matches_fixture(ex1):
    case = load_case(json.dumps(case_document(ex1.case)))
    line = case.network.lines[0]
    assert line.g_series == 0.0 and line.b_series == -1.0
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


def test_load_case_rejects_invalid_json():
    with pytest.raises(CaseError, match="invalid JSON"):
        load_case("{not json")


def test_round_trip_bit_equality(ex1):
    doc = case_document(ex1.case)
    case = load_case(json.dumps(doc))
    again = load_case(json.dumps(case_document(case)))
    assert case.network == again.network
    assert np.array_equal(case.gen_p, again.gen_p)
    assert np.array_equal(case.gen_q, again.gen_q)
    assert case.constraint_specs == again.constraint_specs
    assert case.cost == again.cost


def test_admittance_matrix_is_read_only():
    y = build_ybus(two_bus())
    with pytest.raises(ValueError):
        y.G[0, 0] = 99.0


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
