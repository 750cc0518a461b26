"""Seeded random desk-scale networks and states for property tests, the
per-trial reference draw of the Monte Carlo sweep, the test-side inverses
of case loading and of the flow model, the dense references of the
line-list admittances, the per-row references of the constraint tables,
the reduced matrix of an active stack, and the benchmark's grid
documents."""

import importlib.util
from dataclasses import fields
from pathlib import Path

import numpy as np

from opfdiag.netmodel import (_KINDS, Case, Constraints, Network,
                              VoltageDomainError)
from opfdiag.powerflow import SystemState, _injections


def network_columns(net: Network) -> dict:
    """Each column of ``net`` as (dtype, shape, bytes): two networks have
    equal columns exactly where every value is equal bit for bit, which
    tells -0.0 from 0.0."""
    return {f.name: (col.dtype.str, col.shape, col.tobytes())
            for f in fields(net) for col in [getattr(net, f.name)]}


def random_network(n_bus: int, rng: np.random.Generator) -> Network:
    """Radial chain plus random extra lines (each with probability 0.3);
    about half the buses and every line carry a shunt."""
    p, q, g_sh, b_sh = np.zeros((4, n_bus))
    for k in range(n_bus):
        if rng.uniform() < 0.5:
            g_sh[k] = rng.uniform(0.0, 0.3)
            b_sh[k] = rng.uniform(-0.3, 0.3)
        p[k] = rng.uniform(-1.0, 1.0)
        q[k] = rng.uniform(-1.0, 1.0)
    pairs = [(k, k + 1) for k in range(n_bus - 1)]
    pairs += [(k, l) for k in range(n_bus) for l in range(k + 2, n_bus)
              if rng.uniform() < 0.3]
    g, b, g_line, b_line = np.array(
        [(rng.uniform(0.0, 2.0), rng.uniform(-5.0, -0.5),
          rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.2))
         for _ in pairs]).reshape(-1, 4).T
    return Network(bus_type=["slack"] + ["pq"] * (n_bus - 1),
                   line_ends=pairs, p_load=p, q_load=q, g_shunt=g_sh,
                   b_shunt=b_sh, g_series=g, b_series=b, g_line_shunt=g_line,
                   b_line_shunt=b_line)


def ring_network(n_bus: int, seed: int) -> Network:
    """Shunt-free ring of ``n_bus`` buses plus n_bus / 2 seeded random
    chords, small balanced loads and the slack at bus 0: a meshed network
    whose Newton matrix is too wide a band to solve banded, so Newton takes
    the dense LU."""
    rng = np.random.default_rng([seed, n_bus])
    pairs = {tuple(sorted((k, (k + 1) % n_bus))) for k in range(n_bus)}
    while len(pairs) < n_bus + n_bus // 2:
        pairs.add(tuple(sorted(rng.choice(n_bus, 2, replace=False).tolist())))
    load = rng.uniform(-0.03, 0.03, (2, n_bus))
    load -= load.mean(axis=1, keepdims=True)
    g, b = np.array([(rng.uniform(0.5, 1.5), rng.uniform(-8.0, -4.0))
                     for _ in sorted(pairs)]).T
    return Network(bus_type=["slack"] + ["pq"] * (n_bus - 1),
                   line_ends=sorted(pairs), p_load=load[0], q_load=load[1],
                   g_series=g, b_series=b)


def random_state(net: Network, rng: np.random.Generator) -> SystemState:
    n = net.n_bus
    return SystemState(
        p_gen=rng.uniform(-1.0, 1.0, n),
        q_gen=rng.uniform(-1.0, 1.0, n),
        v=rng.uniform(0.7, 1.3, n),
        theta=rng.uniform(-1.0, 1.0, n),
    )


def trial_draw(seed: int, trial: int, box: np.ndarray) -> np.ndarray:
    """Parameter draw of one sweep trial from its own generator: what
    ``perturb._draws`` computes for every trial at once."""
    return np.random.default_rng([seed, trial]).uniform(box[:, 0], box[:, 1])


def injections(net: Network, v: np.ndarray, theta: np.ndarray):
    """Nodal power (p, q) flowing from each bus into the network at one
    voltage profile, under the network's own admittances."""
    g, b = net.admittances
    p, q = _injections(net, g + 1j * b, v[None], theta[None])
    return p[0], q[0]


def dense_admittances(net: Network, g: np.ndarray, b: np.ndarray):
    """The T x N x N matrices (G, B) of line lists g, b (T x (M + N)),
    zero off the lines and the diagonal."""
    n, m = net.n_bus, net.n_line
    ends, bus = net.line_ends, np.arange(n)
    out = []
    for y in (g, b):
        dense = np.zeros((len(y), n, n))
        dense[:, ends[:, 0], ends[:, 1]] = y[:, :m]
        dense[:, ends[:, 1], ends[:, 0]] = y[:, :m]
        dense[:, bus, bus] = y[:, m:]
        out.append(dense)
    return out


def dense_residual(G: np.ndarray, B: np.ndarray, p_load: np.ndarray,
                   q_load: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """F at flat states (T x 4N) from dense admittance matrices, Y u as one
    complex matrix product with Yc = G + jB: the reference of the
    line-list residual."""
    n = flat.shape[-1] // 4
    u = flat[:, 2 * n:3 * n] * np.exp(1j * flat[:, 3 * n:])
    s = u * np.conj(((G + 1j * B) @ u[..., None])[..., 0])
    return np.concatenate([flat[:, :n] - p_load - s.real,
                           flat[:, n:2 * n] - q_load - s.imag], axis=1)


def reduced_rows(a: np.ndarray, n_bus: int) -> np.ndarray:
    """R = O_z - O_g X of an active stack ``a`` of an N-bus network over
    its free columns: the 2N flow rows are [I, X], every other row is
    [O_g, O_z]."""
    p = 2 * n_bus
    return a[p:, p:] - a[p:, :p] @ a[:p, p:]


def bench_grid_document(side: int, seed: int, *, shunts: bool) -> dict:
    """bench/grid.py's side x side lattice document: with shunts the case
    of the mc-grid sweep, without them that of the check-grid check."""
    path = Path(__file__).resolve().parents[1] / "bench" / "grid.py"
    spec = importlib.util.spec_from_file_location("bench_grid", path)
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    return grid.grid_case(side, seed, shunts=shunts)


def pinned_grid_document(side: int, seed: int) -> dict:
    """The shunt-free ``bench_grid_document`` with generation pinned at
    every PQ bus by one-term linear_eq rows, p = 0 then q = 0 at each PQ
    bus in bus order, after the voltage boxes: the operational rows then
    make R the square reduced flow Jacobian."""
    doc = bench_grid_document(side, seed, shunts=False)
    for bus in doc["buses"]:
        if bus["type"] == "pq":
            doc["constraints"] += [
                {"kind": "linear_eq", "params": {"terms": [
                    {"var": var, "bus": bus["id"], "coef": 1.0}]}}
                for var in ("p", "q")]
    return doc


def all_kinds_document() -> dict:
    """Three-bus case document with every constraint kind, a linear_eq
    whose term repeats and a cost whose quadratic term repeats. The
    operating point of its setpoints satisfies every constraint, and so
    does every shunt draw: the load curve has alpha = 0, so it reads
    q_2 = 0, a setpoint of the PQ bus, as the linear_eq reads p_2."""
    return {
        "buses": [{"id": 0, "type": "slack"},
                  {"id": 1, "type": "pv", "p_load": 0.1, "v_setpoint": 1.02},
                  {"id": 2, "type": "pq", "p_load": 0.3, "q_load": 0.1,
                   "b_shunt": 0.05}],
        "lines": [{"from": 0, "to": 1, "g_series": 1.0, "b_series": -8.0},
                  {"from": 1, "to": 2, "g_series": 1.0, "b_series": -6.0},
                  {"from": 0, "to": 2, "g_series": 0.5, "b_series": -4.0}],
        "generators": [{"bus": 1, "p": 0.4}, {"bus": 2, "p": -0.25, "q": 0.0}],
        "constraints": [
            {"kind": "box_upper", "target": {"var": "v", "bus": 2},
             "params": {"bound": 1.1}},
            {"kind": "linear_eq", "params": {
                "terms": [{"var": "p", "bus": 2, "coef": 1.0},
                          {"var": "p", "bus": 2, "coef": 1.0}],
                "offset": -0.5}},
            {"kind": "apparent_power", "target": {"bus": 0},
             "params": {"s2_max": 1.0}},
            {"kind": "box_lower", "target": {"var": "v", "bus": 2},
             "params": {"bound": 0.9}},
            {"kind": "exp_load_eq", "target": {"bus": 2},
             "params": {"alpha": 0.0, "p_load": 0.0}},
        ],
        "cost": {"quadratic": [{"var": "p", "bus": 0, "coef": 0.1},
                               {"var": "p", "bus": 0, "coef": 0.2}],
                 "linear": [{"var": "theta", "bus": 2, "coef": 1.0},
                            {"var": "q", "bus": 1, "coef": 0.5}]},
    }


def every_column_document() -> dict:
    """Four-bus case document that sets every network column: loads and
    nodal shunts at every bus type, a PV bus, a slack with its own voltage
    and a nonzero angle, and lines with both line shunts, some entered
    from their larger end. Its setpoints solve to a point inside both
    voltage bounds, where LICQ holds, as at every line and shunt draw of a
    50-trial sweep at seed 0."""
    return {
        "buses": [{"id": 0, "type": "slack", "p_load": 0.05, "q_load": 0.02,
                   "g_shunt": 0.01, "b_shunt": 0.03, "v_setpoint": 1.03,
                   "theta_setpoint": 0.25},
                  {"id": 1, "type": "pv", "p_load": 0.2, "q_load": 0.05,
                   "g_shunt": 0.02, "v_setpoint": 1.01},
                  {"id": 2, "type": "pq", "p_load": 0.3, "q_load": 0.1,
                   "b_shunt": 0.05},
                  {"id": 3, "type": "pq", "p_load": -0.1, "q_load": 0.04,
                   "g_shunt": 0.015, "b_shunt": -0.02}],
        "lines": [{"from": 0, "to": 1, "g_series": 1.0, "b_series": -8.0,
                   "g_shunt": 0.01, "b_shunt": 0.04},
                  {"from": 2, "to": 1, "g_series": 1.2, "b_series": -6.0,
                   "b_shunt": 0.03},
                  {"from": 0, "to": 2, "g_series": 0.5, "b_series": -4.0,
                   "g_shunt": 0.005},
                  {"from": 3, "to": 2, "g_series": 0.8, "b_series": -5.0,
                   "g_shunt": 0.002, "b_shunt": 0.06}],
        "generators": [{"bus": 1, "p": 0.4, "q": 0.1}, {"bus": 3, "p": 0.05}],
        "constraints": [
            {"kind": "box_upper", "target": {"var": "v", "bus": 2},
             "params": {"bound": 1.1}},
            {"kind": "box_lower", "target": {"var": "v", "bus": 3},
             "params": {"bound": 0.9}},
        ],
        "cost": {"quadratic": [{"var": "p", "bus": 0, "coef": 1.0}],
                 "linear": [{"var": "p", "bus": 1, "coef": 0.5}]},
    }


def _state_entry(index: int, n_bus: int) -> dict:
    """The {var, bus} entry of a flat-state index (inverse of state_index)."""
    block, bus = divmod(int(index), n_bus)
    return {"var": ("p", "q", "v", "theta")[block], "bus": bus}


# A constraint row as a spec tuple, one form per kind:
#   ("box_upper", index, bound), ("box_lower", index, bound),
#   ("linear_eq", ((index, coef), ...), offset),
#   ("apparent_power", bus, s2_max), ("exp_load_eq", bus, alpha, p_load),
# an index a flat-state index and a bus a bus id.

def constraint_rows(*specs) -> Constraints:
    """The ``Constraints`` table of the rows ``specs``, in their order,
    built entry by entry by the table's constructor; a bound may be
    infinite here, as no document's may."""
    def of(kind):
        return [spec[1:] for spec in specs if spec[0] == kind]

    def columns(kind, width):
        # an int column (index or bus), then the kind's numbers
        rows = np.array(of(kind), dtype=float).reshape(-1, width)
        return (rows[:, 0].astype(int), *rows[:, 1:].T.copy())

    lin = of("linear_eq")
    linear = (
        np.cumsum([0] + [len(terms) for terms, _ in lin]),
        np.array([i for terms, _ in lin for i, _ in terms], dtype=int),
        np.array([c for terms, _ in lin for _, c in terms], dtype=float),
        np.array([offset for _, offset in lin], dtype=float))
    return Constraints(
        np.array([_KINDS.index(spec[0]) for spec in specs], dtype=int),
        columns("box_upper", 2), columns("box_lower", 2), linear,
        columns("apparent_power", 2), columns("exp_load_eq", 3))


def constraint_specs(rows: Constraints) -> list:
    """The spec of each row of a table, in row order (the inverse of
    ``constraint_rows``), with Python numbers."""
    ptr, index, coef, offset = rows.linear_eq
    by_kind = [[(kind, int(at), *map(float, nums)) for at, *nums in zip(*table)]
               for kind, table in zip(_KINDS, rows.tables)]
    by_kind[2] = [
        ("linear_eq", tuple(zip(index[a:b].tolist(), coef[a:b].tolist())),
         float(off)) for a, b, off in zip(ptr[:-1], ptr[1:], offset)]
    own = [iter(specs) for specs in by_kind]
    return [next(own[code]) for code in rows.kind.tolist()]


def constraint_columns(rows: Constraints) -> dict:
    """Each column of a table as (dtype, shape, bytes), as
    ``network_columns`` gives a network's."""
    return {f"{f.name}.{i}": (col.dtype.str, col.shape, col.tobytes())
            for f in fields(rows) for i, col in enumerate(
                [getattr(rows, f.name)] if f.name == "kind"
                else getattr(rows, f.name))}


def dense_gradients(rows: Constraints, flat: np.ndarray) -> np.ndarray:
    """The rows' gradients at one flat state as a dense rows x 4N array,
    scattered from ``Constraints.gradients``."""
    out = np.zeros((rows.size, flat.size))
    at_r, at_c, values = rows.gradients(flat[None])
    out[at_r, at_c] = values[0]
    return out


def reference_value(spec, x: np.ndarray):
    """The value of one row at a flat state or a stack of them (shape
    x.shape[:-1]), by the formula of its kind, a linear_eq summing its
    terms in order from 0: the per-row reference of
    ``Constraints.values``."""
    kind, *args = spec
    n = x.shape[-1] // 4
    if kind == "box_upper":
        return x[..., args[0]] - args[1]
    if kind == "box_lower":
        return args[1] - x[..., args[0]]
    if kind == "linear_eq":
        return sum(c * x[..., i] for i, c in args[0]) - args[1]
    p, q = x[..., args[0]], x[..., n + args[0]]
    if kind == "apparent_power":
        return p * p + q * q - args[1]
    v = x[..., 2 * n + args[0]]
    root = np.sqrt(np.where(v > 0.0, v, np.nan))
    return q + args[1] * (p - args[2] - root)


def reference_gradient(spec, x: np.ndarray) -> np.ndarray:
    """The gradient of one row over the full flat state (shape x.shape),
    set entry by entry, a repeated linear_eq term added in order: the
    per-row reference of ``Constraints.gradients``. An exp_load_eq row
    raises VoltageDomainError at v <= 0, naming its first such value."""
    kind, *args = spec
    n = x.shape[-1] // 4
    g = np.zeros(x.shape)
    if kind in ("box_upper", "box_lower"):
        g[..., args[0]] = 1.0 if kind == "box_upper" else -1.0
    elif kind == "linear_eq":
        for i, c in args[0]:
            g[..., i] += c
    elif kind == "apparent_power":
        for i in (args[0], n + args[0]):
            g[..., i] = 2.0 * x[..., i]
    else:
        bus, alpha, _ = args
        v = x[..., 2 * n + bus]
        bad = v[v <= 0.0]
        if bad.size:
            raise VoltageDomainError(
                f"voltage-dependent load at bus {bus} evaluated at v = "
                f"{float(bad.flat[0])}; requires v > 0")
        g[..., bus] = alpha
        g[..., n + bus] = 1.0
        g[..., 2 * n + bus] = -alpha / (2.0 * np.sqrt(v))
    return g


def _constraint_document(spec, n_bus: int) -> dict:
    """A row spec's constraints entry."""
    kind, *args = spec
    if kind in ("box_upper", "box_lower"):
        return {"kind": kind, "target": _state_entry(args[0], n_bus),
                "params": {"bound": args[1]}}
    if kind == "linear_eq":
        return {"kind": kind, "target": None, "params": {
            "terms": [{**_state_entry(i, n_bus), "coef": c}
                      for i, c in args[0]],
            "offset": args[1]}}
    return {"kind": kind, "target": {"bus": args[0]},
            "params": dict(zip(("s2_max",) if kind == "apparent_power"
                               else ("alpha", "p_load"), args[1:]))}


def case_document(case: Case) -> dict:
    """Serialize a case back to its document form (inverse of load_case):
    one cost term per nonzero entry of its CostSpec arrays."""
    net = case.network
    n = net.n_bus
    buses = []
    for k, kind in enumerate(net.bus_type.tolist()):
        bus = {"id": k, "type": kind, **{name: float(getattr(net, name)[k])
               for name in ("p_load", "q_load", "g_shunt", "b_shunt")}}
        # the setpoints its type reads: v at slack and PV buses, theta at
        # the slack
        if kind != "pq":
            bus["v_setpoint"] = float(net.v_setpoint[k])
        if kind == "slack":
            bus["theta_setpoint"] = float(net.theta_setpoint[k])
        buses.append(bus)
    return {
        "buses": buses,
        "lines": [
            {"from": k, "to": l, "g_series": g, "b_series": b,
             "g_shunt": g_sh, "b_shunt": b_sh}
            for (k, l), g, b, g_sh, b_sh in zip(
                net.line_ends.tolist(), net.g_series.tolist(),
                net.b_series.tolist(), net.g_line_shunt.tolist(),
                net.b_line_shunt.tolist())
        ],
        "generators": [
            {"bus": k, "p": float(case.gen_p[k]), "q": float(case.gen_q[k])}
            for k in range(n)
            if case.gen_p[k] != 0.0 or case.gen_q[k] != 0.0
        ],
        "constraints": [_constraint_document(spec, n)
                        for spec in constraint_specs(case.constraints)],
        "cost": {
            key: [{**_state_entry(i, n), "coef": float(coef[i])}
                  for i in np.flatnonzero(coef)]
            for key, coef in (("quadratic", case.cost.c2),
                              ("linear", case.cost.c1))
        },
    }
