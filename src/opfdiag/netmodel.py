"""Power network data model and nodal admittance matrix construction.

All quantities are per-unit. Complex admittances are carried as explicit
(conductance, susceptance) pairs in every public type; complex arithmetic
is confined to implementation internals. Bus ordering everywhere is the
case-file order and is never re-sorted.
"""

from __future__ import annotations

import enum
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np


class CaseError(ValueError):
    """Malformed case document or violated network invariant."""


class BusType(enum.Enum):
    SLACK = "slack"
    PV = "pv"
    PQ = "pq"


@dataclass(frozen=True)
class Bus:
    """Single network node.

    Loads and the nodal shunt admittance are fixed data; generation at the
    bus lives in the system state, not here. ``v_setpoint`` applies to
    SLACK/PV buses, ``theta_setpoint`` to the SLACK bus only.
    """

    id: int
    bus_type: BusType
    p_load: float = 0.0
    q_load: float = 0.0
    g_shunt: float = 0.0
    b_shunt: float = 0.0
    v_setpoint: float = 1.0
    theta_setpoint: float = 0.0


@dataclass(frozen=True)
class Line:
    """Two-terminal Pi-model line.

    ``g_series``/``b_series`` form the series admittance; ``g_shunt``/
    ``b_shunt`` the *total* line shunt admittance, half of which is lumped
    at each end. No off-nominal taps or phase shifts: the admittance
    matrix stays symmetric.
    """

    from_bus: int
    to_bus: int
    g_series: float
    b_series: float
    g_shunt: float = 0.0
    b_shunt: float = 0.0


@dataclass(frozen=True)
class Network:
    """Validated bus/line collection.

    Raises :class:`CaseError` on construction if any invariant fails:
    exactly one slack bus, sequential 0-based bus ids, line endpoints in
    range and distinct, at most one line per unordered pair, positive
    voltage setpoints where applicable. Disconnected line graphs produce
    a warning, not an error.
    """

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]

    def __post_init__(self) -> None:
        if not self.buses:
            raise CaseError("network invariant: bus list must be non-empty")
        for i, bus in enumerate(self.buses):
            if bus.id != i:
                raise CaseError(
                    f"network invariant: buses must carry sequential 0-based ids; "
                    f"buses[{i}].id == {bus.id}"
                )
            if bus.bus_type in (BusType.SLACK, BusType.PV) and not bus.v_setpoint > 0:
                raise CaseError(
                    f"network invariant: v_setpoint > 0 required at bus {bus.id}"
                )
        slacks = [b.id for b in self.buses if b.bus_type is BusType.SLACK]
        if len(slacks) != 1:
            raise CaseError(
                f"network invariant: exactly one slack bus required, found {slacks}"
            )
        n = len(self.buses)
        seen: set[frozenset[int]] = set()
        for j, ln in enumerate(self.lines):
            if not (0 <= ln.from_bus < n and 0 <= ln.to_bus < n):
                raise CaseError(
                    f"network invariant: lines[{j}] endpoints ({ln.from_bus}, "
                    f"{ln.to_bus}) must reference existing buses"
                )
            if ln.from_bus == ln.to_bus:
                raise CaseError(
                    f"network invariant: lines[{j}] is a self-loop at bus {ln.from_bus}"
                )
            pair = frozenset((ln.from_bus, ln.to_bus))
            if pair in seen:
                raise CaseError(
                    f"duplicate line for bus pair ({min(pair)}, {max(pair)}); "
                    "parallel lines must be pre-aggregated"
                )
            seen.add(pair)
        if n > 1 and not self._connected():
            warnings.warn("line graph is not connected", stacklevel=2)

    def _connected(self) -> bool:
        adj: dict[int, list[int]] = {k: [] for k in range(self.n_bus)}
        for ln in self.lines:
            adj[ln.from_bus].append(ln.to_bus)
            adj[ln.to_bus].append(ln.from_bus)
        seen = {0}
        stack = [0]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == self.n_bus

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def n_line(self) -> int:
        return len(self.lines)

    @property
    def p_load(self) -> np.ndarray:
        return np.array([b.p_load for b in self.buses])

    @property
    def q_load(self) -> np.ndarray:
        return np.array([b.q_load for b in self.buses])


@dataclass(frozen=True, eq=False)
class AdmittanceMatrix:
    """Nodal admittance matrix split into real parts Y = G + jB."""

    G: np.ndarray
    B: np.ndarray

    def __post_init__(self) -> None:
        self.G.setflags(write=False)
        self.B.setflags(write=False)

    def to_dict(self) -> dict:
        return {"G": self.G.tolist(), "B": self.B.tolist()}


def build_ybus(net: Network) -> AdmittanceMatrix:
    """Assemble the nodal admittance matrix.

    Diagonal entries collect the nodal shunt plus, over incident lines,
    the series admittance and half the line shunt; off-diagonal entries
    are the negated series admittance of the connecting line; zero
    elsewhere. The result is symmetric by construction and has exact zero
    row sums when every shunt vanishes.

    This is the one-trial call of ``admittance_stack``.
    """
    G, B = admittance_stack(
        net, np.array([[ln.g_series for ln in net.lines]]),
        np.array([[ln.b_series for ln in net.lines]]),
        np.array([[b.g_shunt for b in net.buses]]),
        np.array([[b.b_shunt for b in net.buses]]))
    return AdmittanceMatrix(G=G[0], B=B[0])


def admittance_stack(net: Network, series_g: np.ndarray, series_b: np.ndarray,
                     shunt_g: np.ndarray, shunt_b: np.ndarray):
    """Nodal admittance matrices (G, B), each T x N x N, of trials that share
    the lines of ``net`` and its line shunts: trial t has series admittances
    ``series_g[t] + j series_b[t]`` (one per line) and nodal shunts
    ``shunt_g[t] + j shunt_b[t]``. An argument with a leading axis of 1 is
    shared by every trial.

    Each entry is summed in the order of a per-line loop (lines in case
    order, the nodal shunt last), so a trial's matrices are bit for bit
    those of ``build_ybus`` on its own network.
    """
    n = net.n_bus
    ends = np.array([(ln.from_bus, ln.to_bus) for ln in net.lines],
                    dtype=int).reshape(-1, 2)
    halves = [complex(ln.g_shunt, ln.b_shunt) / 2.0 for ln in net.lines]
    trials = max(len(series_g), len(shunt_g))
    bus = np.arange(n)
    out = []
    for series, half, shunt in (
            (series_g, [h.real for h in halves], shunt_g),
            (series_b, [h.imag for h in halves], shunt_b)):
        y = np.zeros((len(series), n, n))
        # series admittance plus half the line shunt at both ends of each
        # line; ufunc.at accumulates repeated buses in index order
        np.add.at(y, (slice(None), ends.ravel(), ends.ravel()),
                  np.repeat(series + half, 2, axis=1))
        y[:, ends[:, 0], ends[:, 1]] -= series
        y[:, ends[:, 1], ends[:, 0]] -= series
        if len(y) < trials:
            y = np.repeat(y, trials, axis=0)
        y[:, bus, bus] += shunt
        out.append(y)
    return out[0], out[1]


# ---------------------------------------------------------------------------
# Case documents
# ---------------------------------------------------------------------------

_STATE_VARS = ("p", "q", "v", "theta")


@dataclass(frozen=True)
class ConstraintSpec:
    """Declarative operational-constraint entry from a case document.

    ``kind`` is one of box_upper / box_lower / linear_eq / apparent_power /
    exp_load_eq; ``target`` and ``params`` are kind-specific and are turned
    into evaluable constraints by the constraints module.
    """

    kind: str
    target: dict | None
    params: dict


@dataclass(frozen=True)
class CostTerms:
    """Declarative quadratic-plus-linear cost: sum of 1/2*c2*x^2 + c1*x terms."""

    quadratic: tuple[tuple[str, int, float], ...] = ()
    linear: tuple[tuple[str, int, float], ...] = ()


@dataclass(frozen=True, eq=False)
class Case:
    """Validated case bundle: network, generator setpoints, declarative specs."""

    network: Network
    gen_p: np.ndarray
    gen_q: np.ndarray
    constraint_specs: tuple[ConstraintSpec, ...] = ()
    cost: CostTerms = CostTerms()
    base_mva: float | None = None

    def __post_init__(self) -> None:
        self.gen_p.setflags(write=False)
        self.gen_q.setflags(write=False)


def _expect(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise CaseError(f"{path}: {msg}")


def finite_number(val) -> float | None:
    """Float value of a finite JSON number; None for anything else, which
    includes bools, NaN, +-Infinity and integers beyond the float range."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return None
    try:
        val = float(val)
    except OverflowError:
        return None
    return val if math.isfinite(val) else None


def _number(doc: dict, key: str, path: str, default: float | None = None) -> float:
    if key not in doc:
        if default is None:
            raise CaseError(f"{path}.{key}: required number is missing")
        return default
    val = finite_number(doc[key])
    _expect(val is not None, f"{path}.{key}",
            f"expected a finite number, got {doc[key]!r}")
    return val


def _int(doc: dict, key: str, path: str) -> int:
    if key not in doc:
        raise CaseError(f"{path}.{key}: required integer is missing")
    val = doc[key]
    _expect(isinstance(val, int) and not isinstance(val, bool),
            f"{path}.{key}", f"expected an integer, got {val!r}")
    return val


def _var_bus(entry: dict, path: str, n_bus: int) -> tuple[str, int]:
    _expect(isinstance(entry, dict), path, "expected an object")
    var = entry.get("var")
    _expect(var in _STATE_VARS, f"{path}.var",
            f"expected one of {'|'.join(_STATE_VARS)}, got {var!r}")
    bus = _int(entry, "bus", path)
    _expect(0 <= bus < n_bus, f"{path}.bus", f"bus {bus} does not exist")
    return var, bus


def _parse_constraint(entry: dict, idx: int, n_bus: int) -> ConstraintSpec:
    path = f"constraints[{idx}]"
    _expect(isinstance(entry, dict), path, "expected an object")
    kind = entry.get("kind")
    kinds = ("box_upper", "box_lower", "linear_eq", "apparent_power", "exp_load_eq")
    _expect(kind in kinds, f"{path}.kind",
            f"expected one of {'|'.join(kinds)}, got {kind!r}")
    params = entry.get("params")
    _expect(isinstance(params, dict), f"{path}.params", "expected an object")
    target = entry.get("target")

    if kind in ("box_upper", "box_lower"):
        var, bus = _var_bus(target, f"{path}.target", n_bus)
        bound = _number(params, "bound", f"{path}.params")
        return ConstraintSpec(kind, {"var": var, "bus": bus}, {"bound": bound})
    if kind == "linear_eq":
        terms = params.get("terms")
        _expect(isinstance(terms, list) and terms,
                f"{path}.params.terms", "expected a non-empty array")
        parsed = []
        for j, term in enumerate(terms):
            var, bus = _var_bus(term, f"{path}.params.terms[{j}]", n_bus)
            coef = _number(term, "coef", f"{path}.params.terms[{j}]")
            parsed.append({"var": var, "bus": bus, "coef": coef})
        offset = _number(params, "offset", f"{path}.params", default=0.0)
        return ConstraintSpec(kind, None, {"terms": parsed, "offset": offset})
    # apparent_power / exp_load_eq target a bus
    _expect(isinstance(target, dict), f"{path}.target", "expected an object")
    bus = _int(target, "bus", f"{path}.target")
    _expect(0 <= bus < n_bus, f"{path}.target.bus", f"bus {bus} does not exist")
    if kind == "apparent_power":
        s2 = _number(params, "s2_max", f"{path}.params")
        return ConstraintSpec(kind, {"bus": bus}, {"s2_max": s2})
    alpha = _number(params, "alpha", f"{path}.params")
    p_load = _number(params, "p_load", f"{path}.params")
    return ConstraintSpec(kind, {"bus": bus}, {"alpha": alpha, "p_load": p_load})


def _parse_cost(doc: dict, n_bus: int) -> CostTerms:
    quad: list[tuple[str, int, float]] = []
    lin: list[tuple[str, int, float]] = []
    for key, sink in (("quadratic", quad), ("linear", lin)):
        entries = doc.get(key, [])
        _expect(isinstance(entries, list), f"cost.{key}", "expected an array")
        for j, term in enumerate(entries):
            var, bus = _var_bus(term, f"cost.{key}[{j}]", n_bus)
            coef = _number(term, "coef", f"cost.{key}[{j}]")
            sink.append((var, bus, coef))
    return CostTerms(quadratic=tuple(quad), linear=tuple(lin))


def load_case(text: str | bytes | dict) -> Case:
    """Parse and validate a JSON case document.

    Schema violations raise :class:`CaseError` naming the offending JSON
    path; network invariant violations raise :class:`CaseError` naming the
    invariant.
    """
    if isinstance(text, (str, bytes)):
        try:
            doc = json.loads(text)
        except ValueError as exc:  # also integer literals past the parser limit
            raise CaseError(f"$: invalid JSON ({exc})") from exc
    else:
        doc = text
    _expect(isinstance(doc, dict), "$", "expected a JSON object")

    raw_buses = doc.get("buses")
    _expect(isinstance(raw_buses, list) and raw_buses, "buses",
            "expected a non-empty array")
    buses = []
    for i, entry in enumerate(raw_buses):
        path = f"buses[{i}]"
        _expect(isinstance(entry, dict), path, "expected an object")
        btype = entry.get("type")
        _expect(btype in ("slack", "pv", "pq"), f"{path}.type",
                f"expected one of slack|pv|pq, got {btype!r}")
        buses.append(Bus(
            id=_int(entry, "id", path),
            bus_type=BusType(btype),
            p_load=_number(entry, "p_load", path, 0.0),
            q_load=_number(entry, "q_load", path, 0.0),
            g_shunt=_number(entry, "g_shunt", path, 0.0),
            b_shunt=_number(entry, "b_shunt", path, 0.0),
            v_setpoint=_number(entry, "v_setpoint", path, 1.0),
            theta_setpoint=_number(entry, "theta_setpoint", path, 0.0),
        ))

    raw_lines = doc.get("lines", [])
    _expect(isinstance(raw_lines, list), "lines", "expected an array")
    lines = []
    for j, entry in enumerate(raw_lines):
        path = f"lines[{j}]"
        _expect(isinstance(entry, dict), path, "expected an object")
        lines.append(Line(
            from_bus=_int(entry, "from", path),
            to_bus=_int(entry, "to", path),
            g_series=_number(entry, "g_series", path),
            b_series=_number(entry, "b_series", path),
            g_shunt=_number(entry, "g_shunt", path, 0.0),
            b_shunt=_number(entry, "b_shunt", path, 0.0),
        ))

    net = Network(buses=tuple(buses), lines=tuple(lines))

    gen_p = np.zeros(net.n_bus)
    gen_q = np.zeros(net.n_bus)
    raw_gens = doc.get("generators", [])
    _expect(isinstance(raw_gens, list), "generators", "expected an array")
    for j, entry in enumerate(raw_gens):
        path = f"generators[{j}]"
        _expect(isinstance(entry, dict), path, "expected an object")
        bus = _int(entry, "bus", path)
        _expect(0 <= bus < net.n_bus, f"{path}.bus", f"bus {bus} does not exist")
        gen_p[bus] = _number(entry, "p", path, 0.0)
        gen_q[bus] = _number(entry, "q", path, 0.0)

    raw_cons = doc.get("constraints", [])
    _expect(isinstance(raw_cons, list), "constraints", "expected an array")
    specs = tuple(_parse_constraint(e, i, net.n_bus) for i, e in enumerate(raw_cons))

    raw_cost = doc.get("cost", {})
    _expect(isinstance(raw_cost, dict), "cost", "expected an object")
    cost = _parse_cost(raw_cost, net.n_bus)

    base = doc.get("base_mva")
    if base is not None:
        base = _number(doc, "base_mva", "$")

    return Case(network=net, gen_p=gen_p, gen_q=gen_q,
                constraint_specs=specs, cost=cost, base_mva=base)

