"""Power network data model, nodal admittance matrix construction and case
documents.

A case document is parsed once (``load_case``) into what a check
evaluates: a ``Case`` holds the network, the generator setpoints, the
operational constraints as objects of the closed catalog (``BoxUpper``,
``BoxLower``, ``LinearEq``, ``ApparentPower``, ``ExpLoadEq``) and the cost
as a ``CostSpec``, all over the flat state of ``state_index``.

All quantities are per-unit. Complex admittances are carried as explicit
(conductance, susceptance) pairs in every public type; complex arithmetic
is confined to implementation internals. Every array indexed by bus is in
case-file order and is never re-sorted; ``Network.bus_order`` only orders
the unknowns inside a Newton solve.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np


class CaseError(ValueError):
    """Malformed case document or violated network invariant."""


# The number columns of a network, each with its case-document key and
# default (None: required), which ``Network`` and ``load_case`` both fill.
_BUS_NUMBERS = (("p_load", "p_load", 0.0), ("q_load", "q_load", 0.0),
                ("g_shunt", "g_shunt", 0.0), ("b_shunt", "b_shunt", 0.0),
                ("v_setpoint", "v_setpoint", 1.0),
                ("theta_setpoint", "theta_setpoint", 0.0))
_LINE_NUMBERS = (("g_series", "g_series", None),
                 ("b_series", "b_series", None),
                 ("g_line_shunt", "g_shunt", 0.0),
                 ("b_line_shunt", "b_shunt", 0.0))


@dataclass(frozen=True, eq=False)
class Network:
    """Validated network as locked columns in case order.

    Per bus: ``bus_type`` ("slack", "pv" or "pq"), the loads ``p_load``/
    ``q_load``, the nodal shunt ``g_shunt``/``b_shunt``, ``v_setpoint``
    (read at slack and PV buses) and ``theta_setpoint`` (read at the
    slack). Per line: ``line_ends`` (M x 2, from and to bus), the series
    admittance ``g_series``/``b_series`` and the *total* line shunt
    ``g_line_shunt``/``b_line_shunt``, half of it lumped at each end; no
    taps or phase shifts, so the admittance matrix is symmetric. A number
    column left out takes its default (``_BUS_NUMBERS``,
    ``_LINE_NUMBERS``). Networks compare by identity.

    Raises :class:`CaseError` on construction if any invariant fails:
    exactly one slack bus, positive voltage setpoints where applicable,
    line endpoints in range and distinct, at most one line per unordered
    pair. Each rule is decided on the columns at once, and the first
    offender is named as one pass over the buses, then one over the
    lines, would name it. Disconnected line graphs produce a warning, not
    an error: one breadth-first search of the line graph (``components``)
    finds them and gives ``bus_order``.
    """

    bus_type: np.ndarray
    line_ends: np.ndarray
    p_load: np.ndarray = None
    q_load: np.ndarray = None
    g_shunt: np.ndarray = None
    b_shunt: np.ndarray = None
    v_setpoint: np.ndarray = None
    theta_setpoint: np.ndarray = None
    g_series: np.ndarray = None
    b_series: np.ndarray = None
    g_line_shunt: np.ndarray = None
    b_line_shunt: np.ndarray = None

    def __post_init__(self) -> None:
        types = np.array(self.bus_type, dtype=str)
        ends = np.asarray(self.line_ends)
        if ends.dtype.kind not in "iu":  # no line, or ints past int64
            ends = np.asarray(self.line_ends, dtype=object)
        ends = ends.reshape(-1, 2)
        n, m = types.size, len(ends)
        if not n:
            raise CaseError("network invariant: bus list must be non-empty")
        for size, what, numbers in ((n, "bus", _BUS_NUMBERS),
                                    (m, "line", _LINE_NUMBERS)):
            for name, _, default in numbers:
                col = getattr(self, name)
                if col is None and default is None and size:
                    raise CaseError(f"network invariant: {name} is required")
                col = (np.full(size, default, dtype=float) if col is None
                       else np.array(col, dtype=float))
                if col.shape != (size,):
                    raise CaseError(f"network invariant: {name} must hold "
                                    f"one number per {what}")
                col.setflags(write=False)
                object.__setattr__(self, name, col)
        slacks = np.flatnonzero(types == "slack")
        unset = np.flatnonzero((types != "pq") & ~(self.v_setpoint > 0))
        if unset.size:
            raise CaseError("network invariant: v_setpoint > 0 required at "
                            f"bus {unset[0]}")
        if slacks.size != 1:
            raise CaseError("network invariant: exactly one slack bus "
                            f"required, found {slacks.tolist()}")
        # a line out of range, a self-loop or a repeat of an earlier pair;
        # a line out of range counts as (0, 0) for the other two
        out = ((ends < 0) | (ends >= n)).any(axis=1)
        pairs = np.sort(np.where(out[:, None], 0, ends).astype(int), axis=1)
        loop = pairs[:, 0] == pairs[:, 1]
        repeat = np.ones(m, dtype=bool)
        repeat[np.unique(pairs[:, 0] * n + pairs[:, 1],
                         return_index=True)[1]] = False
        bad = np.flatnonzero(out | loop | repeat)
        if bad.size:
            j = bad[0]
            if out[j]:
                raise CaseError(f"network invariant: lines[{j}] endpoints "
                                f"{tuple(ends[j].tolist())} must reference "
                                "existing buses")
            if loop[j]:
                raise CaseError(f"network invariant: lines[{j}] is a "
                                f"self-loop at bus {pairs[j, 0]}")
            raise CaseError(f"duplicate line for bus pair "
                            f"{tuple(pairs[j].tolist())}; parallel lines "
                            "must be pre-aggregated")
        for name, col in (("bus_type", types), ("line_ends", ends.astype(int))):
            col.setflags(write=False)
            object.__setattr__(self, name, col)
        if len(self.components) > 1:
            warnings.warn("line graph is not connected", stacklevel=3)

    @property
    def n_bus(self) -> int:
        return self.bus_type.size

    @property
    def n_line(self) -> int:
        return len(self.line_ends)

    @cached_property
    def free_mask(self) -> np.ndarray:
        """Free entries of the flat state (p_gen, q_gen, v, theta), locked:
        all but the slack's v and theta and PV v."""
        mask = np.concatenate([np.ones(2 * self.n_bus, dtype=bool),
                               self.bus_type == "pq",
                               self.bus_type != "slack"])
        mask.setflags(write=False)
        return mask

    @cached_property
    def directions(self) -> "LineDirections":
        """Both directions (k, l) of every line, grouped by bus k, locked.

        A bus's directions keep the case order of their lines, those that
        leave it first. The flow residual and the flow rows sum their per
        line terms by bus over these groups (``powerflow``)."""
        ends = self.line_ends
        m = self.n_line
        bus = np.concatenate((ends[:, 0], ends[:, 1]))
        by = np.argsort(bus, kind="stable")
        bus = bus[by]
        starts = np.flatnonzero(np.diff(bus, prepend=-1))
        at = bus[starts]
        out = LineDirections(
            bus, np.concatenate((ends[:, 1], ends[:, 0]))[by],
            np.concatenate((np.arange(m), np.arange(m)))[by], starts,
            slice(None) if at.size == self.n_bus else at)
        for arr in out:
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
        return out

    @cached_property
    def admittances(self) -> tuple[np.ndarray, np.ndarray]:
        """The network's nodal admittance matrix as its line list (g, b),
        each 1 x (M + N) (``admittance_stack``), locked."""
        g, b = admittance_stack(self, self.g_series[None],
                                self.b_series[None], self.g_shunt[None],
                                self.b_shunt[None])
        g.setflags(write=False)
        b.setflags(write=False)
        return g, b

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components of the line graph, the one graph search of
        a network: each breadth first from its bus of least degree, taken
        in that order, a bus's unvisited neighbours queued by degree, then
        by id."""
        n = self.n_bus
        src, dst = self.directions[:2]
        degree = np.bincount(src, minlength=n)
        by = np.lexsort((dst, degree[dst], src))
        flat, ends = dst[by].tolist(), np.cumsum(degree).tolist()
        nbrs = [flat[a:b] for a, b in zip([0, *ends], ends)]
        seen = [False] * n
        found = []
        for start in np.lexsort((np.arange(n), degree)).tolist():
            if seen[start]:
                continue
            seen[start] = True
            queue = [start]
            for k in queue:  # the queue grows while it is read
                for l in nbrs[k]:
                    if not seen[l]:
                        seen[l] = True
                        queue.append(l)
            found.append(tuple(queue))
        return tuple(found)

    @cached_property
    def bus_order(self) -> np.ndarray:
        """Bus ids in reverse Cuthill-McKee order of the line graph, locked:
        the breadth-first ``components`` one after another, reversed.
        Neighbours in the graph then lie close in the order however the
        case numbers its buses, which keeps the Newton matrix banded
        (``powerflow.newton_states``)."""
        order = np.array([k for comp in self.components for k in comp][::-1])
        order.setflags(write=False)
        return order

    @cached_property
    def newton_system(self) -> tuple:
        """``powerflow._newton_system`` and its ``flow_rows`` plan."""
        from .powerflow import _newton_system, flow_rows
        rows, cols, band = _newton_system(self)
        return rows, cols, band, flow_rows(self, rows, cols, band)


class LineDirections(NamedTuple):
    """``Network.directions``: direction e runs from ``bus[e]`` to
    ``other[e]`` along line ``line[e]``, with ``bus`` ascending. ``starts``
    holds the first direction of each bus that has one, and ``at`` those
    buses: all of them, as a slice, in a network without an isolated
    bus."""

    bus: np.ndarray
    other: np.ndarray
    line: np.ndarray
    starts: np.ndarray
    at: np.ndarray | slice


def build_ybus(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """The nodal admittance matrix Y = G + jB, dense, as the pair (G, B):
    the network's line list (``Network.admittances``) scattered into N x N
    arrays, zero off the lines and the diagonal. Diagonal entries collect
    the nodal shunt plus, over incident lines, the series admittance and
    half the line shunt; off-diagonal entries are the negated series
    admittance of the connecting line. The result is symmetric by
    construction and has exact zero row sums when every shunt vanishes.

    Only ``opfdiag ybus`` and the dense references (``pf_jacobian``,
    ``cqkit.kkt_residual``) build it; every other path takes the line
    list.
    """
    n, m = net.n_bus, net.n_line
    ends, bus = net.line_ends, np.arange(n)
    out = []
    for y in net.admittances:
        dense = np.zeros((n, n))
        dense[ends[:, 0], ends[:, 1]] = y[0, :m]
        dense[ends[:, 1], ends[:, 0]] = y[0, :m]
        dense[bus, bus] = y[0, m:]
        out.append(dense)
    return out[0], out[1]


def admittance_stack(net: Network, series_g: np.ndarray, series_b: np.ndarray,
                     shunt_g: np.ndarray, shunt_b: np.ndarray):
    """Nodal admittance matrices of T trials as line lists (g, b), each
    T x (M + N): first each line's off-diagonal entry, the negated series
    admittance, then the N diagonal entries. The trials share the lines of
    ``net`` and its line shunts: trial t has series admittances
    ``series_g[t] + j series_b[t]`` (one per line) and nodal shunts
    ``shunt_g[t] + j shunt_b[t]``. An argument with a leading axis of 1 is
    shared by every trial.

    Each diagonal entry is summed in the order of a per-line loop (lines in
    case order, the nodal shunt last), so a trial's entries are bit for bit
    the nonzeros of ``build_ybus`` on its own network.
    """
    n, m = net.n_bus, net.n_line
    ends = net.line_ends
    trials = max(len(series_g), len(shunt_g))
    out = []
    for series, half, shunt in (
            (series_g, net.g_line_shunt / 2.0, shunt_g),
            (series_b, net.b_line_shunt / 2.0, shunt_b)):
        diag = np.zeros((len(series), n))
        # series admittance plus half the line shunt at both ends of each
        # line; ufunc.at accumulates repeated buses in index order
        np.add.at(diag, (slice(None), ends.ravel()),
                  np.repeat(series + half, 2, axis=1))
        y = np.empty((trials, m + n))
        y[:, :m] = 0.0 - series
        y[:, m:] = diag + shunt
        out.append(y)
    return out[0], out[1]


# ---------------------------------------------------------------------------
# The flat state, the constraint catalog and the cost
# ---------------------------------------------------------------------------

_STATE_VARS = ("p", "q", "v", "theta")


def state_index(var: str, bus: int, n_bus: int) -> int:
    """Flat-state index of a named entry; order is (p, q, v, theta)."""
    if var not in _STATE_VARS:
        raise ValueError(f"unknown state variable {var!r}")
    if not 0 <= bus < n_bus:
        raise ValueError(f"bus {bus} out of range for {n_bus}-bus system")
    return _STATE_VARS.index(var) * n_bus + bus


class ConstraintError(ValueError):
    pass


class VoltageDomainError(ConstraintError):
    """Constraint evaluated outside its differentiable domain (v <= 0)."""


def require_positive_v(v, what: str):
    """``v`` itself when every entry is positive; otherwise a
    VoltageDomainError naming the first offending value."""
    v = np.asarray(v)
    bad = v[v <= 0.0]
    if bad.size:
        raise VoltageDomainError(
            f"{what} evaluated at v = {float(bad.flat[0])}; requires v > 0")
    return v


# The catalog is closed: five constraint kinds, each with an exact analytic
# gradient over the full flat state. Every constraint's value and gradient
# take a flat state or a stack of them (a leading trial axis): values come
# out with shape x.shape[:-1] and gradients with shape x.shape.

@dataclass(frozen=True)
class BoxUpper:
    """g(x) = x[index] - bound <= 0."""

    index: int
    bound: float
    is_equality: bool = False

    def value(self, x: np.ndarray):
        return x[..., self.index] - self.bound

    def gradient(self, x: np.ndarray) -> np.ndarray:
        g = np.zeros(x.shape)
        g[..., self.index] = 1.0
        return g


@dataclass(frozen=True)
class BoxLower:
    """g(x) = bound - x[index] <= 0."""

    index: int
    bound: float
    is_equality: bool = False

    def value(self, x: np.ndarray):
        return self.bound - x[..., self.index]

    def gradient(self, x: np.ndarray) -> np.ndarray:
        g = np.zeros(x.shape)
        g[..., self.index] = -1.0
        return g


@dataclass(frozen=True)
class LinearEq:
    """h(x) = sum_i a_i x_i - offset = 0 with sparse coefficients."""

    terms: tuple[tuple[int, float], ...]
    offset: float = 0.0
    is_equality: bool = True

    def value(self, x: np.ndarray):
        return sum(c * x[..., i] for i, c in self.terms) - self.offset

    def gradient(self, x: np.ndarray) -> np.ndarray:
        g = np.zeros(x.shape)
        for i, c in self.terms:
            g[..., i] += c
        return g


@dataclass(frozen=True)
class ApparentPower:
    """g(x) = p_k^2 + q_k^2 - s2_max <= 0 at one bus."""

    bus: int
    n_bus: int
    s2_max: float
    is_equality: bool = False

    def value(self, x: np.ndarray):
        p = x[..., state_index("p", self.bus, self.n_bus)]
        q = x[..., state_index("q", self.bus, self.n_bus)]
        return p * p + q * q - self.s2_max

    def gradient(self, x: np.ndarray) -> np.ndarray:
        g = np.zeros(x.shape)
        ip = state_index("p", self.bus, self.n_bus)
        iq = state_index("q", self.bus, self.n_bus)
        g[..., ip] = 2.0 * x[..., ip]
        g[..., iq] = 2.0 * x[..., iq]
        return g


@dataclass(frozen=True)
class ExpLoadEq:
    """h(x) = q_k + alpha * (p_k - p_load - sqrt(v_k)) = 0 at one bus.

    A voltage-dependent load coupling with constant power factor on the
    non-fixed component; its domain is v_k > 0, where the square root is
    differentiable. Outside it the value is NaN, which fails every
    feasibility test, and the gradient, taken only at feasible points,
    raises VoltageDomainError.
    """

    bus: int
    n_bus: int
    alpha: float
    p_load: float
    is_equality: bool = True

    def value(self, x: np.ndarray):
        v = x[..., state_index("v", self.bus, self.n_bus)]
        p = x[..., state_index("p", self.bus, self.n_bus)]
        q = x[..., state_index("q", self.bus, self.n_bus)]
        root = np.sqrt(np.where(v > 0.0, v, np.nan))
        return q + self.alpha * (p - self.p_load - root)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        v = require_positive_v(
            x[..., state_index("v", self.bus, self.n_bus)],
            f"voltage-dependent load at bus {self.bus}")
        g = np.zeros(x.shape)
        g[..., state_index("p", self.bus, self.n_bus)] = self.alpha
        g[..., state_index("q", self.bus, self.n_bus)] = 1.0
        g[..., state_index("v", self.bus, self.n_bus)] = -self.alpha / (2.0 * np.sqrt(v))
        return g


@dataclass(frozen=True, eq=False)
class CostSpec:
    """Separable quadratic cost f(x) = sum_i (c2_i x_i^2 / 2 + c1_i x_i)."""

    c2: np.ndarray
    c1: np.ndarray

    def __post_init__(self) -> None:
        if self.c2.shape != self.c1.shape:
            raise ValueError("c2 and c1 must have equal length")
        self.c2.setflags(write=False)
        self.c1.setflags(write=False)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """c2 x + c1 at a flat state or a stack of them. A CaseError names
        the first state entry where it leaves the float range."""
        with np.errstate(over="ignore", invalid="ignore"):
            grad = self.c2 * x + self.c1
        if not np.isfinite(grad).all():
            at = tuple(np.argwhere(~np.isfinite(grad))[0])
            var, bus = divmod(int(at[-1]), self.c1.size // 4)
            raise CaseError(
                f"cost: its gradient at state entry {_STATE_VARS[var]} of bus "
                f"{bus} is {float(grad[at])}; the cost's coefficients are "
                "too large for this point")
        return grad


# ---------------------------------------------------------------------------
# Case documents
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Case:
    """Validated case bundle: network, generator setpoints, the operational
    constraints (catalog objects, in declaration order) and the cost, the
    zero cost when none is given."""

    network: Network
    gen_p: np.ndarray
    gen_q: np.ndarray
    constraints: tuple = ()
    cost: CostSpec | None = None

    def __post_init__(self) -> None:
        self.gen_p.setflags(write=False)
        self.gen_q.setflags(write=False)
        if self.cost is None:
            n = 4 * self.network.n_bus
            object.__setattr__(self, "cost",
                               CostSpec(c2=np.zeros(n), c1=np.zeros(n)))


def _expect(cond: bool, path: str, msg: str) -> None:
    # for formatted messages the callers test ``cond`` themselves: a case
    # of N buses makes O(N) checks, and a message is formatted only when
    # its check fails
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
    if val is None:
        raise CaseError(
            f"{path}.{key}: expected a finite number, got {doc[key]!r}")
    return val


def _int(doc: dict, key: str, path: str, n_bus: int | None = None) -> int:
    """The integer ``doc[key]``, and a bus of ``n_bus`` buses where that
    is given."""
    if key not in doc:
        raise CaseError(f"{path}.{key}: required integer is missing")
    val = doc[key]
    if not isinstance(val, int) or isinstance(val, bool):
        raise CaseError(f"{path}.{key}: expected an integer, got {val!r}")
    if n_bus is not None and not 0 <= val < n_bus:
        raise CaseError(f"{path}.{key}: bus {val} does not exist")
    return val


_TOP_KEYS = frozenset(("buses", "lines", "generators", "constraints",
                       "cost", "base_mva"))
_BUS_KEYS = frozenset(("id", "type", "p_load", "q_load", "g_shunt",
                       "b_shunt", "v_setpoint", "theta_setpoint"))
_LINE_KEYS = frozenset(("from", "to", "g_series", "b_series", "g_shunt",
                        "b_shunt"))
_GEN_KEYS = frozenset(("bus", "p", "q"))
_CONSTRAINT_KEYS = frozenset(("kind", "target", "params"))
_COST_KEYS = frozenset(("quadratic", "linear"))
_STATE_KEYS = frozenset(("var", "bus"))
_TERM_KEYS = frozenset(("var", "bus", "coef"))
_BUS_TARGET_KEYS = frozenset(("bus",))
# the constraint kinds and the params of each
_PARAMS_KEYS = {"box_upper": frozenset(("bound",)),
                "box_lower": frozenset(("bound",)),
                "linear_eq": frozenset(("terms", "offset")),
                "apparent_power": frozenset(("s2_max",)),
                "exp_load_eq": frozenset(("alpha", "p_load"))}


def _reject_unknown(entry: dict, known: frozenset, path: str) -> None:
    """Raise on the first key of the object ``entry`` at ``path`` outside
    ``known``: a misspelled key would otherwise leave its value unread.
    Callers test ``known.issuperset(entry)`` first, inline: a case of N
    buses has O(N) objects."""
    key = next(k for k in entry if k not in known)
    raise CaseError(f"{path}.{key}: unknown key; expected one of "
                    f"{'|'.join(sorted(known))}")


def _state_entry(entry: dict, path: str, n_bus: int,
                 known=_STATE_KEYS) -> int:
    """Flat-state index of a {var, bus} entry; ``known`` are the keys it
    may hold."""
    _expect(isinstance(entry, dict), path, "expected an object")
    if not known.issuperset(entry):
        _reject_unknown(entry, known, path)
    var = entry.get("var")
    if var not in _STATE_VARS:
        raise CaseError(f"{path}.var: expected one of "
                        f"{'|'.join(_STATE_VARS)}, got {var!r}")
    return state_index(var, _int(entry, "bus", path, n_bus), n_bus)


def _terms(terms: list, path: str, n_bus: int) -> tuple:
    """(state index, coef) of each {var, bus, coef} object of the array
    ``terms`` at ``path``. Each state entry's coefficients are summed in
    document order, as ``CostSpec`` and ``LinearEq.gradient`` sum them; a
    term whose sum leaves the float range is rejected by its path."""
    parsed, sums = [], {}
    for j, term in enumerate(terms):
        at = f"{path}[{j}]"
        index = _state_entry(term, at, n_bus, _TERM_KEYS)
        coef = _number(term, "coef", at)
        sums[index] = sums.get(index, 0.0) + coef
        if not math.isfinite(sums[index]):
            raise CaseError(f"{at}.coef: the coefficients of this state "
                            "entry sum past the float range")
        parsed.append((index, coef))
    return tuple(parsed)


_KINDS = tuple(_PARAMS_KEYS)


def _parse_constraint(entry: dict, idx: int, n_bus: int):
    path = f"constraints[{idx}]"
    _expect(isinstance(entry, dict), path, "expected an object")
    kind = entry.get("kind")
    if kind not in _KINDS:
        raise CaseError(f"{path}.kind: expected one of {'|'.join(_KINDS)}, "
                        f"got {kind!r}")
    params = entry.get("params")
    if not isinstance(params, dict):
        raise CaseError(f"{path}.params: expected an object")
    target = entry.get("target")
    at = f"{path}.params"
    if not _PARAMS_KEYS[kind].issuperset(params):
        _reject_unknown(params, _PARAMS_KEYS[kind], at)

    if kind in ("box_upper", "box_lower"):
        index = _state_entry(target, f"{path}.target", n_bus)
        box = BoxUpper if kind == "box_upper" else BoxLower
        return box(index=index, bound=_number(params, "bound", at))
    if kind == "linear_eq":
        if target is not None:
            raise CaseError(f"{path}.target: a linear_eq takes no target; "
                            "its terms name the state entries")
        terms = params.get("terms")
        if not (isinstance(terms, list) and terms):
            raise CaseError(f"{at}.terms: expected a non-empty array")
        return LinearEq(terms=_terms(terms, f"{at}.terms", n_bus),
                        offset=_number(params, "offset", at, default=0.0))
    # apparent_power / exp_load_eq target a bus
    if not isinstance(target, dict):
        raise CaseError(f"{path}.target: expected an object")
    if not _BUS_TARGET_KEYS.issuperset(target):
        _reject_unknown(target, _BUS_TARGET_KEYS, f"{path}.target")
    bus = _int(target, "bus", f"{path}.target", n_bus)
    if kind == "apparent_power":
        return ApparentPower(bus=bus, n_bus=n_bus,
                             s2_max=_number(params, "s2_max", at))
    return ExpLoadEq(bus=bus, n_bus=n_bus, alpha=_number(params, "alpha", at),
                     p_load=_number(params, "p_load", at))


def _parse_cost(doc: dict, n_bus: int) -> CostSpec:
    """The cost of a document: each term's coefficient added into its
    state entry of c2 (quadratic) or c1 (linear), in document order."""
    if not _COST_KEYS.issuperset(doc):
        _reject_unknown(doc, _COST_KEYS, "cost")
    c2, c1 = np.zeros(4 * n_bus), np.zeros(4 * n_bus)
    for key, sink in (("quadratic", c2), ("linear", c1)):
        entries = doc.get(key, [])
        if not isinstance(entries, list):
            raise CaseError(f"cost.{key}: expected an array")
        for index, coef in _terms(entries, f"cost.{key}", n_bus):
            sink[index] += coef
    return CostSpec(c2=c2, c1=c1)


# Setpoints a bus type ignores: a PQ bus's voltage is free, and Newton
# starts every angle at the slack's.
_UNREAD_SETPOINTS = {"slack": (), "pv": ("theta_setpoint",),
                     "pq": ("v_setpoint", "theta_setpoint")}

# The field table of each array: its integer keys, then its numbers as
# (column, key, default), a default of None marking a required number.
_BUS_FIELDS = (("id",), _BUS_NUMBERS)
_LINE_FIELDS = (("from", "to"), _LINE_NUMBERS)
_GEN_FIELDS = (("bus",), (("p", "p", 0.0), ("q", "q", 0.0)))


def _objects(items: list, known: frozenset) -> bool:
    """Whether every item of ``items`` is an object whose keys all lie in
    ``known``, decided on the whole array."""
    return set(map(type, items)) <= {dict} and set().union(*items) <= known


def _numbers(items: list, key: str, default: float | None = None):
    """The ``key`` column of the objects ``items`` as floats, ``default``
    where it is missing (required without one); None unless every value is
    a finite number. The types decide first, so a bool fails; then one
    array, whose conversion fails on an integer past the float range."""
    col = [item.get(key, default) for item in items]
    if not set(map(type, col)) <= {int, float}:
        return None
    try:
        values = np.array(col, dtype=float)
    except OverflowError:
        return None
    return values.tolist() if np.isfinite(values).all() else None


def _ints(items: list, key: str, n_bus: int | None = None):
    """The ``key`` column of the objects ``items`` if every value is an
    integer, and a bus of ``n_bus`` buses where that is given; else
    None."""
    col = [item.get(key) for item in items]
    if not set(map(type, col)) <= {int}:
        return None
    if n_bus is not None and col and (min(col) < 0 or max(col) >= n_bus):
        return None
    return col


def _table(raw: list, path: str, known: frozenset, fields: tuple,
           n_bus: int | None = None, rule=None) -> list:
    """The columns of the array ``raw`` at ``path``, one per field of its
    table ``fields``, whose integers are buses of ``n_bus`` buses where
    that is given. Each entry is an object with keys in ``known``;
    ``rule(entry, j)`` raises on an entry ``j`` that breaks a rule across
    its keys.

    The columns decide the whole array at once, and the rule then runs on
    each entry. Only where a column fails are the entries read one by one
    in document order, each object, its rule, its fields and then its
    keys, and the first bad entry is named."""
    ints, numbers = fields
    if _objects(raw, known):
        cols = ([_ints(raw, key, n_bus) for key in ints]
                + [_numbers(raw, key, default) for _, key, default in numbers])
        if None not in cols:
            if rule is not None:
                for j, entry in enumerate(raw):
                    rule(entry, j)
            return cols
    rows = []
    for j, entry in enumerate(raw):
        at = f"{path}[{j}]"
        _expect(isinstance(entry, dict), at, "expected an object")
        if rule is not None:
            rule(entry, j)
        rows.append([_int(entry, key, at, n_bus) for key in ints]
                    + [_number(entry, key, at, default)
                       for _, key, default in numbers])
        if not known.issuperset(entry):
            _reject_unknown(entry, known, at)
    return [list(col) for col in zip(*rows)]


def _bus_rule(entry: dict, i: int) -> None:
    """A bus has a type and none of the setpoints its type ignores."""
    btype = entry.get("type")
    if btype not in ("slack", "pv", "pq"):
        raise CaseError(f"buses[{i}].type: expected one of slack|pv|pq, "
                        f"got {btype!r}")
    for key in _UNREAD_SETPOINTS[btype]:
        if key in entry:
            raise CaseError(f"buses[{i}].{key}: a {btype} bus has no {key}")


def _one_per_bus():
    """A generators rule: no two entries name one bus. An entry whose bus
    is no integer is left to its field."""
    seen = set()

    def rule(entry: dict, j: int) -> None:
        bus = entry.get("bus")
        if isinstance(bus, int) and not isinstance(bus, bool):
            if bus in seen:
                raise CaseError(
                    f"generators[{j}].bus: a second generator at bus {bus}; "
                    "generators at one bus must be pre-aggregated")
            seen.add(bus)
    return rule


def _parse_constraints(raw: list, n_bus: int) -> tuple:
    """The constraints of the array ``raw``, in document order. The box
    constraints are decided by column; every other kind, and every entry
    where a column fails, is read by ``_parse_constraint`` and then its
    keys, so the first bad entry is named."""
    boxes = {}
    if _objects(raw, _CONSTRAINT_KEYS):
        at = [i for i, entry in enumerate(raw)
              if entry.get("kind") in ("box_upper", "box_lower")]
        targets = [raw[i].get("target") for i in at]
        params = [raw[i].get("params") for i in at]
        if (_objects(targets, _STATE_KEYS)
                and _objects(params, _PARAMS_KEYS["box_upper"])):
            var = [target.get("var") for target in targets]
            buses = _ints(targets, "bus", n_bus)
            bounds = _numbers(params, "bound")
            if (buses is not None and bounds is not None
                    and all(v in _STATE_VARS for v in var)):
                boxes = {i: (BoxUpper if raw[i]["kind"] == "box_upper"
                             else BoxLower)(
                             _STATE_VARS.index(v) * n_bus + bus, bound)
                         for i, v, bus, bound in zip(at, var, buses, bounds)}
    out = []
    for i, entry in enumerate(raw):
        if i in boxes:
            out.append(boxes[i])
            continue
        out.append(_parse_constraint(entry, i, n_bus))
        if not _CONSTRAINT_KEYS.issuperset(entry):
            _reject_unknown(entry, _CONSTRAINT_KEYS, f"constraints[{i}]")
    return tuple(out)


def load_case(text: str | bytes | dict) -> Case:
    """Parse and validate a JSON case document, in one pass, into the
    objects a check evaluates (``Case``).

    Schema violations raise :class:`CaseError` naming the offending JSON
    path, as does a setpoint its bus type ignores (``v_setpoint`` at a PQ
    bus, ``theta_setpoint`` anywhere but the slack); network invariant
    violations raise :class:`CaseError` naming the invariant. A bus takes
    at most one ``generators`` entry; a second one is rejected by path, as
    parallel lines are.

    The ``buses``, ``lines`` and ``generators`` arrays, each by its field
    table (``_table``), and the box constraints are decided by column:
    every entry an object with known keys, then each field as one column,
    decided on its types and finiteness. Only where a column fails are the
    entries read one by one, each whole (its own fields, then its keys),
    and the error names the first bad entry in document order, so the
    text does not depend on which column failed.

    Once both arrays are read, the bus ids must run 0, 1, ... in document
    order (the first that does not is named); the columns of the buses
    and lines then go to ``Network`` as they are, which checks its
    invariants.
    """
    if isinstance(text, (str, bytes)):
        try:
            doc = json.loads(text)
        except ValueError as exc:  # also integer literals past the parser limit
            raise CaseError(f"$: invalid JSON ({exc})") from exc
    else:
        doc = text
    _expect(isinstance(doc, dict), "$", "expected a JSON object")
    if not _TOP_KEYS.issuperset(doc):
        _reject_unknown(doc, _TOP_KEYS, "$")

    raw_buses = doc.get("buses")
    _expect(isinstance(raw_buses, list) and raw_buses, "buses",
            "expected a non-empty array")
    ids, *bus_numbers = _table(raw_buses, "buses", _BUS_KEYS, _BUS_FIELDS,
                               rule=_bus_rule)

    raw_lines = doc.get("lines", [])
    _expect(isinstance(raw_lines, list), "lines", "expected an array")
    frm, to, *line_numbers = _table(raw_lines, "lines", _LINE_KEYS,
                                    _LINE_FIELDS)

    if ids != list(range(len(ids))):
        i = next(i for i, k in enumerate(ids) if k != i)
        raise CaseError("network invariant: buses must carry sequential "
                        f"0-based ids; buses[{i}].id == {ids[i]}")
    columns = zip((name for name, _, _ in _BUS_NUMBERS + _LINE_NUMBERS),
                  bus_numbers + line_numbers)
    net = Network(bus_type=[entry["type"] for entry in raw_buses],
                  line_ends=list(zip(frm, to)), **dict(columns))

    raw_gens = doc.get("generators", [])
    _expect(isinstance(raw_gens, list), "generators", "expected an array")
    at, p, q = _table(raw_gens, "generators", _GEN_KEYS, _GEN_FIELDS,
                      net.n_bus, rule=_one_per_bus())
    gen_p, gen_q = np.zeros(net.n_bus), np.zeros(net.n_bus)
    gen_p[at], gen_q[at] = p, q

    raw_cons = doc.get("constraints", [])
    _expect(isinstance(raw_cons, list), "constraints", "expected an array")
    constraints = _parse_constraints(raw_cons, net.n_bus)

    raw_cost = doc.get("cost", {})
    _expect(isinstance(raw_cost, dict), "cost", "expected an object")
    cost = _parse_cost(raw_cost, net.n_bus)

    # every quantity is per-unit: the base is validated, never read
    if doc.get("base_mva") is not None:
        _number(doc, "base_mva", "$")

    return Case(network=net, gen_p=gen_p, gen_q=gen_q,
                constraints=constraints, cost=cost)
