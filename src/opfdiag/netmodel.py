"""Power network data model, nodal admittance matrix construction and case
documents.

A case document is parsed once, by column (``load_case``), into what a
check evaluates: a ``Case`` holds the network, the generator setpoints,
the operational constraints as one locked column table per kind
(``Constraints``) and the cost as a ``CostSpec``, all over the flat state
of ``state_index``.

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
        """``powerflow._newton_system``: the Newton matrix's rows, columns,
        band and the ``flow_rows`` plan that fills it."""
        from .powerflow import _newton_system
        return _newton_system(self)

    @cached_property
    def stack_plan(self) -> tuple:
        """(rows, cols, fill): the structural entries of the flow rows over
        the free columns, those of every ``cqkit.face_stacks``, as the
        row-major pattern of the 2N x F matrix for the F free columns, and
        the ``flow_rows`` plan that fills their T x nnz values."""
        from .powerflow import flow_rows, selected_entries
        kept, r, q = selected_entries(self, np.arange(2 * self.n_bus),
                                      np.flatnonzero(self.free_mask))
        by = np.argsort(r * np.count_nonzero(self.free_mask) + q)
        return r[by], q[by], flow_rows(self, kept[by], np.arange(by.size))


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
# The flat state, the constraint tables and the cost
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


@dataclass(frozen=True, eq=False)
class Constraints:
    """Operational constraint rows over the flat state in declaration
    order. Row r is of kind ``_KINDS[kind[r]]``, and each kind holds its
    rows, in row order, as a tuple of locked columns:

    * ``box_upper`` (index, bound): g = x[index] - bound <= 0;
    * ``box_lower`` (index, bound): g = bound - x[index] <= 0;
    * ``linear_eq`` (ptr, index, coef, offset): h = sum_i coef_i x[index_i]
      - offset = 0, row j's terms the CSR slice ptr[j]:ptr[j + 1] in
      document order, summed from 0, a repeated term kept as given;
    * ``apparent_power`` (bus, s2_max): g = p_k^2 + q_k^2 - s2_max <= 0;
    * ``exp_load_eq`` (bus, alpha, p_load): h = q_k + alpha (p_k - p_load
      - sqrt(v_k)) = 0, a voltage-dependent load whose domain is v_k > 0:
      outside it the value is NaN, which fails every feasibility test, and
      the gradient, taken only at feasible points, raises
      VoltageDomainError.
    """

    kind: np.ndarray
    box_upper: tuple
    box_lower: tuple
    linear_eq: tuple
    apparent_power: tuple
    exp_load_eq: tuple

    def __post_init__(self) -> None:
        for col in (self.kind, *(col for cols in self.tables for col in cols)):
            col.setflags(write=False)

    @property
    def size(self) -> int:
        return self.kind.size

    @property
    def tables(self) -> tuple:
        """Each kind's columns, in ``_KINDS`` order."""
        return tuple(getattr(self, kind) for kind in _KINDS)

    @cached_property
    def _rows(self) -> tuple:
        """The rows of each kind, in ``_KINDS`` order."""
        return tuple(np.flatnonzero(self.kind == code)
                     for code in range(len(_KINDS)))

    @cached_property
    def _linear_sums(self) -> tuple:
        """Each linear_eq row's coefficient sums of its state entries, in
        document order from 0, as (row of the kind, index, sum)."""
        ptr, index, coef, _ = self.linear_eq
        width = int(index.max(initial=0)) + 1  # a key per (row, index)
        keys, at = np.unique(np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))
                             * width + index, return_inverse=True)
        sums = np.zeros(keys.size)
        with np.errstate(over="ignore", invalid="ignore"):  # inf, NaN
            np.add.at(sums, at, coef)
        return keys // width, keys % width, sums

    def take(self, rows) -> "Constraints":
        """The table of the rows at the positions ``rows``, in row order."""
        keep = np.zeros(self.size, dtype=bool)
        keep[np.asarray(rows, dtype=int)] = True
        own = [keep[at] for at in self._rows]
        ptr, index, coef, offset = self.linear_eq
        terms = np.repeat(own[2], np.diff(ptr))
        linear = (np.cumsum([0, *np.diff(ptr)[own[2]]]), index[terms],
                  coef[terms], offset[own[2]])
        return Constraints(self.kind[keep], *(
            linear if cols is self.linear_eq
            else tuple(col[at] for col in cols)
            for cols, at in zip(self.tables, own)))

    def values(self, x: np.ndarray) -> np.ndarray:
        """The rows' values (T x rows) at T flat states, each kind's in one
        gather."""
        n = x.shape[1] // 4
        up, low, lin, app, exp = self._rows
        out = np.empty((len(x), self.size))
        out[:, up] = x[:, self.box_upper[0]] - self.box_upper[1]
        out[:, low] = self.box_lower[1] - x[:, self.box_lower[0]]
        ptr, index, coef, offset = self.linear_eq
        total = np.zeros((len(x), lin.size))  # each row's terms in order
        np.add.at(total, (slice(None), np.repeat(np.arange(lin.size),
                                                 np.diff(ptr))),
                  coef * x[:, index])
        out[:, lin] = total - offset
        bus, s2_max = self.apparent_power
        p, q = x[:, bus], x[:, n + bus]
        out[:, app] = p * p + q * q - s2_max
        bus, alpha, p_load = self.exp_load_eq
        v = x[:, 2 * n + bus]
        root = np.sqrt(np.where(v > 0.0, v, np.nan))
        out[:, exp] = x[:, n + bus] + alpha * (x[:, bus] - p_load - root)
        return out

    def gradients(self, x: np.ndarray) -> tuple:
        """The rows' gradients at T flat states as (rows, cols, values):
        ``values[:, e]`` at (row, state index) (rows[e], cols[e]), each
        pair once, and +0.0 elsewhere."""
        n, t = x.shape[1] // 4, len(x)
        up, low, lin, app, exp = self._rows
        lin_row, lin_col, lin_val = self._linear_sums
        at = self.apparent_power[0]
        bus, alpha, _ = self.exp_load_eq
        v = x[:, 2 * n + bus]
        if (v <= 0.0).any():  # the first such row's first such point
            j = np.flatnonzero((v <= 0.0).any(axis=0))[0]
            raise VoltageDomainError(
                f"voltage-dependent load at bus {bus[j]} evaluated at v = "
                f"{float(v[v[:, j] <= 0.0, j][0])}; requires v > 0")
        rows, cols, values = zip(
            (up, self.box_upper[0], np.ones((t, up.size))),
            (low, self.box_lower[0], np.full((t, low.size), -1.0)),
            (lin[lin_row], lin_col, np.broadcast_to(lin_val,
                                                    (t, lin_val.size))),
            (app, at, 2.0 * x[:, at]), (app, n + at, 2.0 * x[:, n + at]),
            (exp, bus, np.broadcast_to(alpha, (t, exp.size))),
            (exp, n + bus, np.ones((t, exp.size))),
            (exp, 2 * n + bus, -alpha / (2.0 * np.sqrt(v))))
        return (np.concatenate(rows), np.concatenate(cols),
                np.concatenate(values, axis=1))


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
    constraints (a ``Constraints`` table in declaration order) and the
    cost, the zero cost when none is given."""

    network: Network
    gen_p: np.ndarray
    gen_q: np.ndarray
    constraints: Constraints
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
# Each constraint kind's target keys (None for a linear_eq, whose terms
# name its state entries) and number params in the order of its columns,
# each with its default (None: required); a linear_eq's params also hold
# its terms. A row's kind code is the kind's index in ``_KINDS``; the
# kinds of ``_EQUALITY`` are equalities (h), the others inequalities.
_KIND_FIELDS = {"box_upper": (_STATE_KEYS, (("bound", None),)),
                "box_lower": (_STATE_KEYS, (("bound", None),)),
                "linear_eq": (None, (("offset", 0.0),)),
                "apparent_power": (_BUS_TARGET_KEYS, (("s2_max", None),)),
                "exp_load_eq": (_BUS_TARGET_KEYS,
                                (("alpha", None), ("p_load", None)))}
_KINDS = tuple(_KIND_FIELDS)
_EQUALITY = np.isin(_KINDS, ("linear_eq", "exp_load_eq"))
_PARAMS_KEYS = {kind: frozenset([key for key, _ in nums]
                                + ["terms"] * (keys is None))
                for kind, (keys, nums) in _KIND_FIELDS.items()}


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
    """Flat-state index of a {var, bus} entry, or of a {bus} entry's p
    where ``known``, the keys it may hold, has no var: its bus."""
    _expect(isinstance(entry, dict), path, "expected an object")
    if not known.issuperset(entry):
        _reject_unknown(entry, known, path)
    var = entry.get("var") if "var" in known else "p"
    if var not in _STATE_VARS:
        raise CaseError(f"{path}.var: expected one of "
                        f"{'|'.join(_STATE_VARS)}, got {var!r}")
    return state_index(var, _int(entry, "bus", path, n_bus), n_bus)


def _terms(terms: list, path: str, n_bus: int) -> tuple:
    """(state index, coef) of each {var, bus, coef} object of the array
    ``terms`` at ``path``. Each state entry's coefficients are summed in
    document order, as ``CostSpec`` and ``Constraints.gradients`` sum them; a
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


def _parse_constraint(entry: dict, idx: int, n_bus: int) -> None:
    """Raise on the first fault of the entry ``constraints[idx]``: the
    reader that names what ``_constraint_table`` finds."""
    path = f"constraints[{idx}]"
    _expect(isinstance(entry, dict), path, "expected an object")
    kind, params, target = (entry.get(k) for k in ("kind", "params", "target"))
    if kind not in _KINDS:
        raise CaseError(f"{path}.kind: expected one of {'|'.join(_KINDS)}, "
                        f"got {kind!r}")
    at = f"{path}.params"
    _expect(isinstance(params, dict), at, "expected an object")
    if not _PARAMS_KEYS[kind].issuperset(params):
        _reject_unknown(params, _PARAMS_KEYS[kind], at)
    keys, numbers = _KIND_FIELDS[kind]
    if keys is None:
        _expect(target is None, f"{path}.target", "a linear_eq takes no "
                "target; its terms name the state entries")
        terms = params.get("terms")
        _expect(isinstance(terms, list) and terms, f"{at}.terms",
                "expected a non-empty array")
        _terms(terms, f"{at}.terms", n_bus)
    else:
        _state_entry(target, f"{path}.target", n_bus, keys)
    for key, default in numbers:
        _number(params, key, at, default)
    if not _CONSTRAINT_KEYS.issuperset(entry):
        _reject_unknown(entry, _CONSTRAINT_KEYS, path)


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


def _instances(col: list, types) -> bool:
    """Whether every value of ``col`` is an instance of ``types`` and none
    a bool, as ``_int``, ``_number`` and ``_expect`` read one value."""
    return all(issubclass(t, types) and not issubclass(t, bool)
               for t in set(map(type, col)))


def _objects(items: list, known: frozenset) -> bool:
    """Whether every item of ``items`` is an object whose keys all lie in
    ``known``, decided on the whole array."""
    return _instances(items, dict) and set().union(*items) <= known


def _numbers(items: list, key: str, default: float | None = None):
    """The ``key`` column of the objects ``items`` as floats, ``default``
    where it is missing (required without one); None unless every value is
    a finite number. The types decide first, so a bool fails; then one
    array, whose conversion fails on an integer past the float range."""
    col = [item.get(key, default) for item in items]
    if not _instances(col, (int, float)):
        return None
    try:
        values = np.array(col, dtype=float)
    except OverflowError:
        return None
    return values if np.isfinite(values).all() else None


def _ints(items: list, key: str, n_bus: int | None = None):
    """The ``key`` column of the objects ``items`` if every value is an
    integer, and a bus of ``n_bus`` buses where that is given; else
    None."""
    col = [item.get(key) for item in items]
    if not _instances(col, int):
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
        if all(col is not None for col in cols):
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


def _target_column(items: list, n_bus: int, known: frozenset):
    """``_state_entry`` of each object of ``items`` as one array; None
    unless every one is well formed."""
    if not _objects(items, known):
        return None
    bus = _ints(items, "bus", n_bus)
    var = [item.get("var") if "var" in known else "p" for item in items]
    if bus is None or not all(v in _STATE_VARS for v in var):
        return None
    return (np.array([_STATE_VARS.index(v) for v in var], dtype=int) * n_bus
            + np.array(bus, dtype=int))


def _constraint_table(raw: list, n_bus: int) -> Constraints | None:
    """The constraints array ``raw`` as a ``Constraints`` table, decided by
    column: every entry an object with known keys and kind, then per kind
    its params and targets, each field as one column, and each linear_eq
    row's coefficient sums (``_linear_sums``); None where one fails."""
    if not _objects(raw, _CONSTRAINT_KEYS):
        return None
    kinds = [entry.get("kind") for entry in raw]
    if not all(kind in _KINDS for kind in kinds):
        return None
    tables = []
    for kind, (keys, numbers) in _KIND_FIELDS.items():
        own = [entry for entry, of in zip(raw, kinds) if of == kind]
        targets, params = ([entry.get(key) for entry in own]
                           for key in ("target", "params"))
        if not _objects(params, _PARAMS_KEYS[kind]):
            return None
        if keys is None:
            terms = [p.get("terms") for p in params]
            if not (all(t is None for t in targets) and all(
                    isinstance(t, list) and t for t in terms)):
                return None
            flat = [term for t in terms for term in t]
            index = _target_column(flat, n_bus, _TERM_KEYS)
            table = [np.cumsum([0, *map(len, terms)]), index,
                     None if index is None else _numbers(flat, "coef")]
        else:
            table = [_target_column(targets, n_bus, keys)]
        table += [_numbers(params, key, default) for key, default in numbers]
        if any(col is None for col in table):
            return None
        tables.append(tuple(table))
    table = Constraints(np.array([_KINDS.index(kind) for kind in kinds],
                                 dtype=int), *tables)
    return table if np.isfinite(table._linear_sums[2]).all() else None


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
    table (``_table``), and the constraints (``_constraint_table``) are
    decided by column: every entry an object with known keys, then each
    field as one column, decided on its types and finiteness. Only where a
    column fails are the entries read one by one, each whole (its own
    fields, then its keys), and the error names the first bad entry in
    document order, so the text does not depend on which column failed.

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
    constraints = _constraint_table(raw_cons, net.n_bus)
    if constraints is None:  # a column failed: name the first bad entry
        for i, entry in enumerate(raw_cons):
            _parse_constraint(entry, i, net.n_bus)
        raise AssertionError("the columns read each field as its entry does")

    raw_cost = doc.get("cost", {})
    _expect(isinstance(raw_cost, dict), "cost", "expected an object")
    cost = _parse_cost(raw_cost, net.n_bus)

    # every quantity is per-unit: the base is validated, never read
    if doc.get("base_mva") is not None:
        _number(doc, "base_mva", "$")

    return Case(network=net, gen_p=gen_p, gen_q=gen_q,
                constraints=constraints, cost=cost)
