"""AC power-flow residual, analytic Jacobian and Newton feasibility solver.

Voltages are polar: u_k = v_k * exp(j*theta_k). The system state is the
flat vector x = (p_gen, q_gen, v, theta) of length 4N; that ordering is
fixed and shared by every Jacobian column layout in the package.

The residual is

    F(x) = [ p_gen - p_load - Re{diag(u) (Y u)*} ]
           [ q_gen - q_load - Im{diag(u) (Y u)*} ]

so real row k reads  p_gen_k - p_load_k - sum_l v_k v_l (G_kl cos t_kl +
B_kl sin t_kl)  with t_kl = theta_k - theta_l, and the reactive row uses
(G_kl sin t_kl - B_kl cos t_kl).

Y is carried as its line list (``netmodel.admittance_stack``), since G_kl
and B_kl vanish off the M lines and the diagonal: the residual sums Y u
over both directions of each line, and the Newton matrix, the check's
stack and the projection take their rows of the Jacobian from
``flow_rows`` plans, which compute the structural entries
(``flow_entries``) their caller keeps and write each where it places it;
each costs O(N + M) per trial. The dense 2N x 4N ``_jacobian`` of
``build_ybus`` is the reference behind ``pf_jacobian``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _blas
from .netmodel import (CaseError, Network, build_ybus, finite_number,
                       state_index)


class PowerFlowError(RuntimeError):
    pass


class NonConvergenceError(PowerFlowError):
    """Newton iteration exhausted without meeting the mismatch tolerance."""

    def __init__(self, message: str, history: list[float], mismatch: float):
        super().__init__(f"{message}: final mismatch {mismatch:.3e} after "
                         f"{len(history)} iterations; trace "
                         f"{['%.3e' % h for h in history]}")
        self.history = history
        self.mismatch = mismatch


class DivergenceError(NonConvergenceError):
    """Newton mismatch became non-finite; the iteration stopped there."""


class StalledNewtonError(NonConvergenceError):
    """Newton mismatch set no new least value for ``STALL_STEPS`` steps;
    the iteration stopped there."""


class SingularNewtonError(PowerFlowError):
    """Singular Newton matrix; possible degeneracy of the flow equations."""


@dataclass(frozen=True, eq=False)
class SystemState:
    """State x = (p_gen, q_gen, v, theta), a point of the 4N-entry state
    space. Which entries are free is the network's decision
    (``Network.free_mask``). Instances are immutable; the arrays are
    locked.
    """

    p_gen: np.ndarray
    q_gen: np.ndarray
    v: np.ndarray
    theta: np.ndarray

    def __post_init__(self) -> None:
        n = self.v.shape[0]
        for arr in (self.p_gen, self.q_gen, self.v, self.theta):
            if arr.shape != (n,):
                raise ValueError("state blocks must share a common bus count")
        for arr in (self.p_gen, self.q_gen, self.v, self.theta):
            arr.setflags(write=False)

    @property
    def n_bus(self) -> int:
        return self.v.shape[0]

    def flat(self) -> np.ndarray:
        return np.concatenate([self.p_gen, self.q_gen, self.v, self.theta])

    @classmethod
    def from_flat(cls, vec: np.ndarray) -> "SystemState":
        vec = np.asarray(vec, dtype=float)
        if vec.ndim != 1 or vec.size % 4:
            raise ValueError("flat state must be a 1-D vector of length 4N")
        n = vec.size // 4
        return cls(
            p_gen=vec[:n].copy(),
            q_gen=vec[n:2 * n].copy(),
            v=vec[2 * n:3 * n].copy(),
            theta=vec[3 * n:].copy(),
        )


def _add_bus_sums(d, out: np.ndarray, terms: np.ndarray) -> None:
    """Add to ``out`` (T x N) the per-bus sums of ``terms`` (T x 2M), one
    per direction of ``d`` (``Network.directions``), each bus's in order."""
    out[:, d.at] += np.add.reduceat(terms, d.starts, axis=1)


def _injections(net: Network, y: np.ndarray, v: np.ndarray,
                theta: np.ndarray):
    """Nodal injections (p, q), each T x N, at voltages v, theta (T x N)
    under the complex line lists ``y`` = g + jb (T x (M + N),
    ``netmodel.admittance_stack``). Y u is the diagonal term plus per-bus
    sums over both directions of each line: O(T (N + M)) and no BLAS
    call."""
    m, d = net.n_line, net.directions
    u = v * np.exp(1j * theta)
    yu = y[:, m:] * u
    _add_bus_sums(d, yu, y[:, d.line] * u[:, d.other])
    s = u * np.conj(yu)
    return s.real, s.imag


def _residual(net: Network, y, p_load: np.ndarray, q_load: np.ndarray,
              flat: np.ndarray) -> np.ndarray:
    """F at flat states (T x 4N) under the complex line lists ``y`` of
    ``_injections``; real-power rows first."""
    n = net.n_bus
    p_inj, q_inj = _injections(net, y, flat[:, 2 * n:3 * n], flat[:, 3 * n:])
    return np.concatenate([flat[:, :n] - p_load - p_inj,
                           flat[:, n:2 * n] - q_load - q_inj], axis=1)


def _jacobian(G: np.ndarray, B: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """dF/dx at flat states (..., 4N), shape (..., 2N, 4N)."""
    n = flat.shape[-1] // 4
    v, theta = flat[..., 2 * n:3 * n], flat[..., 3 * n:]
    t = theta[..., :, None] - theta[..., None, :]
    a = G * np.cos(t) + B * np.sin(t)
    c = G * np.sin(t) - B * np.cos(t)
    av, cv = (a @ v[..., None])[..., 0], (c @ v[..., None])[..., 0]
    vv = v[..., :, None] * v[..., None, :]
    gd = np.diagonal(G, axis1=-2, axis2=-1)
    bd = np.diagonal(B, axis1=-2, axis2=-1)

    jac = np.zeros(flat.shape[:-1] + (2 * n, 4 * n))
    k = np.arange(n)
    jac[..., k, k] = 1.0
    jac[..., n + k, n + k] = 1.0
    fp_v, fp_t = jac[..., :n, 2 * n:3 * n], jac[..., :n, 3 * n:]
    fq_v, fq_t = jac[..., n:, 2 * n:3 * n], jac[..., n:, 3 * n:]
    fp_v[:] = -v[..., :, None] * a
    fp_v[..., k, k] = -(av + v * gd)
    fp_t[:] = -vv * c
    fp_t[..., k, k] = v * cv + v**2 * bd
    fq_v[:] = -v[..., :, None] * c
    fq_v[..., k, k] = -(cv - v * bd)
    fq_t[:] = vv * a
    fq_t[..., k, k] = -(v * av - v**2 * gd)
    return jac


def flow_entries(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) of every structural entry of the 2N x 4N flow Jacobian
    on the line list of ``net``, in the block order ``flow_rows`` computes
    them: the off-diagonal v and theta entries of P and of Q over both
    directions of each line, the diagonal ones of each bus, then the
    generation identities. No two entries share a position: a network has
    no self-loop and no parallel line."""
    n, d = net.n_bus, net.directions
    k, l, bus = d.bus, d.other, np.arange(n)
    return (np.concatenate((k, k, n + k, n + k, bus, bus, n + bus, n + bus,
                            bus, n + bus)),
            np.concatenate((2 * n + l, 3 * n + l, 2 * n + l, 3 * n + l,
                            2 * n + bus, 3 * n + bus, 2 * n + bus,
                            3 * n + bus, bus, n + bus)))


def selected_entries(net: Network, rows: np.ndarray, cols: np.ndarray):
    """The ``flow_entries`` of ``net`` inside the flow rows ``rows`` and
    the state columns ``cols`` (index arrays): their indices and their
    row and column positions in that selection."""
    er, ec = flow_entries(net)
    row_pos, col_pos = np.full(2 * net.n_bus, -1), np.full(4 * net.n_bus, -1)
    row_pos[rows], col_pos[cols] = np.arange(rows.size), np.arange(cols.size)
    r, q = row_pos[er], col_pos[ec]
    kept = np.flatnonzero((r >= 0) & (q >= 0))
    return kept, r[kept], q[kept]


def flow_rows(net: Network, kept: np.ndarray, at: np.ndarray):
    """Plan of the entries ``kept`` of ``flow_entries(net)``, placed by
    ``at``: returns ``fill(g, b, flat, out)``, which takes T trials' line
    lists g, b (T x (M + N), ``netmodel.admittance_stack``) and flat
    states (T x 4N), writes entry ``kept[e]`` of trial t at
    ``out.reshape(T, -1)[t, at[e]]`` of the C-contiguous ``out``, leaves
    every other position as it is and returns ``out``.

    A call costs O(T (N + M)) for the M lines: the off-diagonal entries
    over both directions of each line, the diagonal ones from per-bus sums
    of the same terms (in another order than the dense matmul, so they may
    differ from ``_jacobian`` in the last bits), and the generation
    identities."""
    n, m, d = net.n_bus, net.n_line, net.directions
    k, l, line = d[:3]
    # the kept entries of each block of values that fill writes, and where
    # each goes; no ``net``, so a network caching the plan is no cycle
    edges = np.cumsum([0, *[2 * m] * 4, *[n] * 4, 2 * n])
    scatter = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        inside = (kept >= lo) & (kept < hi)
        scatter.append((kept[inside] - lo, at[inside]))

    def line_terms(g, b, theta):
        # a_kl and c_kl of each direction; the temporaries end here
        t = theta[:, k] - theta[:, l]
        g_kl, b_kl = g[:, line], b[:, line]
        cos_t, sin_t = np.cos(t), np.sin(t)
        return g_kl * cos_t + b_kl * sin_t, g_kl * sin_t - b_kl * cos_t

    def fill(g: np.ndarray, b: np.ndarray, flat: np.ndarray,
             out: np.ndarray) -> np.ndarray:
        store = out.reshape(flat.shape[0], -1)

        def put(block, values):
            # one block at a time: no array holds every entry twice
            src, dst = scatter[block]
            store[:, dst] = values[:, src]

        v, theta = flat[:, 2 * n:3 * n], flat[:, 3 * n:]
        a, c = line_terms(g, b, theta)
        vk, vl = v[:, k], v[:, l]
        vv = vk * vl
        put(0, -vk * a)
        put(1, -vv * c)
        put(2, -vk * c)
        put(3, vv * a)
        gd, bd = g[:, m:], b[:, m:]
        # per-bus sums of a_kl v_l and c_kl v_l, the l = k terms
        # (a_kk = G_kk, c_kk = -B_kk) included
        av = gd * v
        _add_bus_sums(d, av, a * vl)
        cv = -(bd * v)
        _add_bus_sums(d, cv, c * vl)
        put(4, -(av + v * gd))
        put(5, v * cv + v**2 * bd)
        put(6, -(cv - v * bd))
        put(7, -(v * av - v**2 * gd))
        store[:, scatter[8][1]] = 1.0
        return out

    return fill


def pf_residual(net: Network, x: SystemState) -> np.ndarray:
    """Evaluate F(x) on the network's own admittances; length 2N,
    real-power rows first."""
    if x.n_bus != net.n_bus:
        raise ValueError("state dimension does not match network")
    g, b = net.admittances
    return _residual(net, g + 1j * b, net.p_load, net.q_load,
                     x.flat()[None])[0]


def pf_jacobian(net: Network, x: SystemState) -> np.ndarray:
    """Analytic 2N x 4N Jacobian of F in flat-state column order, from the
    dense ``build_ybus``: the reference the line-list rows of
    ``flow_rows`` are tested against.

    The generation blocks are exact identities (dF_p/dp_gen = I and the
    reactive rows' dF_q/dq_gen = I) with zero cross blocks; the v/theta
    blocks are the negated partials of the nodal injections.
    """
    if x.n_bus != net.n_bus:
        raise ValueError("state dimension does not match network")
    G, B = build_ybus(net)
    return _jacobian(G, B, x.flat())


@dataclass(frozen=True, eq=False)
class PFSolution:
    state: SystemState
    iterations: int
    history: tuple[float, ...]


# Newton step budget of newton_states, per trial.
MAX_ITER = 50
# Steps without a new least mismatch after which newton_states stops a
# trial as stalled (the start is step 0). Of more than 40 000 converged
# trials (ex1 load, shunt and line sweeps, ex2, ex3, the 8 x 8 shunt grid,
# random, ring and lattice networks up to 12 x 12 with loads up to 400x)
# none went more than 3 steps without one; the worst, ex1 shunt seed 0
# trial 805, reads 1.10, 3.57, 2.52, 1.18, 0.18 and converges at step 9.
# Every trial that failed to converge there reached 5 by step 34.
STALL_STEPS = 5


def _newton_steps(jac: np.ndarray, rhs: np.ndarray,
                  band: tuple[int, int] | None = None):
    """Solve ``jac step = rhs`` for a stack of trials: (steps, singular),
    ``singular`` mapping each trial whose matrix is singular to its
    LinAlgError.

    With ``band`` = (kl, ku), ``jac`` is the stack in LAPACK band storage
    and each trial is one ``dgbsv`` call that overwrites ``jac`` and
    ``rhs``; the steps are ``rhs``. Else one batched dense solve; numpy
    rejects a whole stack when one matrix is singular, and the stack is
    then solved trial by trial."""
    if band is not None:
        infos = _blas.band_solver()(*band, jac, rhs)
        return rhs, {i: np.linalg.LinAlgError(
            f"Singular matrix: U({info}, {info}) is exactly zero")
            for i, info in enumerate(infos.tolist()) if info}
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0], {}
    except np.linalg.LinAlgError:
        pass
    steps, singular = np.zeros_like(rhs), {}
    for i in range(rhs.shape[0]):
        try:
            steps[i] = np.linalg.solve(jac[i:i + 1], rhs[i:i + 1, :, None])[0, :, 0]
        except np.linalg.LinAlgError as exc:
            singular[i] = exc
    return steps, singular


def _newton_system(net: Network):
    """Rows and columns of the Newton matrix, its band (kl, ku) when the
    banded solve takes it, else None, and the ``flow_rows`` plan that
    fills it.

    The unknowns are the free theta and v entries, each paired with the P
    or Q row of its bus. In ``Network.bus_order`` with each bus's theta
    and v adjacent, kl and ku are the widest reach below and above the
    diagonal of the entries where two unknowns meet. A band of width
    w = 2 kl + ku + 1 is solved banded when 2 w < m, the order of the
    matrix: on lattices from 7 x 7 up, where one ``dgbsv`` a trial takes
    28 us against 72 us a trial of the batched dense LU (1.1 ms against
    38 ms on 24 x 24; one BLAS thread on 2 vCPUs), and the plan writes
    LAPACK band storage, m x w, entry (r, q) at ``[q, kl + ku + r - q]``
    (``_blas.band_solver``). Otherwise, and where numpy's BLAS has no
    ``dgbsv``, the rows and columns stay in blocks, every theta and then
    every v, and the plan writes the m x m matrix row-major for the
    batched dense solve."""
    n = net.n_bus

    def unknowns(order):
        cols = order[net.free_mask[order]]
        rows = np.where(cols >= 3 * n, cols - 3 * n, cols - n)
        return (rows, cols, *selected_entries(net, rows, cols))

    rows, cols, kept, r, q = unknowns(
        np.stack((3 * n + net.bus_order, 2 * n + net.bus_order), 1).ravel())
    kl, ku = int((r - q).max(initial=0)), int((q - r).max(initial=0))
    width = 2 * kl + ku + 1
    if 2 * width < cols.size and _blas.band_solver() is not None:
        return rows, cols, (kl, ku), flow_rows(net, kept,
                                               q * width + kl + ku + r - q)
    rows, cols, kept, r, q = unknowns(np.r_[3 * n:4 * n, 2 * n:3 * n])
    return rows, cols, None, flow_rows(net, kept, r * cols.size + q)


# Error class and message of each failure kind of a newton_states trial.
_FAILURES = (
    (DivergenceError, "power flow diverged: non-finite mismatch at "
     "iteration {it}"),
    (StalledNewtonError, "power flow stalled: no new least mismatch in "
     "{stall} steps"),
    (NonConvergenceError, "power flow did not converge"),
    (NonConvergenceError, "converged reduced system but full residual "
     "exceeds tolerance"),
    (SingularNewtonError, "singular Newton matrix at iteration {it} "
     "(possible degeneracy of the flow equations)"),
)
DIVERGED, STALLED, OUT_OF_STEPS, FULL_RESIDUAL, SINGULAR = range(1, 6)


class NewtonStates(NamedTuple):
    """``newton_states`` on T trials, as arrays: final flat states, the
    mismatch history (row i valid up to ``steps[i]``), the iteration where
    each trial stopped (its count where it converged), the failure kind (0
    where it converged, else k for ``_FAILURES[k - 1]``), the mismatch a
    failure reports, and the LinAlgError of each singular Newton matrix."""

    x: np.ndarray
    errs: np.ndarray
    steps: np.ndarray
    kind: np.ndarray
    mismatch: np.ndarray
    causes: dict

    def error(self, i: int) -> PowerFlowError | None:
        """Trial i's unraised PowerFlowError, None where it converged."""
        if not self.kind[i]:
            return None
        (cls, text), it = _FAILURES[self.kind[i] - 1], int(self.steps[i])
        text = text.format(it=it, stall=STALL_STEPS)
        if cls is not SingularNewtonError:
            return cls(text, self.errs[i, :it + 1].tolist(), self.mismatch[i])
        exc = cls(text)
        exc.__cause__ = self.causes[i]
        return exc


def newton_states(
    net: Network,
    g: np.ndarray,
    b: np.ndarray,
    p_load: np.ndarray,
    q_load: np.ndarray,
    p_gen: np.ndarray,
    q_gen: np.ndarray,
    *,
    pf_tol: float,
) -> NewtonStates:
    """Plain Newton on a stack of trials that share the bus records of
    ``net``: trial i has the admittances of the line lists ``g[i]``,
    ``b[i]`` (T x (M + N), ``netmodel.admittance_stack``) and loads
    ``p_load[i]``, ``q_load[i]`` (T x N).

    The trials are stacked, never mixed, and a trial leaves the stack when
    it converges or fails, so each trial's iterates are those of a solve on
    its own data. Returns the trials' states, histories and outcomes as
    arrays (``NewtonStates``), which build a failed trial's error on call.

    A trial fails with ``DivergenceError`` at a non-finite mismatch, with
    ``SingularNewtonError`` at a singular Newton matrix, with
    ``StalledNewtonError`` when ``STALL_STEPS`` steps in a row set no new
    least mismatch (a load past the nose of the flow curve, or a mismatch
    at its rounding floor above ``pf_tol``), and with a plain
    ``NonConvergenceError`` after ``MAX_ITER`` steps. The stall rule keeps
    each live trial's least mismatch and its steps since that last fell:
    a few array operations per step.

    The residual and each step's Newton matrix (``Network.newton_system``)
    are O(N + M) per trial from the line list; their iterates may differ
    from those of the dense ``pf_jacobian`` in the last bits. The plan
    refills one workspace for the block at every step: LAPACK band
    storage where the band is narrow (``_newton_system``), each trial's
    step one ``dgbsv``, else the dense matrices of one batched dense
    solve. Every solve runs on one BLAS thread (``_blas.serial``), at
    every size."""
    n = net.n_bus
    trials = g.shape[0]
    mask = net.free_mask
    free_v, free_t = mask[2 * n:3 * n], mask[3 * n:]
    rows, cols, band, newton_matrix = net.newton_system
    # the block's one Newton matrix storage, refilled at every step
    work = np.empty((trials, cols.size, cols.size if band is None
                     else 2 * band[0] + band[1] + 1))

    # every angle starts at the slack's; F sees only angle differences
    v = np.where(free_v, 1.0, net.v_setpoint)
    theta = np.full(n, net.theta_setpoint[net.bus_type == "slack"])
    x = np.tile(np.concatenate([p_gen, q_gen, v, theta]), (trials, 1))
    y = g + 1j * b

    errs = np.zeros((trials, MAX_ITER + 1))
    steps, kind = np.zeros((2, trials), dtype=int)
    causes: dict = {}

    live = np.arange(trials)
    data = (g, b, y, p_load, q_load)  # rows of the live trials
    best = np.full(trials, np.inf)  # least mismatch of each live trial
    since = np.zeros(trials, dtype=int)  # its steps since that last fell

    def keep(sel: np.ndarray) -> None:
        nonlocal live, data, best, since
        if not sel.all():
            live, best, since = live[sel], best[sel], since[sel]
            data = tuple(arr[sel] for arr in data)

    with np.errstate(all="ignore"):
        for it in range(MAX_ITER + 1):
            mis = _residual(net, *data[2:], x[live])[:, rows]
            err = np.abs(mis).max(axis=1, initial=0.0)
            errs[live, it] = err
            steps[live] = it
            fell = err < best
            best = np.where(fell, err, best)
            since = np.where(fell, 0, since + 1)
            kind[live[~np.isfinite(err)]] = DIVERGED
            going = np.isfinite(err) & (err > pf_tol)
            stalled = going & (since >= STALL_STEPS)
            kind[live[stalled]] = STALLED
            going &= ~stalled
            if it == MAX_ITER:
                kind[live[going]] = OUT_OF_STEPS
                break
            rhs = -mis[going]
            keep(going)
            if not live.size:
                break
            jac = work[:live.size]
            jac.fill(0.0)
            newton_matrix(*data[:2], x[live], jac)
            with _blas.serial():
                step, singular = _newton_steps(jac, rhs, band)
            ok = np.ones(live.size, dtype=bool)
            ok[list(singular)] = False
            kind[live[~ok]] = SINGULAR
            causes.update({int(live[j]): exc for j, exc in singular.items()})
            x[live[ok][:, None], cols] += step[ok]
            keep(ok)

    # Recover generation at buses whose rows were left out of the Newton
    # system so the full residual vanishes identically.
    done = np.flatnonzero(kind == 0)
    xd, yd, pd, qd = x[done], y[done], p_load[done], q_load[done]
    p_inj, q_inj = _injections(net, yd, xd[:, 2 * n:3 * n], xd[:, 3 * n:])
    xd[:, :n] = np.where(free_t, xd[:, :n], p_inj + pd)
    xd[:, n:2 * n] = np.where(free_v, xd[:, n:2 * n], q_inj + qd)
    x[done] = xd
    final = np.abs(_residual(net, yd, pd, qd, xd)).max(axis=1, initial=0.0)
    mismatch = errs[np.arange(trials), steps]
    over = done[final > pf_tol]
    kind[over] = FULL_RESIDUAL
    mismatch[over] = final[final > pf_tol]
    return NewtonStates(x, errs, steps, kind, mismatch, causes)


def solve_power_flow(
    net: Network,
    p_gen: np.ndarray,
    q_gen: np.ndarray,
    *,
    pf_tol: float,
) -> PFSolution:
    """Plain Newton on the flow equations of the free voltage entries of
    ``net``, under its own admittances and loads.

    ``p_gen`` is scheduled at non-slack buses and ``q_gen`` at PQ buses;
    slack and PV voltage data come from the bus records. The unknowns are
    the free theta and v entries of ``Network.free_mask``, the
    equations the P rows of buses with a free theta and the Q rows of buses
    with a free v; each step solves ``J step = -F`` on those rows and
    columns of the flow residual and Jacobian. The slack bus absorbs
    the power balance and PV reactive output is recovered after
    convergence. Newton starts from v = 1 at PQ buses and every angle at
    the slack's ``theta_setpoint``. No line search or continuation: which
    solution branch is reached depends only on that start, and failure is
    reported, not masked: the solve raises the ``PowerFlowError`` of its
    failure (``newton_states``; see ``STALL_STEPS`` for why 5), each
    ``NonConvergenceError`` with the mismatch history.

    This is the one-trial call of ``newton_states``.
    """
    out = newton_states(net, *net.admittances, net.p_load[None],
                        net.q_load[None], p_gen, q_gen, pf_tol=pf_tol)
    if out.kind[0]:
        raise out.error(0)
    it = int(out.steps[0])
    return PFSolution(state=SystemState.from_flat(out.x[0]), iterations=it,
                      history=tuple(out.errs[0, :it + 1].tolist()))


def state_from_list(values, net: Network) -> SystemState:
    """A state from its flat JSON form, (p_gen, q_gen, v, theta) order: an
    array of 4N finite numbers."""
    vec = [finite_number(t) for t in values] if isinstance(values, list) else None
    if vec is None or None in vec:
        raise CaseError("state must be a flat JSON array of finite numbers")
    if len(vec) != 4 * net.n_bus:
        raise CaseError(
            f"state vector must have length {4 * net.n_bus}, got {len(vec)}")
    return SystemState.from_flat(np.array(vec))
