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

The Newton matrix, the check's stack and the projection take their rows
of its Jacobian from ``flow_rows``, which assembles only the selected
entries from the line list in O(N + M) per trial, since G_kl and B_kl
vanish off the M lines. The dense 2N x 4N ``_jacobian`` is the reference
behind ``pf_jacobian``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netmodel import (AdmittanceMatrix, BusType, CaseError, Network,
                       finite_number)


class PowerFlowError(RuntimeError):
    pass


class NonConvergenceError(PowerFlowError):
    """Newton iteration exhausted without meeting the mismatch tolerance."""

    def __init__(self, message: str, history: list[float], mismatch: float):
        super().__init__(message)
        self.history = history
        self.mismatch = mismatch

    def __str__(self) -> str:
        # Formatted when read: a Monte Carlo sweep creates one per failed
        # trial and never reads it.
        return (f"{self.args[0]}: final mismatch {self.mismatch:.3e} after "
                f"{len(self.history)} iterations; trace "
                f"{['%.3e' % h for h in self.history]}")


class DivergenceError(NonConvergenceError):
    """Newton mismatch became non-finite; the iteration stopped there."""


class SingularNewtonError(PowerFlowError):
    """Singular Newton matrix; possible degeneracy of the flow equations."""


def state_index(var: str, bus: int, n_bus: int) -> int:
    """Flat-state index of a named entry; order is (p, q, v, theta)."""
    offsets = {"p": 0, "q": 1, "v": 2, "theta": 3}
    if var not in offsets:
        raise ValueError(f"unknown state variable {var!r}")
    if not 0 <= bus < n_bus:
        raise ValueError(f"bus {bus} out of range for {n_bus}-bus system")
    return offsets[var] * n_bus + bus


@dataclass(frozen=True, eq=False)
class SystemState:
    """State x = (p_gen, q_gen, v, theta) plus a free/fixed entry mask.

    ``free_mask`` marks which scalar entries of the flattened 4N-vector are
    optimization variables; eliminated entries (e.g. the slack voltage and
    angle) are False. Instances are immutable; the arrays are locked.
    """

    p_gen: np.ndarray
    q_gen: np.ndarray
    v: np.ndarray
    theta: np.ndarray
    free_mask: np.ndarray

    def __post_init__(self) -> None:
        n = self.v.shape[0]
        for arr in (self.p_gen, self.q_gen, self.v, self.theta):
            if arr.shape != (n,):
                raise ValueError("state blocks must share a common bus count")
        if self.free_mask.shape != (4 * n,):
            raise ValueError("free_mask must cover all 4N scalar entries")
        for arr in (self.p_gen, self.q_gen, self.v, self.theta, self.free_mask):
            arr.setflags(write=False)

    @property
    def n_bus(self) -> int:
        return self.v.shape[0]

    def flat(self) -> np.ndarray:
        return np.concatenate([self.p_gen, self.q_gen, self.v, self.theta])

    @classmethod
    def from_flat(cls, vec: np.ndarray, free_mask: np.ndarray) -> "SystemState":
        vec = np.asarray(vec, dtype=float)
        if vec.ndim != 1 or vec.size % 4:
            raise ValueError("flat state must be a 1-D vector of length 4N")
        n = vec.size // 4
        return cls(
            p_gen=vec[:n].copy(),
            q_gen=vec[n:2 * n].copy(),
            v=vec[2 * n:3 * n].copy(),
            theta=vec[3 * n:].copy(),
            free_mask=np.asarray(free_mask, dtype=bool).copy(),
        )


def free_mask_from_bus_types(net: Network) -> np.ndarray:
    """Default elimination mask: slack v and theta fixed, PV v fixed."""
    n = net.n_bus
    mask = np.ones(4 * n, dtype=bool)
    for bus in net.buses:
        if bus.bus_type is BusType.SLACK:
            mask[2 * n + bus.id] = False
            mask[3 * n + bus.id] = False
        elif bus.bus_type is BusType.PV:
            mask[2 * n + bus.id] = False
    return mask


def _injections(Yc: np.ndarray, v: np.ndarray, theta: np.ndarray):
    """Nodal injections from a complex admittance matrix ``Yc``; every
    argument may carry leading trial axes."""
    u = v * np.exp(1j * theta)
    s = u * np.conj((Yc @ u[..., None])[..., 0])
    return s.real, s.imag


def _residual(Yc: np.ndarray, p_load: np.ndarray, q_load: np.ndarray,
              flat: np.ndarray) -> np.ndarray:
    """F at flat states (..., 4N); real-power rows first."""
    n = flat.shape[-1] // 4
    p_inj, q_inj = _injections(Yc, flat[..., 2 * n:3 * n], flat[..., 3 * n:])
    return np.concatenate([flat[..., :n] - p_load - p_inj,
                           flat[..., n:2 * n] - q_load - q_inj], axis=-1)


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


def flow_rows(net: Network, rows: np.ndarray | None, cols: np.ndarray):
    """Plan of the flow Jacobian rows ``_jacobian(G, B, flat)[..., rows,
    cols]`` on the lines of ``net``: returns the function from T trials'
    G, B (T x N x N, zero off the lines and the diagonal, as
    ``admittance_stack`` builds them) and flat states (T x 4N) to their
    T x |rows| x |cols| rows. ``rows`` is an index array over the 2N flow
    rows, or None for all of them with ``cols`` a boolean mask over the
    4N columns; else ``cols`` is an index array too.

    The plan holds the line ends and the scatter index of the selected
    entries, so a call costs O(T (N + M)) for the M lines: the
    off-diagonal entries over both directions of each line, the diagonal
    ones from per-bus sums of the same terms, and the generation
    identities, scattered into one zeroed array. The per-bus sums run in
    another order than the dense matmul, so diagonal entries may differ
    from ``_jacobian`` in the last bits."""
    n = net.n_bus
    ends = np.array([(ln.from_bus, ln.to_bus) for ln in net.lines],
                    dtype=int).reshape(-1, 2)
    k = np.concatenate((ends[:, 0], ends[:, 1]))
    l = np.concatenate((ends[:, 1], ends[:, 0]))
    bus = np.arange(n)
    at_row = np.concatenate((k, k, n + k, n + k, bus, bus, n + bus, n + bus,
                             bus, n + bus))
    at_col = np.concatenate((2 * n + l, 3 * n + l, 2 * n + l, 3 * n + l,
                             2 * n + bus, 3 * n + bus, 2 * n + bus,
                             3 * n + bus, bus, n + bus))

    def positions(sel, size):
        pos = np.full(size, -1)
        picked = np.arange(size)[slice(None) if sel is None else sel]
        pos[picked] = np.arange(picked.size)
        return pos, picked.size

    row_pos, n_rows = positions(rows, 2 * n)
    col_pos, n_cols = positions(cols, 4 * n)
    r, q = row_pos[at_row], col_pos[at_col]
    kept = np.flatnonzero((r >= 0) & (q >= 0))
    at_out = r[kept] * n_cols + q[kept]

    def jacobian_rows(G: np.ndarray, B: np.ndarray,
                      flat: np.ndarray) -> np.ndarray:
        trials = flat.shape[0]
        v, theta = flat[:, 2 * n:3 * n], flat[:, 3 * n:]
        t = theta[:, k] - theta[:, l]
        g, b = G[:, k, l], B[:, k, l]
        cos_t, sin_t = np.cos(t), np.sin(t)
        a = g * cos_t + b * sin_t
        c = g * sin_t - b * cos_t
        vk, vl = v[:, k], v[:, l]
        vv = vk * vl
        gd, bd = G[:, bus, bus], B[:, bus, bus]

        # per-bus sums of a_kl v_l and c_kl v_l, the l = k terms
        # (a_kk = G_kk, c_kk = -B_kk) included
        at_bus = (np.arange(trials)[:, None] * n + k).ravel()

        def bus_sum(vals):
            return np.bincount(at_bus, vals.ravel(),
                               minlength=trials * n).reshape(trials, n)

        av = gd * v + bus_sum(a * vl)
        cv = bus_sum(c * vl) - bd * v
        values = np.concatenate((
            -vk * a, -vv * c, -vk * c, vv * a,
            -(av + v * gd), v * cv + v**2 * bd, -(cv - v * bd),
            -(v * av - v**2 * gd), np.ones((trials, 2 * n))), axis=1)
        out = np.zeros((trials, n_rows * n_cols))
        out[:, at_out] = values[:, kept]
        return out.reshape(trials, n_rows, n_cols)

    return jacobian_rows


def pf_residual(net: Network, Y: AdmittanceMatrix, x: SystemState) -> np.ndarray:
    """Evaluate F(x); length 2N, real-power rows first."""
    if x.n_bus != net.n_bus:
        raise ValueError("state dimension does not match network")
    return _residual(Y.G + 1j * Y.B, net.p_load, net.q_load, x.flat())


def pf_jacobian(net: Network, Y: AdmittanceMatrix, x: SystemState) -> np.ndarray:
    """Analytic 2N x 4N Jacobian of F in flat-state column order.

    The generation blocks are exact identities (dF_p/dp_gen = I and the
    reactive rows' dF_q/dq_gen = I) with zero cross blocks; the v/theta
    blocks are the negated partials of the nodal injections.
    """
    if x.n_bus != net.n_bus:
        raise ValueError("state dimension does not match network")
    return _jacobian(Y.G, Y.B, x.flat())


@dataclass(frozen=True, eq=False)
class PFSolution:
    state: SystemState
    iterations: int
    history: tuple[float, ...]


# Newton step budget of newton_states, per trial.
MAX_ITER = 50


def _newton_steps(jac: np.ndarray, rhs: np.ndarray):
    """Stacked solve of ``jac step = rhs``. numpy rejects a whole stack when
    one matrix is singular; the stack is then solved trial by trial, and
    each singular trial maps to its LinAlgError."""
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


def newton_states(
    net: Network,
    G: np.ndarray,
    B: np.ndarray,
    p_load: np.ndarray,
    q_load: np.ndarray,
    p_gen: np.ndarray,
    q_gen: np.ndarray,
    *,
    pf_tol: float = 1e-10,
) -> tuple[np.ndarray, list, np.ndarray]:
    """Plain Newton on a stack of trials that share the bus records of
    ``net``: trial i has admittances ``G[i] + 1j B[i]`` (T x N x N) and
    loads ``p_load[i]``, ``q_load[i]`` (T x N).

    The trials are stacked, never mixed, and a trial leaves the stack when
    it converges or fails, so each trial's iterates are those of a solve on
    its own data. Returns the final flat states (T x 4N), per trial its
    iteration count when it converged or its unraised ``PowerFlowError``,
    and the mismatch history (T x MAX_ITER + 1, row i valid up to trial
    i's last iteration).

    Each step's Newton matrix comes from one ``flow_rows`` plan, an
    O(N + M) assembly from the line list whose iterates may differ from
    those of the dense ``pf_jacobian`` in the last bits."""
    n = net.n_bus
    trials = G.shape[0]
    mask = free_mask_from_bus_types(net)
    free_v, free_t = mask[2 * n:3 * n], mask[3 * n:]
    rows = np.concatenate([np.flatnonzero(free_t), n + np.flatnonzero(free_v)])
    cols = np.concatenate([3 * n + np.flatnonzero(free_t),
                           2 * n + np.flatnonzero(free_v)])
    newton_matrix = flow_rows(net, rows, cols)

    v = np.where(free_v, 1.0, [b.v_setpoint for b in net.buses])
    theta = np.where(free_t, 0.0, [b.theta_setpoint for b in net.buses])
    x = np.tile(np.concatenate([p_gen, q_gen, v, theta]), (trials, 1))
    Yc = G + 1j * B

    errs = np.zeros((trials, MAX_ITER + 1))
    outcome: list = [None] * trials  # iteration count or PowerFlowError

    def history(i: int, iterations: int) -> list[float]:
        return errs[i, :iterations + 1].tolist()

    live = np.arange(trials)
    data = (G, B, Yc, p_load, q_load)  # rows of the live trials

    def keep(sel: np.ndarray) -> None:
        nonlocal live, data
        if not sel.all():
            live = live[sel]
            data = tuple(arr[sel] for arr in data)

    with np.errstate(all="ignore"):
        for it in range(MAX_ITER + 1):
            mis = _residual(*data[2:], x[live])[:, rows]
            err = np.abs(mis).max(axis=1, initial=0.0)
            errs[live, it] = err
            going = np.isfinite(err) & (err > pf_tol)
            for i, e in zip(live[~going], err[~going]):
                outcome[i] = it if e <= pf_tol else DivergenceError(
                    f"power flow diverged: non-finite mismatch at "
                    f"iteration {it}", history(i, it), e)
            if it == MAX_ITER:
                for i in live[going]:
                    outcome[i] = NonConvergenceError(
                        "power flow did not converge", history(i, it),
                        errs[i, it])
                break
            rhs = -mis[going]
            keep(going)
            if not live.size:
                break
            steps, singular = _newton_steps(
                newton_matrix(*data[:2], x[live]), rhs)
            for j, exc in singular.items():
                outcome[live[j]] = SingularNewtonError(
                    f"singular Newton matrix at iteration {it} "
                    "(possible degeneracy of the flow equations)")
                outcome[live[j]].__cause__ = exc
            ok = np.ones(live.size, dtype=bool)
            ok[list(singular)] = False
            x[live[ok][:, None], cols] += steps[ok]
            keep(ok)

    # Recover generation at buses whose rows were left out of the Newton
    # system so the full residual vanishes identically.
    done = np.array([i for i, o in enumerate(outcome) if isinstance(o, int)],
                    dtype=int)
    xd = x[done]
    p_inj, q_inj = _injections(Yc[done], xd[:, 2 * n:3 * n], xd[:, 3 * n:])
    xd[:, :n] = np.where(free_t, xd[:, :n], p_inj + p_load[done])
    xd[:, n:2 * n] = np.where(free_v, xd[:, n:2 * n], q_inj + q_load[done])
    x[done] = xd
    final = np.abs(_residual(Yc[done], p_load[done], q_load[done],
                             xd)).max(axis=1, initial=0.0)
    for i, res in zip(done, final):
        if res > pf_tol:
            outcome[i] = NonConvergenceError(
                "converged reduced system but full residual exceeds tolerance",
                history(i, outcome[i]), res)
    return x, outcome, errs


def solve_power_flow(
    net: Network,
    Y: AdmittanceMatrix,
    p_gen: np.ndarray,
    q_gen: np.ndarray,
    *,
    pf_tol: float = 1e-10,
) -> PFSolution:
    """Plain Newton on the flow equations of the free voltage entries.

    ``p_gen`` is scheduled at non-slack buses and ``q_gen`` at PQ buses;
    slack and PV voltage data come from the bus records. The unknowns are
    the free theta and v entries of ``free_mask_from_bus_types``, the
    equations the P rows of buses with a free theta and the Q rows of buses
    with a free v; each step solves ``J step = -F`` on those rows and
    columns of the flow residual and Jacobian. The slack bus absorbs
    the power balance and PV reactive output is recovered after
    convergence. No line search or continuation: which solution branch is
    reached depends only on the start point, and failure is reported, not
    masked: a non-finite mismatch raises ``DivergenceError`` at once.

    This is the one-trial call of ``newton_states``.
    """
    x, (out,), errs = newton_states(net, Y.G[None], Y.B[None],
                                    net.p_load[None], net.q_load[None],
                                    p_gen, q_gen, pf_tol=pf_tol)
    if isinstance(out, PowerFlowError):
        raise out
    return PFSolution(
        state=SystemState.from_flat(x[0], free_mask_from_bus_types(net)),
        iterations=out, history=tuple(errs[0, :out + 1].tolist()))


def state_from_list(values, net: Network) -> SystemState:
    """A state from its flat JSON form, (p_gen, q_gen, v, theta) order: an
    array of 4N finite numbers."""
    vec = [finite_number(t) for t in values] if isinstance(values, list) else None
    if vec is None or None in vec:
        raise CaseError("state must be a flat JSON array of finite numbers")
    if len(vec) != 4 * net.n_bus:
        raise CaseError(
            f"state vector must have length {4 * net.n_bus}, got {len(vec)}")
    return SystemState.from_flat(np.array(vec), free_mask_from_bus_types(net))
