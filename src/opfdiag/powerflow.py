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
        super().__init__(
            f"{message}: final mismatch {mismatch:.3e} after "
            f"{len(history)} iterations; trace {['%.3e' % h for h in history]}"
        )
        self.history = history
        self.mismatch = mismatch


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


def injections(Y: AdmittanceMatrix, v: np.ndarray, theta: np.ndarray):
    """Nodal complex power flowing from each bus into the network."""
    u = v * np.exp(1j * theta)
    s = u * np.conj((Y.G + 1j * Y.B) @ u)
    return s.real, s.imag


def pf_residual(net: Network, Y: AdmittanceMatrix, x: SystemState) -> np.ndarray:
    """Evaluate F(x); length 2N, real-power rows first."""
    if x.n_bus != net.n_bus:
        raise ValueError("state dimension does not match network")
    p_inj, q_inj = injections(Y, x.v, x.theta)
    return np.concatenate([
        x.p_gen - net.p_load - p_inj,
        x.q_gen - net.q_load - q_inj,
    ])


def pf_jacobian(net: Network, Y: AdmittanceMatrix, x: SystemState) -> np.ndarray:
    """Analytic 2N x 4N Jacobian of F in flat-state column order.

    The generation blocks are exact identities (dF_p/dp_gen = I and the
    reactive rows' dF_q/dq_gen = I) with zero cross blocks; the v/theta
    blocks are the negated partials of the nodal injections.
    """
    n = net.n_bus
    if x.n_bus != n:
        raise ValueError("state dimension does not match network")
    v, theta = x.v, x.theta
    t = theta[:, None] - theta[None, :]
    a = Y.G * np.cos(t) + Y.B * np.sin(t)
    c = Y.G * np.sin(t) - Y.B * np.cos(t)
    av, cv = a @ v, c @ v
    vv = np.outer(v, v)
    gd = np.diag(Y.G)
    bd = np.diag(Y.B)

    jac = np.zeros((2 * n, 4 * n))
    k = np.arange(n)
    jac[k, k] = 1.0
    jac[n + k, n + k] = 1.0
    fp_v, fp_t = jac[:n, 2 * n:3 * n], jac[:n, 3 * n:]
    fq_v, fq_t = jac[n:, 2 * n:3 * n], jac[n:, 3 * n:]
    fp_v[:] = -v[:, None] * a
    np.fill_diagonal(fp_v, -(av + v * gd))
    fp_t[:] = -vv * c
    np.fill_diagonal(fp_t, v * cv + v**2 * bd)
    fq_v[:] = -v[:, None] * c
    np.fill_diagonal(fq_v, -(cv - v * bd))
    fq_t[:] = vv * a
    np.fill_diagonal(fq_t, -(v * av - v**2 * gd))
    return jac


@dataclass(frozen=True, eq=False)
class PFSolution:
    state: SystemState
    iterations: int
    history: tuple[float, ...]


# Newton step budget of solve_power_flow.
MAX_ITER = 50


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
    columns of ``pf_residual`` and ``pf_jacobian``. The slack bus absorbs
    the power balance and PV reactive output is recovered after
    convergence. No line search or continuation: which solution branch is
    reached depends only on the start point, and failure is reported, not
    masked.
    """
    n = net.n_bus
    mask = free_mask_from_bus_types(net)
    free_v, free_t = mask[2 * n:3 * n], mask[3 * n:]
    rows = np.concatenate([np.flatnonzero(free_t), n + np.flatnonzero(free_v)])
    cols = np.concatenate([3 * n + np.flatnonzero(free_t),
                           2 * n + np.flatnonzero(free_v)])

    v = np.where(free_v, 1.0, [b.v_setpoint for b in net.buses])
    theta = np.where(free_t, 0.0, [b.theta_setpoint for b in net.buses])
    x = np.concatenate([p_gen, q_gen, v, theta])

    history: list[float] = []
    for iterations in range(MAX_ITER + 1):
        state = SystemState.from_flat(x, mask)
        mis = pf_residual(net, Y, state)[rows]
        err = np.abs(mis).max() if mis.size else 0.0
        history.append(err)
        if err <= pf_tol:
            break
        if iterations == MAX_ITER:
            raise NonConvergenceError("power flow did not converge",
                                      history, err)
        try:
            step = np.linalg.solve(
                pf_jacobian(net, Y, state)[np.ix_(rows, cols)], -mis)
        except np.linalg.LinAlgError as exc:
            raise SingularNewtonError(
                f"singular Newton matrix at iteration {iterations} "
                "(possible degeneracy of the flow equations)"
            ) from exc
        x[cols] += step

    # Recover generation at buses whose rows were left out of the Newton
    # system so the full residual vanishes identically.
    p_inj, q_inj = injections(Y, state.v, state.theta)
    state = SystemState(
        p_gen=np.where(free_t, state.p_gen, p_inj + net.p_load),
        q_gen=np.where(free_v, state.q_gen, q_inj + net.q_load),
        v=state.v, theta=state.theta, free_mask=mask)
    final = np.abs(pf_residual(net, Y, state)).max()
    if final > pf_tol:
        raise NonConvergenceError(
            "converged reduced system but full residual exceeds tolerance",
            history, final)
    return PFSolution(state=state, iterations=iterations, history=tuple(history))


def state_to_list(x: SystemState) -> list[float]:
    """Flat JSON form, (p_gen, q_gen, v, theta) order."""
    return [float(t) for t in x.flat()]


def state_from_list(values, net: Network) -> SystemState:
    """Inverse of state_to_list: a flat array of 4N finite numbers."""
    vec = [finite_number(t) for t in values] if isinstance(values, list) else None
    if vec is None or None in vec:
        raise CaseError("state must be a flat JSON array of finite numbers")
    if len(vec) != 4 * net.n_bus:
        raise CaseError(
            f"state vector must have length {4 * net.n_bus}, got {len(vec)}")
    return SystemState.from_flat(np.array(vec), free_mask_from_bus_types(net))
