"""LICQ rank testing and KKT multiplier computation and classification.

The active constraint Jacobian stacks the flow rows, the operational
equality rows and the active inequality rows, restricted to the free state
entries. Rank is determined from singular values with a relative tolerance
sigma_max * max(m, n) * ulp_scale so the smallest singular value doubles as
a degeneracy margin.

Multipliers y = (kappa, lambda, mu) solve the stationarity system
A^T y = -grad f in the least-squares sense; the left null space of A spans
the solution family. Sign convention: minimize f, g <= 0, mu >= 0,
grad f + kappa^T grad F + lambda^T grad h + mu^T grad g = 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .constraints import (ActiveSet, ConstraintSystem, active_set,
                          as_flat_state, row_labels)
from .netmodel import CostTerms
from .powerflow import pf_jacobian, state_index

DEFAULT_RANK_ULP_SCALE = 2.0 ** -52
DEFAULT_STAT_TOL = 1e-8


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

    @classmethod
    def from_terms(cls, terms: CostTerms, n_bus: int) -> "CostSpec":
        n = 4 * n_bus
        c2 = np.zeros(n)
        c1 = np.zeros(n)
        for var, bus, coef in terms.quadratic:
            c2[state_index(var, bus, n_bus)] += coef
        for var, bus, coef in terms.linear:
            c1[state_index(var, bus, n_bus)] += coef
        return cls(c2=c2, c1=c1)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.c2 * x + self.c1

    def scaled(self, factor: float) -> "CostSpec":
        return CostSpec(c2=factor * self.c2, c1=factor * self.c1)


def _rank_from_svals(svals: np.ndarray, shape: tuple[int, int],
                     ulp_scale: float) -> tuple[int, float, float]:
    """Rank, sigma_min and tolerance sigma_max * max(m, n) * ulp_scale from
    the descending singular values of an m x n matrix (0, inf, 0 if empty)."""
    if svals.size == 0:
        return 0, np.inf, 0.0
    tol = float(svals[0] * max(shape) * ulp_scale) if svals[0] > 0 else 0.0
    return int((svals > tol).sum()), float(svals[-1]), tol


def numerical_rank(matrix: np.ndarray, *, ulp_scale: float = DEFAULT_RANK_ULP_SCALE):
    """Singular-value rank with relative tolerance.

    Returns (rank, sigma_min, tol, singular_values); sigma_min is the
    smallest singular value of the matrix, not of the retained block.
    """
    svals = np.linalg.svd(matrix, compute_uv=False)
    return (*_rank_from_svals(svals, matrix.shape, ulp_scale), svals)


def active_stack(cs: ConstraintSystem, x):
    """Stacked active gradients over free columns plus row bookkeeping.

    Rows are ordered flow equalities (2N), operational equalities (I),
    active inequalities (|J|). Returns (A, labels, active, flat, mask).
    """
    flat, mask = as_flat_state(cs, x)
    act = active_set(cs, x)
    rows = list(pf_jacobian(cs.net, cs.Y, x)[:, mask]) if cs.has_flow else []
    rows += [h.gradient(flat)[mask] for h in cs.h_ops]
    rows += [cs.g_ops[j].gradient(flat)[mask] for j in act.indices]
    if rows:
        stack = np.vstack(rows)
    else:
        stack = np.zeros((0, int(mask.sum())))
    return stack, row_labels(cs, act.indices), act, flat, mask


def _coo(matrix: np.ndarray) -> dict:
    """Nonzero entries of a matrix as row-major COO triplets; a reader
    rebuilds it with ``a = np.zeros(shape); a[rows, cols] = values``.
    Exact zeros of either sign are left out."""
    rows, cols = np.nonzero(matrix)
    return {"shape": list(matrix.shape), "rows": rows.tolist(),
            "cols": cols.tolist(), "values": matrix[rows, cols].tolist()}


@dataclass(frozen=True, eq=False)
class CQReport:
    """LICQ verdict at one feasible point.

    ``sigma_min`` of the active Jacobian is the degeneracy margin: it is
    zero (below ``rank_tol``) exactly when the qualification fails.
    ``kkt`` is the multiplier set when the check was given a cost; it is
    not part of ``to_dict``.
    """

    active_jacobian: np.ndarray
    row_labels: tuple[str, ...]
    m: int
    n_free: int
    numerical_rank: int
    sigma_min: float
    rank_tol: float
    licq_holds: bool
    face: tuple[int, ...]
    kkt: MultiplierSet | None = None

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "n_free": self.n_free,
            "numerical_rank": self.numerical_rank,
            "sigma_min": self.sigma_min,
            "rank_tol": self.rank_tol,
            "licq_holds": self.licq_holds,
            "face": list(self.face),
            "row_labels": list(self.row_labels),
            "active_jacobian": _coo(self.active_jacobian),
        }


def licq_check(cs: ConstraintSystem, x, cost: CostSpec | None = None, *,
               stat_tol: float = DEFAULT_STAT_TOL,
               rank_ulp_scale: float = DEFAULT_RANK_ULP_SCALE) -> CQReport:
    """Rank test of the full active stack [grad F; grad h; grad g_J].

    This is the feasibility test of check, sweep and probe: an infeasible
    point raises InfeasiblePointError. The qualification holds iff the
    stack has full row rank over the free state entries. Without a cost
    only the singular values are computed. With one, a single SVD with
    vectors gives the rank and the multiplier set (``CQReport.kkt``, see
    ``kkt_solve``); U is full only when m > n, where the left null space
    reaches past the thin columns.
    """
    stack, labels, act, flat, mask = active_stack(cs, x)
    m, n = stack.shape
    kkt = None
    if cost is None:
        rank, smin, tol, _ = numerical_rank(stack, ulp_scale=rank_ulp_scale)
    else:
        u_mat, svals, vt = np.linalg.svd(stack, full_matrices=m > n)
        rank, smin, tol = _rank_from_svals(svals, stack.shape, rank_ulp_scale)
        kkt = _multiplier_set(cs, act, stack, cost.gradient(flat)[mask],
                              u_mat, svals, vt, rank, stat_tol)
    return CQReport(
        active_jacobian=stack,
        row_labels=tuple(labels),
        m=m,
        n_free=int(mask.sum()),
        numerical_rank=rank,
        sigma_min=smin,
        rank_tol=tol,
        licq_holds=rank == m,
        face=act.indices,
        kkt=kkt,
    )


class Classification(enum.Enum):
    NONE = "NONE"
    UNIQUE = "UNIQUE"
    RAY = "RAY"
    FAMILY = "FAMILY"


@dataclass(frozen=True, eq=False)
class MultiplierSet:
    """Solution set of the stationarity system at one feasible point.

    ``particular`` stacks (kappa, lambda, mu) for the active rows; for a
    one-dimensional family it is the vertex of the sign-feasible ray or
    segment and ``ray_direction``/``zeta_interval`` describe the family as
    particular + zeta * direction with zeta in the interval. Inactive
    inequalities carry no entry: complementary slackness is structural.
    """

    classification: Classification
    particular: np.ndarray
    kappa: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    active_indices: tuple[int, ...]
    nullspace_basis: np.ndarray
    stationarity_residual: float
    ray_direction: np.ndarray | None = None
    zeta_interval: tuple[float, float] | None = None
    family_dim: int = 0
    mu_sign_feasible: bool | None = None

    def to_dict(self) -> dict:
        def end(value: float):
            # infinite interval ends as strings; bare Infinity is not JSON
            if np.isposinf(value):
                return "inf"
            if np.isneginf(value):
                return "-inf"
            return float(value)

        return {
            "classification": self.classification.value,
            "family_dim": self.family_dim,
            "particular": self.particular.tolist(),
            "kappa": self.kappa.tolist(),
            "lambda": self.lam.tolist(),
            "mu": self.mu.tolist(),
            "active_indices": list(self.active_indices),
            "stationarity_residual": self.stationarity_residual,
            "ray_direction": None if self.ray_direction is None
            else self.ray_direction.tolist(),
            "zeta_interval": None if self.zeta_interval is None
            else [end(self.zeta_interval[0]), end(self.zeta_interval[1])],
            "nullspace_basis": self.nullspace_basis.tolist(),
            "mu_sign_feasible": self.mu_sign_feasible,
        }


def _mu_interval(y: np.ndarray, w: np.ndarray, first_mu: int):
    """Feasible zeta range keeping every mu component (rows first_mu on)
    of y + zeta*w >= 0."""
    lo, hi = -np.inf, np.inf
    feasible = True
    for i in range(first_mu, len(y)):
        wi, yi = w[i], y[i]
        if abs(wi) <= 1e-12:
            if yi < -1e-12:
                feasible = False
            continue
        bound = -yi / wi
        if wi > 0:
            lo = max(lo, bound)
        else:
            hi = min(hi, bound)
    if lo > hi:
        feasible = False
    return lo, hi, feasible


def kkt_solve(cs: ConstraintSystem, x, cost: CostSpec, *,
              stat_tol: float = DEFAULT_STAT_TOL,
              rank_ulp_scale: float = DEFAULT_RANK_ULP_SCALE) -> MultiplierSet:
    """Solve and classify the stationarity system at a feasible point: the
    multiplier set of ``licq_check`` with this cost."""
    return licq_check(cs, x, cost, stat_tol=stat_tol,
                      rank_ulp_scale=rank_ulp_scale).kkt


def _multiplier_set(cs: ConstraintSystem, act: ActiveSet, stack: np.ndarray,
                    grad_f: np.ndarray, u_mat: np.ndarray, svals: np.ndarray,
                    vt: np.ndarray, rank: int, stat_tol: float) -> MultiplierSet:
    """Solution set of stack^T y = -grad_f from the SVD of the stack.

    The SVD gives the least-squares particular solution and the left null
    space. Classification: NONE when the residual exceeds
    stat_tol * max(1, |grad_f|), relative to the cost's scale (the cost
    gradient leaves the row space); UNIQUE for an empty null space; RAY
    for a one-dimensional family, reported as vertex + zeta * direction
    with the exact sign-feasible zeta interval; FAMILY(dim) for
    higher-dimensional null spaces, whose sign feasibility is reported
    unresolved.
    """
    n2 = 2 * cs.net.n_bus if cs.has_flow else 0
    n_h = len(cs.h_ops)
    # Minimum-norm solution of stack^T y = -grad_f.
    coeffs = vt[:rank] @ (-grad_f) / svals[:rank]
    y_min = u_mat[:, :rank] @ coeffs
    resid = float(np.linalg.norm(stack.T @ y_min + grad_f))
    basis = u_mat[:, rank:]
    nullity = stack.shape[0] - rank

    def package(y, classification, **extra):
        return MultiplierSet(
            classification=classification, particular=y, kappa=y[:n2],
            lam=y[n2:n2 + n_h], mu=y[n2 + n_h:], active_indices=act.indices,
            nullspace_basis=basis, stationarity_residual=resid, **extra)

    if resid > stat_tol * max(1.0, float(np.linalg.norm(grad_f))):
        return package(y_min, Classification.NONE, family_dim=nullity)
    if nullity == 0:
        sign_ok = bool((y_min[n2 + n_h:] >= -1e-12).all())
        return package(y_min, Classification.UNIQUE, mu_sign_feasible=sign_ok)
    if nullity == 1:
        w = basis[:, 0]
        lo, hi, feasible = _mu_interval(y_min, w, n2 + n_h)
        if not feasible:
            return package(y_min, Classification.RAY, ray_direction=w,
                           family_dim=1, mu_sign_feasible=False)
        if np.isfinite(lo):
            vertex, direction, interval = y_min + lo * w, w, (0.0, hi - lo)
        elif np.isfinite(hi):
            vertex, direction, interval = y_min + hi * w, -w, (0.0, np.inf)
        else:
            vertex, direction, interval = y_min, w, (-np.inf, np.inf)
        return package(vertex, Classification.RAY, ray_direction=direction,
                       zeta_interval=interval, family_dim=1,
                       mu_sign_feasible=True)
    return package(y_min, Classification.FAMILY, family_dim=nullity)


def kkt_residual(cs: ConstraintSystem, x, cost: CostSpec,
                 multipliers: np.ndarray) -> float:
    """Independent stationarity check: || grad f + A^T y ||_2.

    Rebuilds the active gradient rows directly and accumulates the
    weighted sum without any factorization, so it verifies kkt_solve
    output through a separate code path.
    """
    flat, mask = as_flat_state(cs, x)
    act = active_set(cs, x)
    y = np.asarray(multipliers, dtype=float)
    n_rows = len(row_labels(cs, act.indices))
    if y.size != n_rows:
        raise ValueError(
            f"multiplier vector has {y.size} entries, active stack has "
            f"{n_rows} rows")
    total = cost.gradient(flat)[mask].astype(float)
    pos = 0
    if cs.has_flow:
        jac = pf_jacobian(cs.net, cs.Y, x)[:, mask]
        for row in jac:
            total += y[pos] * row
            pos += 1
    for h in cs.h_ops:
        total += y[pos] * h.gradient(flat)[mask]
        pos += 1
    for j in act.indices:
        total += y[pos] * cs.g_ops[j].gradient(flat)[mask]
        pos += 1
    return float(np.linalg.norm(total))
