"""LICQ rank testing and KKT multiplier computation and classification.

The active constraint Jacobian A stacks the flow rows, the operational
equality rows and the active inequality rows, restricted to the free state
entries. Rank is determined from singular values with a relative tolerance
sigma_max * max(m, n) * ulp_scale so the smallest singular value doubles as
a degeneracy margin; checks read ulp_scale from ConstraintSystem.

Multipliers y = (kappa, lambda, mu) solve the stationarity system
A^T y = -grad f in the least-squares sense (f a ``netmodel.CostSpec``);
the left null space of A spans the solution family. Sign convention:
minimize f, g <= 0, mu >= 0,
grad f + kappa^T grad F + lambda^T grad h + mu^T grad g = 0.

Both are decided on the reduced matrix R, not on A. The network's mask
frees every generation entry, so the 2N flow rows are the pivot rows: their
first 2N free columns, dF/d(p_gen, q_gen), are I. With the flow rows
[I, X] and the operational rows [O_g, O_z] (generation columns first, then
the rest z), one column and one row elimination turn A into diag(I_p, R)
with p = 2N and R = O_z - O_g X, so rank(A) = p + rank(R): LICQ asks
whether the operational rows meet the flow manifold transversally. Where R
has no rows nothing is factored: A = [I, X] has rank p by structure, and a
check without a cost then assembles A only for a report it builds.

A is held sparse, as row-major COO triplets (``Stacks``), from the plan of
its flow rows, made once per network (``Network.stack_plan``), to the
report, so a check pays for A's nonzeros. Dense blocks X and O are built
only where R has rows, for the product R = O_z - O_g X and the reduced
solution; the stationarity residual is summed over the triplets.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .constraints import (ConstraintSystem, InfeasiblePointError, active_set,
                          active_sets, as_flat_state, point_block, row_labels)
from .netmodel import CaseError, CostSpec
from .powerflow import pf_jacobian


def _rank_from_svals(svals: np.ndarray, shape: tuple[int, int],
                     ulp_scale: float):
    """Rank, sigma_min and tolerance sigma_max * max(m, n) * ulp_scale from
    the descending singular values of an m x n matrix (0, inf, 0 if empty).
    For a stack of k such matrices (``svals`` k x s) the three are lists of
    k values, each the value of its row alone."""
    if svals.shape[-1] == 0:
        k = svals.shape[:-1]
        return (np.zeros(k, int).tolist(), np.full(k, np.inf).tolist(),
                np.zeros(k).tolist())
    top = svals[..., 0]
    tol = np.where(top > 0, top * max(shape) * ulp_scale, 0.0)
    rank = (svals > tol[..., None]).sum(axis=-1)
    return rank.tolist(), svals[..., -1].tolist(), tol.tolist()


def numerical_rank(matrix: np.ndarray, *,
                   ulp_scale: float = ConstraintSystem.rank_ulp_scale):
    """Singular-value rank with relative tolerance.

    Returns (rank, sigma_min, tol, singular_values); sigma_min is the
    smallest singular value of the matrix, not of the retained block.
    """
    svals = np.linalg.svd(matrix, compute_uv=False)
    return (*_rank_from_svals(svals, matrix.shape, ulp_scale), svals)


class Stacks(NamedTuple):
    """Active stacks as row-major COO triplets: entry (rows[e], cols[e])
    of a stack of ``shape`` is ``values[..., e]``, one value per point
    along the leading axes of ``values`` (none for one stack), and every
    other entry is +0.0. A pattern may hold explicit zeros of either sign,
    so the dense stacks, built only by ``dense``, are bitwise the
    assembled ones."""

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def point(self, j: int) -> "Stacks":
        """The stack of point j of a block."""
        return self._replace(values=self.values[j])

    def dense(self) -> np.ndarray:
        """The stacks as C-contiguous arrays, ``values.shape[:-1] +
        shape``."""
        out = np.zeros(self.values.shape[:-1] + self.shape)
        out[..., self.rows, self.cols] = self.values
        return out

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """A^T y of one stack A, summed over its entries."""
        return np.bincount(self.cols, self.values * y[self.rows],
                           minlength=self.shape[1])

    def to_dict(self) -> dict:
        """Nonzero entries of one stack as row-major COO triplets; a
        reader rebuilds it with ``a = np.zeros(shape); a[rows, cols] =
        values``. Exact zeros of either sign are left out."""
        keep = np.flatnonzero(self.values)
        return {"shape": list(self.shape), "rows": self.rows[keep].tolist(),
                "cols": self.cols[keep].tolist(),
                "values": self.values[keep].tolist()}


def face_stacks(cs: ConstraintSystem, flats: np.ndarray, g: np.ndarray,
                b: np.ndarray, face) -> Stacks:
    """Stacks of k points over the free columns, with the rows of the g
    indices in ``face`` active: the flow rows of their line lists g and b
    (k x (M + N)) from the network's ``stack_plan``, then every h
    gradient, then the face's g gradients (``Constraints.gradients``),
    row-major, each free entry kept that is not +0.0 at some point; a
    point's entries do not depend on the others."""
    rows, cols, fill = cs.net.stack_plan
    values = fill(g, b, flats, np.empty((flats.shape[0], rows.size)))
    mask = cs.net.free_mask
    p = 2 * cs.net.n_bus
    shape = (p + cs.h.size + len(face), int(np.count_nonzero(mask)))
    if shape[0] == p:
        return Stacks(shape, rows, cols, values)
    h, ineq = cs.h.gradients(flats), cs.g.take(face).gradients(flats)
    at_r = np.concatenate((h[0], cs.h.size + ineq[0]))
    at_c = np.concatenate((h[1], ineq[1]))
    grads = np.concatenate((h[2], ineq[2]), axis=1)
    keep = np.flatnonzero(mask[at_c]
                          & ((grads != 0) | np.signbit(grads)).any(axis=0))
    keep = keep[np.lexsort((at_c[keep], at_r[keep]))]
    free = np.cumsum(mask) - 1  # the free column of each state entry
    return Stacks(shape, np.concatenate((rows, p + at_r[keep])),
                  np.concatenate((cols, free[at_c[keep]])),
                  np.concatenate((values, grads[:, keep]), axis=1))


def active_stack(cs: ConstraintSystem, x):
    """Stacked active gradients over free columns plus row bookkeeping at
    one point: (A, labels, face, flat, mask), A dense and ``mask`` the
    network's ``free_mask``; the ``face_stacks`` of its ``active_set``."""
    face, flat = active_set(cs, x), as_flat_state(cs, x)
    return (face_stacks(cs, flat[None], *cs.net.admittances, face).dense()[0],
            row_labels(cs, face), face, flat, cs.net.free_mask)


@dataclass(frozen=True, eq=False)
class CQReport:
    """LICQ verdict at one feasible point.

    ``sigma_min`` is the degeneracy margin, the smallest singular value of
    diag(I_2N, R) (see the module docstring): min(1, sigma_min(R)), exactly
    1.0 when R has no rows. It is zero (below ``rank_tol``) exactly when the
    qualification fails. ``rank_tol`` is that matrix's
    sigma_max * max(m, n) * ulp_scale, with A's shape.
    ``stack`` is the active stack A as triplets (``Stacks``);
    ``active_jacobian`` is A densified from ``stack`` when read;
    ``to_dict`` writes the triplets unless told not to. ``kkt`` is the
    multiplier set when the check was given a cost; it is not part of
    ``to_dict``.
    """

    stack: Stacks = field(repr=False)
    row_labels: tuple[str, ...]
    m: int
    n_free: int
    numerical_rank: int
    sigma_min: float
    rank_tol: float
    licq_holds: bool
    face: tuple[int, ...]
    kkt: MultiplierSet | None = None

    @cached_property
    def active_jacobian(self) -> np.ndarray:
        return self.stack.dense()

    def to_dict(self, *, jacobian: bool = True) -> dict:
        """The verdict and its sizes, and with ``jacobian`` the active
        stack as ``active_jacobian`` triplets (``Stacks.to_dict``)."""
        out = {
            "m": self.m,
            "n_free": self.n_free,
            "numerical_rank": self.numerical_rank,
            "sigma_min": self.sigma_min,
            "rank_tol": self.rank_tol,
            "licq_holds": self.licq_holds,
            "face": list(self.face),
            "row_labels": list(self.row_labels),
        }
        if jacobian:
            out["active_jacobian"] = self.stack.to_dict()
        return out


class Verdicts(NamedTuple):
    """``licq_checks`` on a block as arrays: feasibility, then at feasible
    points the rank, sigma_min, rank_tol and verdict of their CQReports,
    which ``report(i)`` builds, or point i's InfeasiblePointError."""

    feasible: np.ndarray
    rank: np.ndarray
    sigma_min: np.ndarray
    rank_tol: np.ndarray
    licq_holds: np.ndarray
    report: Callable


def licq_checks(cs: ConstraintSystem, flats: np.ndarray, flow,
                cost: CostSpec | None = None) -> Verdicts:
    """``licq_check`` at each point of a block (see ``evaluate_points``),
    as ``Verdicts``. Each face group of ``active_sets`` is decided on the
    singular values of diag(I_p, R) (module docstring), m = p + r rows over
    n free columns. It assembles its stacks as triplets only with a cost or
    where R has rows, else ``report(i)`` assembles point i's. Where R has
    rows, the dense stacks give R with one batched matmul, and one batched
    SVD factors them, values only without a cost, thin with one. Where R
    has none nothing is factored, and a cost's multipliers are -grad f on
    the flow rows, with an empty null space."""
    feasible, faces, infeasible = active_sets(cs, flats, flow)
    p = 2 * cs.net.n_bus
    n = int(np.count_nonzero(cs.net.free_mask))
    rank, holds = np.zeros(len(flats), int), np.zeros(len(flats), bool)
    sigma_min, rank_tol = np.zeros((2, len(flats)))
    kkts = {}  # multiplier sets by point
    groups = []  # (points, face, their stacks or None)
    for face, points in faces.items():
        r = cs.h.size + len(face)
        k, m = len(points), p + r
        block = (face_stacks(cs, flats[points], flow[0][points],
                             flow[1][points], face)
                 if cost is not None or r else None)
        if cost is not None:
            grads = cost.gradient(flats[points])[:, cs.net.free_mask]
        if r == 0:
            svals = np.zeros((k, 0))
        else:
            # contiguous copies: the BLAS calls round as on assembled
            # matrices
            stacks = block.dense()
            x_mats = stacks[:, :p, p:].copy()
            o_rows = stacks[:, p:].copy()
            r_mats = o_rows[:, :, p:] - o_rows[:, :, :p] @ x_mats
            if cost is None:
                svals = np.linalg.svd(r_mats, compute_uv=False)
            else:
                u_mats, svals, vts = np.linalg.svd(
                    r_mats, full_matrices=r > r_mats.shape[2])
        # singular values of diag(I_p, R), descending
        merged = np.sort(np.concatenate((np.ones((k, p)), svals), axis=1),
                         axis=1)[:, ::-1]
        ranks, smins, tols = _rank_from_svals(merged, (m, n),
                                              cs.rank_ulp_scale)
        rank[points], sigma_min[points], rank_tol[points] = ranks, smins, tols
        holds[points] = rank[points] == m
        groups.append((points, face, block))
        for j in range(k if cost is not None else 0):
            # a cost too large for the point is rejected by
            # _multiplier_set, not warned about on the way
            with np.errstate(over="ignore", invalid="ignore"):
                if r:
                    y, basis = _reduced_solution(
                        o_rows[j], grads[j], x_mats[j], u_mats[j], svals[j],
                        vts[j], int((svals[j] > tols[j]).sum()))
                else:
                    # A = [I, X] has full row rank: -grad f on the
                    # generation columns solves it, and its left null
                    # space is empty
                    y, basis = -grads[j, :p], np.zeros((p, 0))
                kkts[int(points[j])] = _multiplier_set(
                    cs, face, block.point(j), grads[j], y, basis)

    def report(i: int):
        if not feasible[i]:
            return infeasible(i)
        points, face, block = next(g for g in groups if i in g[0])
        j = int(np.flatnonzero(points == i)[0])
        labels = tuple(row_labels(cs, face))
        return CQReport(
            stack=(block.point(j) if block is not None else face_stacks(
                cs, flats[[i]], flow[0][[i]], flow[1][[i]], face).point(0)),
            row_labels=labels, m=len(labels), n_free=n,
            numerical_rank=int(rank[i]), sigma_min=float(sigma_min[i]),
            rank_tol=float(rank_tol[i]), licq_holds=bool(holds[i]),
            face=face, kkt=kkts.get(i))

    return Verdicts(feasible, rank, sigma_min, rank_tol, holds, report)


def licq_check(cs: ConstraintSystem, x, cost: CostSpec | None = None) -> CQReport:
    """Rank test of the full active stack [grad F; grad h; grad g_J].

    This is the feasibility test of check, sweep and probe: an infeasible
    point raises InfeasiblePointError. The qualification holds iff the
    stack has full row rank over the free state entries, decided as
    p + rank(R) (module docstring). Without a cost only R's singular values
    are computed. With one, R's thin SVD also gives the multiplier set
    (``CQReport.kkt``, see ``kkt_solve``); its U is full only when R has
    more rows than columns, where the left null space reaches past its
    thin columns. See ``CQReport`` for ``sigma_min`` and ``rank_tol``. The
    one-trial call of ``licq_checks``.
    """
    report = licq_checks(cs, *point_block(cs, x), cost).report(0)
    if isinstance(report, InfeasiblePointError):
        raise report
    return report


class Classification(enum.Enum):
    NONE = "NONE"
    UNIQUE = "UNIQUE"
    RAY = "RAY"
    FAMILY = "FAMILY"


@dataclass(frozen=True, eq=False)
class MultiplierSet:
    """Solution set of the stationarity system at one feasible point.

    ``particular`` stacks (kappa, lambda, mu) for the active rows; at NONE
    it is the reduced least-squares solution (see ``_reduced_solution``),
    otherwise the minimum-norm one; for a one-dimensional family it is the vertex of the sign-feasible ray or
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


def _mu_interval(y: np.ndarray, w: np.ndarray, first_mu: int,
                 sign_tol: float):
    """Feasible zeta range keeping every mu component (rows first_mu on)
    of y + zeta*w >= 0; a mu that w leaves fixed may sit sign_tol below
    zero."""
    lo, hi = -np.inf, np.inf
    feasible = True
    for i in range(first_mu, len(y)):
        wi, yi = w[i], y[i]
        if abs(wi) <= 1e-12:
            if yi < -sign_tol:
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


def kkt_solve(cs: ConstraintSystem, x, cost: CostSpec) -> MultiplierSet:
    """Solve and classify the stationarity system at a feasible point: the
    multiplier set of ``licq_check`` with this cost."""
    return licq_check(cs, x, cost).kkt


def _reduced_solution(o_rows: np.ndarray, grad_f: np.ndarray,
                      x_mat: np.ndarray, u_mat: np.ndarray, svals: np.ndarray,
                      vt: np.ndarray, rank: int):
    """Least-squares multipliers y of A^T y = -grad_f and an orthonormal
    basis of the left null space of the stack A = [I, X; O_g, O_z] from
    ``o_rows`` = [O_g, O_z], X and the thin SVD u_mat, svals, vt of R,
    where R has rows.

    nu, on the operational rows, is the minimum-norm least-squares solution
    of R^T nu = -(grad_z f - X^T grad_g f), and kappa = -grad_g f - O_g^T nu
    on the flow rows, which leaves no residual in the generation columns.
    The null space is {(-O_g^T w, w) : R^T w = 0}; its lifted basis has a
    Gram matrix I + (O_g^T W)^T (O_g^T W), which is well conditioned, so a
    Cholesky factor orthonormalizes it.
    """
    p = x_mat.shape[0]
    o_g = o_rows[:, :p]
    grad_g = grad_f[:p]
    nu = u_mat[:, :rank] @ (vt[:rank] @ (x_mat.T @ grad_g - grad_f[p:])
                            / svals[:rank])
    w = u_mat[:, rank:]
    y = np.concatenate((-grad_g - o_g.T @ nu, nu))
    lifted = np.concatenate((-o_g.T @ w, w))
    chol = np.linalg.cholesky(lifted.T @ lifted)
    return y, np.linalg.solve(chol, lifted.T).T


def _multiplier_set(cs: ConstraintSystem, face: tuple[int, ...],
                    stack: Stacks, grad_f: np.ndarray, y: np.ndarray,
                    basis: np.ndarray) -> MultiplierSet:
    """Solution set of stack^T y = -grad_f from a least-squares solution y
    and an orthonormal basis of the stack's left null space.

    The residual |stack^T y + grad_f| is taken from the stack's triplets,
    a sum over its entries (``Stacks.rmatvec``). Outside NONE
    the particular solution is the minimum-norm one, y - B B^T y. Both
    tolerances are relative to the cost's scale s = max(1, |grad_f|), as
    the multipliers scale with the cost, and a CaseError rejects a y, a
    residual or a scale past the float range. Classification: NONE when the
    residual exceeds cs.stat_tol * s (the cost gradient leaves the row space),
    reported with y itself; UNIQUE for an empty null space, sign feasible
    when every mu is at least -1e-12 * s; RAY for a one-dimensional family,
    reported as vertex + zeta * direction with the exact sign-feasible zeta
    interval (same sign tolerance); FAMILY(dim) for higher-dimensional null
    spaces, whose sign feasibility is reported unresolved.
    """
    n2 = 2 * cs.net.n_bus
    n_h = cs.h.size
    resid = float(np.linalg.norm(stack.rmatvec(y) + grad_f))
    nullity = basis.shape[1]

    def package(y, classification, **extra):
        return MultiplierSet(
            classification=classification, particular=y, kappa=y[:n2],
            lam=y[n2:n2 + n_h], mu=y[n2 + n_h:], active_indices=face,
            nullspace_basis=basis, stationarity_residual=resid, **extra)

    scale = max(1.0, float(np.linalg.norm(grad_f)))
    if not (np.isfinite(y).all() and np.isfinite(resid) and np.isfinite(scale)):
        raise CaseError("cost: its multipliers at this point leave the float "
                        "range; the cost's coefficients are too large")
    sign_tol = 1e-12 * scale
    if resid > cs.stat_tol * scale:
        return package(y, Classification.NONE, family_dim=nullity)
    y_min = y - basis @ (basis.T @ y)
    if nullity == 0:
        sign_ok = bool((y_min[n2 + n_h:] >= -sign_tol).all())
        return package(y_min, Classification.UNIQUE, mu_sign_feasible=sign_ok)
    if nullity == 1:
        w = basis[:, 0]
        lo, hi, feasible = _mu_interval(y_min, w, n2 + n_h, sign_tol)
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

    Rebuilds the active stack with its flow rows replaced by the dense
    ``pf_jacobian`` (of ``build_ybus``) and accumulates the weighted sum
    row by row without any factorization, so it verifies kkt_solve output
    through a separate code path.
    """
    flat, mask = as_flat_state(cs, x), cs.net.free_mask
    stack = face_stacks(cs, flat[None], *cs.net.admittances,
                        active_set(cs, x)).dense()[0]
    stack[:2 * cs.net.n_bus] = pf_jacobian(cs.net, x)[:, mask]
    y = np.asarray(multipliers, dtype=float)
    if y.size != len(stack):
        raise ValueError(
            f"multiplier vector has {y.size} entries, active stack has "
            f"{len(stack)} rows")
    total = cost.gradient(flat)[mask].astype(float)
    for weight, row in zip(y, stack):
        total += weight * row
    return float(np.linalg.norm(total))
