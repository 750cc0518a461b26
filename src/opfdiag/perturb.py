"""Parameter perturbation models, rank hypothesis checks and Monte Carlo
genericity experiments.

Three perturbation models are supported: fixed loads at every bus (2N
parameters), lumped nodal shunt admittances (2N parameters) and series
line parameters (2M parameters). Each model knows the derivative of the
flow residual with respect to its parameter vector; full rank 2N of that
derivative is the hypothesis under which qualification failures are
confined to a measure-zero parameter set.

Shunt convention: the parameter vector stacks the lumped conductances and
the *negated* lumped susceptances, so the parameter Jacobian is
-diag(v^2) on both blocks. Negation is a diffeomorphic reparametrization
and leaves every rank and measure statement untouched.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import constraints as con
from . import cqkit
from ._jsontext import dumps
# build_ybus stays one of this module's names: the benchmark's tracer wraps
# perturb.build_ybus.
from .netmodel import Case, Network, admittance_stack, build_ybus
from .powerflow import (MAX_ITER, PowerFlowError, SystemState, newton_states,
                        solve_power_flow)


class PerturbationError(ValueError):
    pass


class ModelKind(enum.Enum):
    LOAD = "load"
    SHUNT = "shunt"
    LINE = "line"


@dataclass(frozen=True, eq=False)
class PerturbationModel:
    """Sampling box over a parameter space attached to one model kind.

    ``box`` is a (k, 2) array of closed intervals; sampling is uniform on
    the interior, which must have positive volume.
    """

    kind: ModelKind
    box: np.ndarray

    def __post_init__(self) -> None:
        box = np.asarray(self.box, dtype=float)
        if box.ndim != 2 or box.shape[1] != 2:
            raise PerturbationError("box must be a (k, 2) array of intervals")
        if not (box[:, 1] > box[:, 0]).all():
            raise PerturbationError(
                "sampling box must have positive volume in every coordinate")
        box.setflags(write=False)
        object.__setattr__(self, "box", box)

    @property
    def dimension(self) -> int:
        return self.box.shape[0]


# Every sampling box is nominal +/- BOX_REL * |nominal|, with an absolute
# half-width BOX_FLOOR for zero-nominal components (a zero-width interval
# has no volume).
BOX_REL = 0.1
BOX_FLOOR = 0.1


def _interval_box(nominal: np.ndarray) -> np.ndarray:
    half = BOX_REL * np.abs(nominal)
    half[half == 0.0] = BOX_FLOOR
    return np.column_stack([nominal - half, nominal + half])


def _add_half_line_shunts(net: Network, g: np.ndarray,
                          b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Add half of each line's shunt to both end buses of g and b in place,
    line by line in case order, the from bus first."""
    for y, shunt in ((g, net.g_line_shunt), (b, net.b_line_shunt)):
        np.add.at(y, net.line_ends.ravel(), np.repeat(shunt / 2.0, 2))
    return g, b


def lumped_shunts(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """Per-bus lumped shunt admittance: bus shunt plus half of each
    incident line shunt."""
    return _add_half_line_shunts(net, net.g_shunt.copy(), net.b_shunt.copy())


def load_model(case: Case) -> PerturbationModel:
    nominal = np.concatenate([case.network.p_load, case.network.q_load])
    return PerturbationModel(ModelKind.LOAD, _interval_box(nominal))


def shunt_model(case: Case) -> PerturbationModel:
    g, b = lumped_shunts(case.network)
    nominal = np.concatenate([g, -b])
    return PerturbationModel(ModelKind.SHUNT, _interval_box(nominal))


def line_model(case: Case) -> PerturbationModel:
    nominal = np.concatenate([case.network.g_series, case.network.b_series])
    return PerturbationModel(ModelKind.LINE, _interval_box(nominal))


def make_model(kind: ModelKind | str, case: Case) -> PerturbationModel:
    kind = ModelKind(kind) if not isinstance(kind, ModelKind) else kind
    builder = {ModelKind.LOAD: load_model, ModelKind.SHUNT: shunt_model,
               ModelKind.LINE: line_model}[kind]
    return builder(case)


# ---------------------------------------------------------------------------
# Parameter Jacobians
# ---------------------------------------------------------------------------

def _expect_dimension(model: PerturbationModel, net: Network) -> None:
    expected = {ModelKind.LOAD: 2 * net.n_bus, ModelKind.SHUNT: 2 * net.n_bus,
                ModelKind.LINE: 2 * net.n_line}[model.kind]
    if model.dimension != expected:
        raise PerturbationError(
            f"{model.kind.value} model of dimension {model.dimension} does "
            f"not match network (expected {expected})")


def param_jacobian(model: PerturbationModel, net: Network,
                   x: SystemState) -> np.ndarray:
    """Derivative of the flow residual with respect to the model's
    parameter vector, a 2N x k matrix.

    LOAD: exactly -I_2N (the residual carries the loads with a minus
    sign). SHUNT: -diag(v^2) on both diagonal blocks under the negated
    susceptance convention. LINE: analytic derivative with respect to each
    series (g, b) pair; a line's columns touch only the rows of its two
    endpoints.
    """
    _expect_dimension(model, net)
    n = net.n_bus
    if model.kind is ModelKind.LOAD:
        return -np.eye(2 * n)
    if model.kind is ModelKind.SHUNT:
        jac = np.zeros((2 * n, 2 * n))
        jac[:n, :n] = -np.diag(x.v ** 2)
        jac[n:, n:] = -np.diag(x.v ** 2)
        return jac
    m = net.n_line
    jac = np.zeros((2 * n, 2 * m))
    k, l = net.line_ends.T
    rows, cols = np.stack((k, l, n + k, n + l)), np.arange(m)
    ckl = np.cos(x.theta[k] - x.theta[l])
    skl = np.sin(x.theta[k] - x.theta[l])
    # float_power is libm's pow, as ** on one float is; ** 2 on an array
    # squares, which differs in the last bit
    vkl = x.v[k] * x.v[l]
    vk2, vl2 = np.float_power(x.v[k], 2), np.float_power(x.v[l], 2)
    jac[rows, cols] = (vkl * ckl - vk2, vkl * ckl - vl2, vkl * skl, -vkl * skl)
    jac[rows, m + cols] = (vkl * skl, -vkl * skl, vk2 - vkl * ckl,
                           vl2 - vkl * ckl)
    return jac


@dataclass(frozen=True)
class RankHypothesisReport:
    kind: ModelKind
    rank: int
    required: int
    satisfied: bool
    voltage_premise_ok: bool | None = None

    def to_dict(self) -> dict:
        return {
            "model": self.kind.value,
            "rank": self.rank,
            "required": self.required,
            "satisfied": self.satisfied,
            "voltage_premise_ok": self.voltage_premise_ok,
        }


def check_rank_hypothesis(model: PerturbationModel, cs: con.ConstraintSystem,
                          x: SystemState) -> RankHypothesisReport:
    """Rank of the parameter Jacobian at ``cs.rank_ulp_scale`` against 2N.

    The singular values of the LOAD and SHUNT Jacobians are known by
    structure (``param_jacobian``): 2N ones, and each v^2 twice; only the
    LINE Jacobian is factored. For the shunt model the premise
    min_k v_k > 0 is reported alongside; it is exactly what full rank
    hinges on.
    """
    net = cs.net
    _expect_dimension(model, net)
    if model.kind is ModelKind.LOAD:
        svals = np.ones(2 * net.n_bus)
    elif model.kind is ModelKind.SHUNT:
        svals = np.sort(np.tile(x.v ** 2, 2))[::-1]
    else:
        svals = np.linalg.svd(param_jacobian(model, net, x), compute_uv=False)
    rank, _, _ = cqkit._rank_from_svals(svals, (2 * net.n_bus, model.dimension),
                                        cs.rank_ulp_scale)
    premise = bool(x.v.min() > 0.0) if model.kind is ModelKind.SHUNT else None
    return RankHypothesisReport(kind=model.kind, rank=rank,
                                required=2 * net.n_bus,
                                satisfied=rank == 2 * net.n_bus,
                                voltage_premise_ok=premise)


# ---------------------------------------------------------------------------
# Applying a parameter draw to a case
# ---------------------------------------------------------------------------

def apply_parameters(model: PerturbationModel, case: Case,
                     xi: np.ndarray) -> Case:
    """New case with the drawn parameter vector written into the network's
    columns."""
    _expect_dimension(model, case.network)
    net = case.network
    n, m = net.n_bus, net.n_line
    if model.kind is ModelKind.LOAD:
        columns = {"p_load": xi[:n], "q_load": xi[n:]}
    elif model.kind is ModelKind.SHUNT:
        # remove the half line-shunt contribution so the lumped value
        # lands exactly on the target
        g_line, b_line = _add_half_line_shunts(net, np.zeros(n), np.zeros(n))
        columns = {"g_shunt": xi[:n] - g_line, "b_shunt": -xi[n:] - b_line}
    else:
        columns = {"g_series": xi[:m], "b_series": xi[m:]}
    return replace(case, network=replace(net, **columns))


# ---------------------------------------------------------------------------
# Monte Carlo genericity experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialRecord:
    trial: int
    converged: bool
    feasible: bool
    licq_holds: bool | None
    sigma_min: float | None


@dataclass(frozen=True, eq=False)
class GenericityReport:
    """Aggregate of one Monte Carlo run.

    Each trial draws a parameter vector, re-solves the flow feasibility
    problem from the case's setpoints (one feasible point per draw; the
    full feasible set is not explored) and, when the operational
    constraints are met, runs the qualification check. Trials are columns
    (``licq`` and ``sigma_min`` set where ``feasible``); ``records`` is
    built from them when read. Failures are kept with their draw for replay.
    """

    trials: int
    rng_seed: int
    model_kind: str
    box: np.ndarray
    converged: np.ndarray
    feasible: np.ndarray
    licq: np.ndarray
    sigma_min: np.ndarray
    failures: tuple[dict, ...]
    hypothesis: RankHypothesisReport | None
    tolerances: dict

    @cached_property
    def records(self) -> tuple[TrialRecord, ...]:
        cols = zip(self.converged.tolist(), self.feasible.tolist(),
                   self.licq.tolist(), self.sigma_min.tolist())
        return tuple(TrialRecord(t, c, f, licq if f else None,
                                 smin if f else None)
                     for t, (c, f, licq, smin) in enumerate(cols))

    @property
    def feasible_count(self) -> int:
        return int(np.count_nonzero(self.feasible))

    @property
    def licq_pass_count(self) -> int:
        return int(np.count_nonzero(self.licq))

    @property
    def sigma_min_sorted(self) -> tuple[float, ...]:
        return tuple(np.sort(self.sigma_min[self.feasible],
                             kind="stable").tolist())

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "rng_seed": self.rng_seed,
            "model": self.model_kind,
            "box": self.box.tolist(),
            "feasible_count": self.feasible_count,
            "licq_pass_count": self.licq_pass_count,
            "licq_failure_count": self.feasible_count - self.licq_pass_count,
            "sigma_min_sorted": list(self.sigma_min_sorted),
            "hypothesis": None if self.hypothesis is None
            else self.hypothesis.to_dict(),
            "failures": list(self.failures),
            "tolerances": self.tolerances,
            "scope": ("one feasible point per draw, produced from the case "
                      "setpoints; the feasible set is sampled, not enumerated"),
        }

    def to_json(self) -> str:
        return dumps(self.to_dict())

    def to_csv(self) -> str:
        seed = self.rng_seed
        rows = [f"{t},{seed},1,{int(licq)},{smin!r}\n" if f
                else f"{t},{seed},0,,\n" for t, f, licq, smin in zip(
                    range(self.trials), self.feasible.tolist(),
                    self.licq.tolist(), self.sigma_min.tolist())]
        return "".join(["trial,seed,feasible,licq,sigma_min\n", *rows])


# Byte budget of a Monte Carlo block, counted over the arrays each of its
# trials holds (``_block_size``).
BLOCK_JACOBIAN_BYTES = 1 << 21


def _block_size(net: Network) -> int:
    """Trials of one Monte Carlo block on ``net``: as many as fit
    ``BLOCK_JACOBIAN_BYTES`` share one stacked Newton solve and one batched
    check. A trial holds, at 8 bytes an entry, its Newton matrix of order
    m, in band storage m (2 kl + ku + 1) or dense m^2
    (``powerflow._newton_system``); its flow data, the line lists g and b
    (2 (M + N)) and the loads (2N); its state (4N); and its mismatch
    history (``MAX_ITER`` + 1). A check whose reduced matrix has no rows
    assembles no stack (``cqkit.licq_checks``). That is about 3600 trials
    on two buses, so a 1000-trial sweep of a two-bus fixture is one block,
    35 on the 8 x 8 lattice and one on the 24 x 24 lattice."""
    n, lines = net.n_bus, net.n_line
    _, cols, band, _ = net.newton_system
    m = cols.size
    newton = m * m if band is None else m * (2 * band[0] + band[1] + 1)
    entries = newton + 2 * (lines + n) + 2 * n + 4 * n + MAX_ITER + 1
    return max(1, BLOCK_JACOBIAN_BYTES // (8 * entries))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# the PCG64 multiplier (pcg64.h) as 64-bit halves. Arrays are uint32 in
# the hash and uint64 in PCG64, where products wrap as in C.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = 16
_POOL_SIZE = 4
_LOW32 = 0xFFFFFFFF
_PCG_MULT_HI = np.uint64(2549297995355413924)
_PCG_MULT_LO = np.uint64(4865540595714422341)
# 32-bit halves of _PCG_MULT_LO, split on Python ints: every operation in
# the kernel then has an array operand, whose dtype numpy keeps
_PCG_MULT_LO0 = np.uint64(4865540595714422341 & _LOW32)
_PCG_MULT_LO1 = np.uint64(4865540595714422341 >> 32)


def _hasher(init: int, mult: int):
    """SeedSequence's ``hashmix`` on uint32 arrays. Its hash constant
    advances by the same steps for every trial, so it is a Python int."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _LOW32
        value = value * np.uint32(const)
        return value ^ value >> _XSHIFT
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ r >> _XSHIFT


def _seed_pool(seed: int, ts: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence([seed, t]).pool`` of every trial t < 2**32 of ``ts``,
    as four uint32 arrays. The entropy words are those of ``seed``, low
    word first (one word 0 for seed 0), then t."""
    words = [seed & _LOW32]
    while seed >> 32 * len(words):
        words.append(seed >> 32 * len(words) & _LOW32)
    entropy = [np.full(len(ts), w, np.uint32) for w in words]
    entropy.append(ts.astype(np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy)
                    else np.zeros(len(ts), np.uint32))
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    # entropy words past the pool's size are mixed into every pool word
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool


def _generate_state(pool: list[np.ndarray]) -> list[np.ndarray]:
    """``generate_state(4, np.uint64)`` of the pools: four uint64 arrays,
    each word paired from two uint32 words, low word first."""
    hashmix = _hasher(_INIT_B, _MULT_B)
    words = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64)
             for i in range(2 * _POOL_SIZE)]
    return [lo | hi << 32 for lo, hi in zip(words[::2], words[1::2])]


def _add128(hi, lo, add_hi, add_lo):
    """(hi, lo) + (add_hi, add_lo) mod 2**128 on uint64 arrays."""
    lo = lo + add_lo
    return hi + add_hi + (lo < add_lo), lo


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, state * multiplier + inc mod 2**128, on (hi, lo)
    uint64 arrays. The high word of lo * multiplier's low half is summed
    from 32-bit halves, whose products fit 64 bits."""
    lo0, lo1 = lo & _LOW32, lo >> 32
    m0, m1 = _PCG_MULT_LO0, _PCG_MULT_LO1
    mid = lo1 * m0 + (lo0 * m0 >> 32)
    carry = ((mid & _LOW32) + lo0 * m1) >> 32
    hi = (lo1 * m1 + (mid >> 32) + carry
          + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI)
    return _add128(hi, lo * _PCG_MULT_LO, inc_hi, inc_lo)


def _pcg64_seeded(seed: int, ts: np.ndarray):
    """State and increment of ``PCG64(SeedSequence([seed, t]))`` for every
    t of ``ts``, as (hi, lo) uint64 arrays. With the initial state and
    sequence from ``generate_state``, inc = (sequence << 1) | 1; PCG64
    steps state 0, adds the initial state and steps again, and state 0
    steps to inc."""
    s_hi, s_lo, i_hi, i_lo = _generate_state(_seed_pool(seed, ts))
    inc_hi, inc_lo = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
    hi, lo = _pcg_step(*_add128(inc_hi, inc_lo, s_hi, s_lo), inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def _check_sweep(seed: int, trials: int) -> None:
    """A sweep's seed and trial count: both non-negative, and at most
    2**32 trials, since a trial is one entropy word."""
    if seed < 0:
        raise PerturbationError(f"seed must be non-negative, got {seed}")
    if trials < 0:
        raise PerturbationError(
            f"trials must be non-negative, got {trials}")
    if trials > 2**32:
        raise PerturbationError(f"at most 2**32 trials, got {trials}")


def _draws(seed: int, ts: range, box: np.ndarray) -> np.ndarray:
    """The draws of trials ``ts``, a range of non-negative trials, as
    len(ts) x k: the row of trial t is
    ``np.random.default_rng([seed, t]).uniform(box[:, 0], box[:, 1])`` bit
    for bit, for all trials at once. Per coordinate: one PCG64 step, the
    XSL-RR output, its top 53 bits as a double u in [0, 1), and
    lo + (hi - lo) * u, the product and the sum each rounded as numpy's
    ``uniform`` rounds them."""
    _check_sweep(seed, ts.stop)
    hi, lo, inc_hi, inc_lo = _pcg64_seeded(
        seed, np.arange(ts.start, ts.stop, dtype=np.uint64))
    low, span = box[:, 0], box[:, 1] - box[:, 0]
    out = np.empty((len(ts), len(box)))
    for j in range(len(box)):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58
        bits = x >> rot | x << (-rot & 63)
        out[:, j] = low[j] + span[j] * ((bits >> 11) * 2.0 ** -53)
    return out


# Byte budget of the draws one ``_draws`` call of a sweep computes, rounded
# down to whole blocks but at least one block: a 1000-trial sweep of ex1
# (k = 4) is one call, and the draws held do not grow with the trials.
DRAW_CHUNK_BYTES = 1 << 20


def _draw_chunk(block: int, k: int) -> int:
    """Trials of one ``_draws`` call: whole blocks of ``block`` trials whose
    k draws each fit ``DRAW_CHUNK_BYTES``, at least one block; k = 0 (a
    network without lines) counts as k = 1."""
    return block * max(1, DRAW_CHUNK_BYTES // (8 * max(k, 1) * block))


def _flow_of_draws(model: PerturbationModel, case: Case):
    """Function from a block of parameter draws (T x k) to their flow data
    (g, b, p_load, q_load), each with a leading trial axis, g and b the
    line lists of ``netmodel.admittance_stack``: bit for bit the
    admittances and loads of ``apply_parameters`` followed by
    ``build_ybus``, at the nonzeros."""
    net = case.network
    n, m = net.n_bus, net.n_line
    if model.kind is ModelKind.LOAD:
        g, b = net.admittances
        return lambda xis: (np.broadcast_to(g, (len(xis), m + n)),
                            np.broadcast_to(b, (len(xis), m + n)),
                            xis[:, :n], xis[:, n:])

    def with_loads(g, b):
        return (g, b, np.broadcast_to(net.p_load, (len(g), n)),
                np.broadcast_to(net.q_load, (len(g), n)))

    if model.kind is ModelKind.SHUNT:
        # xi holds lumped (g, -b); the bus shunts are what remains after the
        # half line shunts, as apply_parameters writes them
        g_line, b_line = _add_half_line_shunts(net, np.zeros(n), np.zeros(n))
        return lambda xis: with_loads(*admittance_stack(
            net, net.g_series[None], net.b_series[None],
            xis[:, :n] - g_line, -xis[:, n:] - b_line))
    return lambda xis: with_loads(*admittance_stack(
        net, xis[:, :m], xis[:, m:], net.g_shunt[None], net.b_shunt[None]))


def run_genericity_experiment(
    case: Case,
    model: PerturbationModel,
    trials: int,
    seed: int,
    **tols,
) -> GenericityReport:
    """Deterministic Monte Carlo sweep over the model's sampling box.

    Trial t draws ``np.random.default_rng([seed, t]).uniform`` over the
    box, a counter-based seed, so results are independent of execution
    order and reproducible bit-for-bit; ``_draws`` computes the draws of
    many trials in one call, and ``seed`` and ``trials`` must be
    non-negative. Non-convergent draws count as trials, not errors.
    Trials run in blocks of ``_block_size`` that stay arrays from the draw
    to the report: a block's draws become stacked line-list admittances
    and loads, one stacked Newton solve gives the states (the iterates of a
    one-trial solve), and ``cqkit.licq_checks`` tests feasibility and LICQ
    on the converged ones (the block's arrays themselves when every trial
    converged), at most one batched SVD of the reduced matrices per face,
    and on a face without operational rows no stack at all. Its verdicts
    fill the report's columns by index; only a LICQ failure's report is
    built. Only one block, and the draws of one ``_draw_chunk`` of blocks,
    are held at a time.
    ``tols`` go to ``system_for_case``, whose tolerances decide
    feasibility, LICQ and the rank hypothesis.
    """
    _expect_dimension(model, case.network)
    _check_sweep(seed, trials)
    cs = con.system_for_case(case, **tols)

    hypothesis = None
    try:
        x0 = solve_power_flow(case.network, case.gen_p, case.gen_q,
                              pf_tol=cs.pf_tol).state
        hypothesis = check_rank_hypothesis(model, cs, x0)
    except PowerFlowError:
        pass

    flow_of = _flow_of_draws(model, case)
    converged, feasible, licq = np.zeros((3, trials), dtype=bool)
    sigma_min = np.zeros(trials)
    failures: list[dict] = []
    block = _block_size(case.network)
    chunk = _draw_chunk(block, len(model.box))
    for start in range(0, trials, block):
        if start % chunk == 0:
            draws = _draws(seed, range(start, min(start + chunk, trials)),
                           model.box)
        xis = draws[start % chunk:][:min(block, trials - start)]
        flow = flow_of(xis)
        states = newton_states(case.network, *flow, case.gen_p, case.gen_q,
                               pf_tol=cs.pf_tol)
        solved = np.flatnonzero(states.kind == 0)
        # no copy when every trial converged: 1 MB less peak RSS on the
        # 200-trial 8 x 8 shunt sweep
        x = states.x
        if solved.size < len(xis):
            x, flow = x[solved], tuple(arr[solved] for arr in flow)
        verdicts = cqkit.licq_checks(cs, x, flow)
        at = start + solved
        converged[at], feasible[at] = True, verdicts.feasible
        licq[at], sigma_min[at] = verdicts.licq_holds, verdicts.sigma_min
        for j in np.flatnonzero(verdicts.feasible
                                & ~verdicts.licq_holds).tolist():
            failures.append({"trial": int(at[j]), "seed": seed,
                             "xi": xis[solved[j]].tolist(),
                             "state": x[j].tolist(),
                             "cq_report": verdicts.report(j).to_dict()})

    return GenericityReport(
        trials=trials,
        rng_seed=seed,
        model_kind=model.kind.value,
        box=model.box,
        converged=converged, feasible=feasible, licq=licq, sigma_min=sigma_min,
        failures=tuple(failures),
        hypothesis=hypothesis,
        # a sweep classifies no cost, so its report leaves out stat_tol
        tolerances={k: v for k, v in cs.tolerances.items() if k != "stat_tol"},
    )


# ---------------------------------------------------------------------------
# Tangency escape probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeRow:
    """One shift of the tangency probe. ``reason`` is None when the check
    ran, ``"projection_failed"`` when Gauss-Newton found no point and
    ``"infeasible:<label>"`` when the check rejected the projected point,
    the label naming its worst violated row as exit 4 does."""

    delta: float
    converged: bool
    sigma_min: float | None
    licq_holds: bool | None
    bound_pinned: bool
    reason: str | None

    def to_dict(self) -> dict:
        return {"delta": self.delta, "converged": self.converged,
                "sigma_min": self.sigma_min, "licq_holds": self.licq_holds,
                "bound_pinned": self.bound_pinned, "reason": self.reason}


# Residual tolerance and step budget of nearest_feasible_point's projection.
PROJECTION_TOL = 1e-11
PROJECTION_MAX_ITER = 100


def _face_residual(cs: con.ConstraintSystem, flat: np.ndarray, flow, face):
    """F, h and the g rows of ``face`` at one flat state."""
    h_vals, g_vals, _, resid = con.evaluate_points(cs, flat[None], flow)
    return np.concatenate([resid[0], h_vals[0], g_vals[0, face]])


def _gauss_newton(cs: con.ConstraintSystem, flat: np.ndarray, flow, face):
    """Minimum-norm Gauss-Newton from one flat state, with its one-trial
    ``flow`` data, onto {F = 0, h = 0, g_face = 0} over the free entries;
    the rows are the ``cqkit.face_stacks`` of ``face``. Returns (flat,
    converged).

    A residual that is non-finite, as outside a constraint's domain, at the
    start or at a trial step, stops the iteration as not converged."""
    mask = cs.net.free_mask
    with np.errstate(all="ignore"):
        r = _face_residual(cs, flat, flow, face)
        for _ in range(PROJECTION_MAX_ITER):
            err = np.abs(r).max()
            if not np.isfinite(err):
                return flat, False
            if err <= PROJECTION_TOL:
                return flat, True
            rows = cqkit.face_stacks(cs, flat[None], *flow[:2],
                                     face).dense()[0]
            step, *_ = np.linalg.lstsq(rows, -r, rcond=None)
            t = 1.0
            while t >= 2.0 ** -30:
                trial = flat.copy()
                trial[mask] = flat[mask] + t * step
                r_try = _face_residual(cs, trial, flow, face)
                err_try = np.abs(r_try).max()
                if not np.isfinite(err_try):
                    return flat, False
                if err_try < err:
                    flat, r = trial, r_try
                    break
                t /= 2.0
            else:
                return flat, False
    return flat, np.abs(r).max() <= PROJECTION_TOL


def nearest_feasible_point(
    cs: con.ConstraintSystem,
    x_start: SystemState,
) -> tuple[SystemState | None, bool]:
    """Point of a constraint system near a start state, by projection.

    Two stages of ``_gauss_newton``: onto {F = 0, h = 0}, then, if bounds
    end up violated there, with those bounds pinned as equalities. Returns
    (state, bound_pinned), state None when Gauss-Newton fails; feasibility
    is left to the check on ``cs``.
    """
    flats, flow = con.point_block(cs, x_start)
    flat, ok = _gauss_newton(cs, flats[0], flow, [])
    if not ok:
        return None, False
    _, g_vals, _, _ = con.evaluate_points(cs, flat[None], flow)
    pinned = np.flatnonzero(g_vals[0] > cs.act_tol)
    if pinned.size:
        flat, ok = _gauss_newton(cs, flat, flow, pinned)
    return SystemState.from_flat(flat) if ok else None, bool(pinned.size)


def shift_load(case: Case, direction: int, delta: float) -> Case:
    """New case with one component of the stacked load vector shifted."""
    net = case.network
    n = net.n_bus
    if not 0 <= direction < 2 * n:
        raise PerturbationError(
            f"direction {direction} outside the stacked load vector (2N = {2 * n})")
    name, bus = ("p_load", "q_load")[direction // n], direction % n
    load = getattr(net, name).copy()
    load[bus] = float(load[bus]) + delta
    if not np.isfinite(load[bus]):
        raise PerturbationError(
            f"{name} of bus {bus} shifted by {delta!r} is {load[bus]}; a "
            "load must be a finite number")
    return replace(case, network=replace(net, **{name: load}))


def tangency_escape_probe(
    case: Case,
    x_start: SystemState,
    deltas,
    direction: int,
) -> list[ProbeRow]:
    """Sweep one load component and track the degeneracy margin.

    ``direction`` indexes the stacked load vector (p loads then q loads).
    For each delta the load is shifted by delta, the feasible point
    nearest the start is re-solved by projection, and the qualification
    check runs at the recovered point. A row without a check is not
    converged, and its ``reason`` says whether the projection failed or
    the check found the point infeasible. A degenerate start stays
    degenerate only at delta = 0; any interior shift should restore full
    rank.
    """
    rows: list[ProbeRow] = []
    for delta in deltas:
        cs = con.system_for_case(shift_load(case, direction, float(delta)))
        state, pinned = nearest_feasible_point(cs, x_start)
        report, reason = None, "projection_failed"
        if state is not None:
            try:
                report, reason = cqkit.licq_check(cs, state), None
            except con.InfeasiblePointError as exc:
                reason = f"infeasible:{exc.worst_row}"
        rows.append(ProbeRow(
            delta=float(delta), converged=report is not None,
            sigma_min=None if report is None else report.sigma_min,
            licq_holds=None if report is None else report.licq_holds,
            bound_pinned=pinned, reason=reason))
    return rows
