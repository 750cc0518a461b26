"""Built-in analytic fixtures.

Three two-bus fixtures cover the degeneracy geometries of interest:

* ``example1``: a dispatch problem whose voltage cap is tangent to the
  feasibility envelope at the operating point, so the active constraint
  stack drops rank by one and the multipliers form a ray.
* ``example2``: two operational constraints whose level curves cross over
  while mutually tangent, so the operational stack alone is rank
  deficient and suitable cost gradients admit no multipliers at all.
* ``example3``: the structural no-load flat-profile degeneracy of a
  shunt-free network, where series line parameters have no first-order
  effect on the residual.

Every fixture carries machine-checkable ground truth; nothing here is
trusted by the test suite without re-verification through the public
evaluation APIs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constraints import (ConstraintSystem, VoltageDomainError,
                          system_for_case)
from .cqkit import CostSpec
from .netmodel import (Bus, BusType, Case, CaseError, ConstraintSpec,
                       CostTerms, Line, Network)
from .powerflow import SystemState, free_mask_from_bus_types


@dataclass(frozen=True, eq=False)
class ReducedView:
    """Two-variable (v2, theta2) restriction of a fixture.

    The flow equations are folded into the constraint functions by the
    closed-form elimination of the generation variables, so the system
    consists of operational constraints only.
    """

    system: ConstraintSystem
    point: np.ndarray
    probe_cost: CostSpec


@dataclass(frozen=True, eq=False)
class FixtureBundle:
    name: str
    case: Case
    system: ConstraintSystem
    cost: CostSpec | None
    ground_truth: SystemState
    expected: dict
    reduced: ReducedView | None = None

    def case_document(self) -> dict:
        from .netmodel import case_to_dict

        return case_to_dict(self.case)


def _two_bus_network(p_loads=(0.0, 0.0), q_loads=(0.0, 0.0)) -> Network:
    return Network(
        buses=(
            Bus(id=0, bus_type=BusType.SLACK, p_load=p_loads[0],
                q_load=q_loads[0], v_setpoint=1.0, theta_setpoint=0.0),
            Bus(id=1, bus_type=BusType.PQ, p_load=p_loads[1],
                q_load=q_loads[1]),
        ),
        lines=(Line(from_bus=0, to_bus=1, g_series=0.0, b_series=-1.0),),
    )


def example1(alpha: float) -> FixtureBundle:
    """Two-bus dispatch with a tangent voltage cap and a multiplier ray.

    A generator sits at the slack bus; the flexible unit at bus 1 runs at
    (p, q) = (-alpha, alpha^2) under the coupling q_1 - alpha * p_1 =
    2 alpha^2, and the upper voltage bound is sqrt(alpha^2 + 1). Balancing
    fixed loads (2 alpha, -2 alpha) place the operating point exactly
    where the bound touches the feasibility envelope: the 6x6 active
    stack has rank 5 there, and the stationarity solutions form the ray

        (-a, -a, 0, 0, 0, 0) + zeta * (0, -a, 0, 1, -1, sqrt(a^2+1)),

    zeta >= 0, under the cost p_0^2 / 2 + alpha * p_1. The bus-1 real
    power balance multiplier then covers exactly (-inf, -alpha].
    """
    if not alpha > 0:
        raise CaseError(f"example1 requires alpha > 0, got {alpha}")
    v_bar = math.sqrt(alpha * alpha + 1.0)
    net = _two_bus_network(p_loads=(2.0 * alpha, -2.0 * alpha))
    specs = (
        ConstraintSpec("linear_eq", None, {
            "terms": [
                {"var": "q", "bus": 1, "coef": 1.0},
                {"var": "p", "bus": 1, "coef": -alpha},
            ],
            "offset": 2.0 * alpha * alpha,
        }),
        ConstraintSpec("box_upper", {"var": "v", "bus": 1}, {"bound": v_bar}),
    )
    cost_terms = CostTerms(quadratic=(("p", 0, 1.0),),
                           linear=(("p", 1, alpha),))
    case = Case(
        network=net,
        gen_p=np.array([0.0, -alpha]),
        gen_q=np.array([0.0, alpha * alpha]),
        constraint_specs=specs,
        cost=cost_terms,
    )
    ground_truth = SystemState(
        p_gen=np.array([alpha, -alpha]),
        q_gen=np.array([0.0, alpha * alpha]),
        v=np.array([1.0, v_bar]),
        theta=np.array([0.0, math.atan(alpha)]),
        free_mask=free_mask_from_bus_types(net),
    )
    expected = {
        "v_bar": v_bar,
        "m": 6,
        "rank": 5,
        "ray_vertex": [-alpha, -alpha, 0.0, 0.0, 0.0, 0.0],
        "ray_direction": [0.0, -alpha, 0.0, 1.0, -1.0, v_bar],
        # stack row of the bus-1 real power balance, whose multiplier is
        # the negated nodal price
        "price_row": 1,
        "price_upper_bound": -alpha,
    }
    return FixtureBundle(
        name="ex1", case=case, system=system_for_case(case),
        cost=CostSpec.from_terms(cost_terms, net.n_bus),
        ground_truth=ground_truth, expected=expected,
    )


# --- example2 -------------------------------------------------------------

SQRT3 = math.sqrt(3.0)
EX2_ALPHA = 2.0 * (SQRT3 + 3.0) / 9.0
EX2_S2_MAX = 2.0 - SQRT3
EX2_P_LOAD = -(15.0 * SQRT3 - 23.0) / 8.0


@dataclass(frozen=True)
class VoltageLoadCurve:
    """Reduced load coupling h(v, t) = v^2 + v (a sin t - cos t)
    - a (sqrt(v) + pL) over the two-variable state (v, theta)."""

    alpha: float
    p_load: float
    is_equality: bool = True

    def _v(self, x: np.ndarray) -> float:
        v = float(x[0])
        if v <= 0.0:
            raise VoltageDomainError(
                f"reduced load curve evaluated at v = {v}; requires v > 0")
        return v

    def value(self, x: np.ndarray) -> float:
        v = self._v(x)
        t = float(x[1])
        return (v * v + v * (self.alpha * math.sin(t) - math.cos(t))
                - self.alpha * (math.sqrt(v) + self.p_load))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        v = self._v(x)
        t = float(x[1])
        return np.array([
            2.0 * v + self.alpha * math.sin(t) - math.cos(t)
            - self.alpha / (2.0 * math.sqrt(v)),
            v * (self.alpha * math.cos(t) + math.sin(t)),
        ])


@dataclass(frozen=True)
class TransferLimitCurve:
    """Reduced apparent-power cap g(v, t) = v^2 (v^2 - 2 v cos t + 1)
    - s2_max over the two-variable state (v, theta)."""

    s2_max: float
    is_equality: bool = False

    def value(self, x: np.ndarray) -> float:
        v, t = float(x[0]), float(x[1])
        return v * v * (v * v - 2.0 * v * math.cos(t) + 1.0) - self.s2_max

    def gradient(self, x: np.ndarray) -> np.ndarray:
        v, t = float(x[0]), float(x[1])
        return np.array([
            4.0 * v ** 3 - 6.0 * v * v * math.cos(t) + 2.0 * v,
            2.0 * v ** 3 * math.sin(t),
        ])


def example2() -> FixtureBundle:
    """Two-bus system with mutually tangent crossing constraints.

    A voltage-dependent load coupling and an apparent-power cap both pass
    through (v2, theta2) = (1, pi/6) with parallel gradients, so the
    operational stack alone is rank deficient there. The authoritative
    analysis runs in the reduced (v2, theta2) coordinates; the full-state
    view carries the same constraints as catalog kinds, with the
    generation entries recovered from the flow equations.
    """
    net = _two_bus_network()
    specs = (
        ConstraintSpec("exp_load_eq", {"bus": 1},
                       {"alpha": EX2_ALPHA, "p_load": EX2_P_LOAD}),
        ConstraintSpec("apparent_power", {"bus": 1}, {"s2_max": EX2_S2_MAX}),
    )
    v2, t2 = 1.0, math.pi / 6.0
    # generation recovered from the flow equations at (v2, t2)
    p2 = v2 * math.sin(t2)
    q2 = v2 * v2 - v2 * math.cos(t2)
    p1 = -v2 * math.sin(t2)
    q1 = 1.0 - v2 * math.cos(t2)
    case = Case(
        network=net,
        gen_p=np.array([0.0, p2]),
        gen_q=np.array([0.0, q2]),
        constraint_specs=specs,
        cost=CostTerms(),
    )
    ground_truth = SystemState(
        p_gen=np.array([p1, p2]),
        q_gen=np.array([q1, q2]),
        v=np.array([1.0, v2]),
        theta=np.array([0.0, t2]),
        free_mask=free_mask_from_bus_types(net),
    )
    reduced_system = ConstraintSystem.operational(
        (VoltageLoadCurve(alpha=EX2_ALPHA, p_load=EX2_P_LOAD),),
        (TransferLimitCurve(s2_max=EX2_S2_MAX),),
        n_state=2,
    )
    reduced = ReducedView(
        system=reduced_system,
        point=np.array([v2, t2]),
        probe_cost=CostSpec(c2=np.zeros(2), c1=np.array([0.0, 1.0])),
    )
    # ground truth of the reduced view: rank of its two-row stack and a
    # floor on the probe cost's stationarity residual
    expected = {"m": 2, "rank": 1, "residual_lower_bound": 0.1}
    return FixtureBundle(
        name="ex2", case=case, system=system_for_case(case), cost=None,
        ground_truth=ground_truth, expected=expected, reduced=reduced,
    )


def example3(net: Network | None = None) -> FixtureBundle:
    """Flat no-load profile of a shunt-free network.

    With every shunt absent, the all-ones voltage vector carries no
    current, so the flat profile with zero injections is an exact flow
    solution and series line parameters have no first-order effect on the
    residual there (the line perturbation model has rank 0).
    """
    if net is None:
        net = _two_bus_network()
    for bus in net.buses:
        if bus.g_shunt != 0.0 or bus.b_shunt != 0.0:
            raise CaseError(
                f"example3 requires a shunt-free network; bus {bus.id} "
                "carries a nodal shunt")
    for j, ln in enumerate(net.lines):
        if ln.g_shunt != 0.0 or ln.b_shunt != 0.0:
            raise CaseError(
                f"example3 requires a shunt-free network; line {j} "
                "carries a line shunt")
    buses = tuple(replace(b, p_load=0.0, q_load=0.0,
                          v_setpoint=1.0, theta_setpoint=0.0)
                  for b in net.buses)
    net = Network(buses=buses, lines=net.lines)
    n = net.n_bus
    case = Case(network=net, gen_p=np.zeros(n), gen_q=np.zeros(n),
                constraint_specs=(), cost=CostTerms())
    ground_truth = SystemState(
        p_gen=np.zeros(n), q_gen=np.zeros(n),
        v=np.ones(n), theta=np.zeros(n),
        free_mask=free_mask_from_bus_types(net),
    )
    return FixtureBundle(
        name="ex3", case=case, system=system_for_case(case), cost=None,
        ground_truth=ground_truth,
        expected={"line_param_rank": 0},
    )


BUILTIN_NAMES = ("ex1", "ex2", "ex3")


def builtin(name: str, alpha: float = 1.0) -> FixtureBundle:
    if name == "ex1":
        return example1(alpha)
    if name == "ex2":
        return example2()
    if name == "ex3":
        return example3()
    raise CaseError(f"unknown builtin fixture {name!r}; "
                    f"expected one of {'|'.join(BUILTIN_NAMES)}")
