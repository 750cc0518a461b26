"""Built-in analytic fixtures.

Three two-bus fixtures cover the degeneracy geometries of interest:

* ``example1``: a dispatch problem whose voltage cap is tangent to the
  feasibility envelope at the operating point, so the active constraint
  stack drops rank by one and the multipliers form a ray.
* ``example2``: two operational constraints whose level curves on the
  flow manifold cross while mutually tangent, so the check's reduced
  matrix R has rank 1 of 2 and suitable cost gradients admit no
  multipliers at all.
* ``example3``: the structural no-load flat-profile degeneracy of a
  shunt-free network, where series line parameters have no first-order
  effect on the residual.

Every fixture carries machine-checkable ground truth; nothing here is
trusted by the test suite without re-verification through the public
evaluation APIs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintSystem, system_for_case
from .netmodel import (ApparentPower, BoxUpper, Case, CaseError, CostSpec,
                       ExpLoadEq, LinearEq, Network, state_index)
from .powerflow import SystemState


@dataclass(frozen=True, eq=False)
class FixtureBundle:
    name: str
    case: Case
    system: ConstraintSystem
    ground_truth: SystemState
    expected: dict


def _two_bus_network(p_loads=(0.0, 0.0)) -> Network:
    return Network(bus_type=["slack", "pq"], line_ends=[(0, 1)],
                   p_load=p_loads, g_series=[0.0], b_series=[-1.0])


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
    # 2 alpha^2, the coupling's offset, is the largest number derived here
    if not math.isfinite(2.0 * alpha * alpha):
        raise CaseError(f"example1 at alpha = {alpha}: 2 alpha^2 leaves the "
                        "float range")
    v_bar = math.sqrt(alpha * alpha + 1.0)
    net = _two_bus_network(p_loads=(2.0 * alpha, -2.0 * alpha))
    unit = np.eye(8)  # rows: the flat states' unit vectors
    case = Case(
        network=net,
        gen_p=np.array([0.0, -alpha]),
        gen_q=np.array([0.0, alpha * alpha]),
        constraints=(
            LinearEq(terms=((state_index("q", 1, 2), 1.0),
                            (state_index("p", 1, 2), -alpha)),
                     offset=2.0 * alpha * alpha),
            BoxUpper(index=state_index("v", 1, 2), bound=v_bar),
        ),
        cost=CostSpec(c2=unit[state_index("p", 0, 2)],
                      c1=alpha * unit[state_index("p", 1, 2)]),
    )
    ground_truth = SystemState(
        p_gen=np.array([alpha, -alpha]),
        q_gen=np.array([0.0, alpha * alpha]),
        v=np.array([1.0, v_bar]),
        theta=np.array([0.0, math.atan(alpha)]),
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
        ground_truth=ground_truth, expected=expected,
    )


# --- example2 -------------------------------------------------------------

SQRT3 = math.sqrt(3.0)
EX2_ALPHA = 2.0 * (SQRT3 + 3.0) / 9.0
EX2_S2_MAX = 2.0 - SQRT3
EX2_P_LOAD = -(15.0 * SQRT3 - 23.0) / 8.0


def example2() -> FixtureBundle:
    """Two-bus system with mutually tangent crossing constraints.

    A voltage-dependent load coupling at bus 1 and an apparent-power cap on
    its generation both hold at (v2, theta2) = (1, pi/6), the generation
    entries following from the flow equations there. Restricted to the
    flow manifold their gradients are parallel: the check's reduced matrix
    R = O_z - O_g X (see ``cqkit``) has rank 1, so the 6x6 active stack has
    rank 5. The cost theta2 leaves the row space by a stationarity residual
    of about 0.627, so it admits no multipliers.
    """
    net = _two_bus_network()
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
        constraints=(
            ExpLoadEq(bus=1, n_bus=2, alpha=EX2_ALPHA, p_load=EX2_P_LOAD),
            ApparentPower(bus=1, n_bus=2, s2_max=EX2_S2_MAX),
        ),
        cost=CostSpec(c2=np.zeros(8), c1=np.eye(8)[state_index("theta", 1, 2)]),
    )
    ground_truth = SystemState(
        p_gen=np.array([p1, p2]),
        q_gen=np.array([q1, q2]),
        v=np.array([1.0, v2]),
        theta=np.array([0.0, t2]),
    )
    # rank of the active stack and a floor on the cost's stationarity
    # residual
    expected = {"m": 6, "rank": 5, "residual_lower_bound": 0.1}
    return FixtureBundle(
        name="ex2", case=case, system=system_for_case(case),
        ground_truth=ground_truth, expected=expected,
    )


def example3() -> FixtureBundle:
    """Flat no-load profile of the shunt-free two-bus network.

    With every shunt absent, the all-ones voltage vector carries no
    current, so the flat profile with zero injections is an exact flow
    solution and series line parameters have no first-order effect on the
    residual there (the line perturbation model has rank 0).
    """
    net = _two_bus_network()
    n = net.n_bus
    case = Case(network=net, gen_p=np.zeros(n), gen_q=np.zeros(n))
    ground_truth = SystemState(
        p_gen=np.zeros(n), q_gen=np.zeros(n),
        v=np.ones(n), theta=np.zeros(n),
    )
    return FixtureBundle(
        name="ex3", case=case, system=system_for_case(case),
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
