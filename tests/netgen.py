"""Seeded random desk-scale networks and states for property tests, the
per-trial reference draw of the Monte Carlo sweep, and the test-side
inverses of case loading and of the flow model."""

import numpy as np

from opfdiag.netmodel import AdmittanceMatrix, Bus, BusType, Case, Line, Network
from opfdiag.powerflow import SystemState, _injections


def random_network(n_bus: int, rng: np.random.Generator) -> Network:
    """Radial chain plus random extra lines (each with probability 0.3);
    about half the buses and every line carry a shunt."""
    buses = []
    for k in range(n_bus):
        g_sh = b_sh = 0.0
        if rng.uniform() < 0.5:
            g_sh = rng.uniform(0.0, 0.3)
            b_sh = rng.uniform(-0.3, 0.3)
        buses.append(Bus(
            id=k,
            bus_type=BusType.SLACK if k == 0 else BusType.PQ,
            p_load=rng.uniform(-1.0, 1.0),
            q_load=rng.uniform(-1.0, 1.0),
            g_shunt=g_sh,
            b_shunt=b_sh,
        ))
    pairs = [(k, k + 1) for k in range(n_bus - 1)]
    pairs += [(k, l) for k in range(n_bus) for l in range(k + 2, n_bus)
              if rng.uniform() < 0.3]
    lines = tuple(
        Line(from_bus=k, to_bus=l,
             g_series=rng.uniform(0.0, 2.0),
             b_series=rng.uniform(-5.0, -0.5),
             g_shunt=rng.uniform(0.0, 0.1),
             b_shunt=rng.uniform(0.0, 0.2))
        for k, l in pairs)
    return Network(buses=tuple(buses), lines=lines)


def random_state(net: Network, rng: np.random.Generator) -> SystemState:
    n = net.n_bus
    return SystemState(
        p_gen=rng.uniform(-1.0, 1.0, n),
        q_gen=rng.uniform(-1.0, 1.0, n),
        v=rng.uniform(0.7, 1.3, n),
        theta=rng.uniform(-1.0, 1.0, n),
        free_mask=np.ones(4 * n, dtype=bool),
    )


def trial_draw(seed: int, trial: int, box: np.ndarray) -> np.ndarray:
    """Parameter draw of one sweep trial from its own generator: what
    ``perturb._draws`` computes for every trial at once."""
    return np.random.default_rng([seed, trial]).uniform(box[:, 0], box[:, 1])


def injections(Y: AdmittanceMatrix, v: np.ndarray, theta: np.ndarray):
    """Nodal complex power flowing from each bus into the network."""
    return _injections(Y.G + 1j * Y.B, v, theta)


def case_document(case: Case) -> dict:
    """Serialize a case back to its document form (inverse of load_case)."""
    doc: dict = {
        "buses": [
            {
                "id": b.id,
                "type": b.bus_type.value,
                "p_load": b.p_load,
                "q_load": b.q_load,
                "g_shunt": b.g_shunt,
                "b_shunt": b.b_shunt,
                "v_setpoint": b.v_setpoint,
                "theta_setpoint": b.theta_setpoint,
            }
            for b in case.network.buses
        ],
        "lines": [
            {
                "from": ln.from_bus,
                "to": ln.to_bus,
                "g_series": ln.g_series,
                "b_series": ln.b_series,
                "g_shunt": ln.g_shunt,
                "b_shunt": ln.b_shunt,
            }
            for ln in case.network.lines
        ],
        "generators": [
            {"bus": k, "p": float(case.gen_p[k]), "q": float(case.gen_q[k])}
            for k in range(case.network.n_bus)
            if case.gen_p[k] != 0.0 or case.gen_q[k] != 0.0
        ],
        "constraints": [
            {"kind": s.kind, "target": s.target, "params": s.params}
            for s in case.constraint_specs
        ],
        "cost": {
            "quadratic": [
                {"var": v, "bus": b, "coef": c} for v, b, c in case.cost.quadratic
            ],
            "linear": [
                {"var": v, "bus": b, "coef": c} for v, b, c in case.cost.linear
            ],
        },
    }
    if case.base_mva is not None:
        doc["base_mva"] = case.base_mva
    return doc
