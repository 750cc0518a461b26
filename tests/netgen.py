"""Seeded random desk-scale networks and states for property tests, and
the per-trial reference draw of the Monte Carlo sweep."""

import numpy as np

from opfdiag.netmodel import Bus, BusType, Line, Network
from opfdiag.powerflow import SystemState


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
