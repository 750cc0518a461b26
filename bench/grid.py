"""Seeded meshed-grid case documents for the benchmark workloads.

A side x side lattice: bus (r, c) has id r * side + c and is joined to its
right and lower neighbours, so the line count grows as 2 * side * (side - 1)
instead of the O(N^2) of ``random_network(extra_lines=True)``. The slack bus
sits at the centre and every other bus is PQ with a small zero-mean load, so
plain Newton converges from a flat start. Every PQ bus carries a voltage
band (box_upper and box_lower on v) that the solved point leaves inactive,
and the cost is quadratic in the slack injection, so a check evaluates
operational constraints and classifies the multipliers.

The program only ever sees the JSON document this module returns.
"""

from __future__ import annotations

import numpy as np

LOAD_HALF_WIDTH = 0.03
SERIES_G = (0.5, 1.5)
SERIES_B = (-8.0, -4.0)
SHUNT_G = (0.01, 0.05)
SHUNT_B = (-0.05, 0.05)
V_BAND = (0.8, 1.2)


def grid_case(side: int, seed: int, *, shunts: bool) -> dict:
    """Case document for a side x side lattice drawn from ``seed``.

    ``shunts`` gives every bus a nonzero nodal shunt (the shunt
    perturbation model then samples a box around nonzero nominals);
    without it the network is shunt-free.
    """
    if side < 2:
        raise ValueError("grid side must be at least 2")
    rng = np.random.default_rng([seed, side, int(shunts)])
    n = side * side
    slack = (side // 2) * side + side // 2

    p_load = rng.uniform(-LOAD_HALF_WIDTH, LOAD_HALF_WIDTH, n)
    q_load = rng.uniform(-LOAD_HALF_WIDTH, LOAD_HALF_WIDTH, n)
    p_load -= p_load.mean()
    q_load -= q_load.mean()
    if shunts:
        g_sh = rng.uniform(*SHUNT_G, n)
        b_sh = rng.uniform(*SHUNT_B, n)
    else:
        g_sh = np.zeros(n)
        b_sh = np.zeros(n)

    buses = []
    for k in range(n):
        buses.append({
            "id": k,
            "type": "slack" if k == slack else "pq",
            "p_load": float(p_load[k]),
            "q_load": float(q_load[k]),
            "g_shunt": float(g_sh[k]),
            "b_shunt": float(b_sh[k]),
        })

    pairs = []
    for r in range(side):
        for c in range(side):
            k = r * side + c
            if c + 1 < side:
                pairs.append((k, k + 1))
            if r + 1 < side:
                pairs.append((k, k + side))
    g_ser = rng.uniform(*SERIES_G, len(pairs))
    b_ser = rng.uniform(*SERIES_B, len(pairs))
    lines = [{"from": k, "to": l, "g_series": float(g), "b_series": float(b)}
             for (k, l), g, b in zip(pairs, g_ser, b_ser)]

    constraints = []
    for k in range(n):
        if k == slack:
            continue
        constraints.append({"kind": "box_upper", "target": {"var": "v", "bus": k},
                            "params": {"bound": V_BAND[1]}})
        constraints.append({"kind": "box_lower", "target": {"var": "v", "bus": k},
                            "params": {"bound": V_BAND[0]}})

    return {
        "buses": buses,
        "lines": lines,
        "generators": [],
        "constraints": constraints,
        "cost": {"quadratic": [{"var": "p", "bus": slack, "coef": 1.0}],
                 "linear": []},
    }


def flow_residual(doc: dict, state: list[float]) -> float:
    """Max-norm AC flow residual of a flat (p, q, v, theta) state, computed
    from the case document alone with complex nodal arithmetic."""
    n = len(doc["buses"])
    x = np.asarray(state, dtype=float)
    if x.shape != (4 * n,):
        raise ValueError(f"state has {x.size} entries, expected {4 * n}")
    p_gen, q_gen, v, theta = x[:n], x[n:2 * n], x[2 * n:3 * n], x[3 * n:]
    y = np.zeros((n, n), dtype=complex)
    for ln in doc["lines"]:
        k, l = ln["from"], ln["to"]
        ys = complex(ln["g_series"], ln["b_series"])
        ysh = complex(ln.get("g_shunt", 0.0), ln.get("b_shunt", 0.0)) / 2.0
        y[k, k] += ys + ysh
        y[l, l] += ys + ysh
        y[k, l] -= ys
        y[l, k] -= ys
    load = np.zeros(n, dtype=complex)
    for bus in doc["buses"]:
        k = bus["id"]
        y[k, k] += complex(bus.get("g_shunt", 0.0), bus.get("b_shunt", 0.0))
        load[k] = complex(bus.get("p_load", 0.0), bus.get("q_load", 0.0))
    u = v * np.exp(1j * theta)
    mismatch = (p_gen + 1j * q_gen) - load - u * np.conj(y @ u)
    return float(max(np.abs(mismatch.real).max(), np.abs(mismatch.imag).max()))
