import numpy as np
import pytest

import opfdiag as od


@pytest.fixture
def ex1():
    return od.example1(1.0)


@pytest.fixture
def ex2():
    return od.example2()


@pytest.fixture
def ex3():
    return od.example3()


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def _lattice_document(rows: int, cols: int, seed: int) -> dict:
    """Shunt-free rows x cols lattice case with the slack at bus 0.

    Bus (r, c) is joined to its right and lower neighbours. Every PQ bus
    carries a slack voltage band; the first PQ buses also get an active
    cap on p, an equality q = p (both hold at zero generation) and a
    linear cost on p, so the check sees operational equalities and a
    nonempty active face.
    """
    rng = np.random.default_rng([seed, rows, cols])
    n = rows * cols
    load = rng.uniform(-0.03, 0.03, (2, n))
    load -= load.mean(axis=1, keepdims=True)
    buses = [{"id": k, "type": "slack" if k == 0 else "pq",
              "p_load": float(load[0, k]), "q_load": float(load[1, k])}
             for k in range(n)]
    pairs = [(k, k + 1) for k in range(n) if (k + 1) % cols]
    pairs += [(k, k + cols) for k in range(n - cols)]
    lines = [{"from": k, "to": l, "g_series": float(rng.uniform(0.5, 1.5)),
              "b_series": float(rng.uniform(-8.0, -4.0))} for k, l in pairs]
    constraints, linear = [], []
    for k in range(1, n):
        constraints.append({"kind": "box_upper", "target": {"var": "v", "bus": k},
                            "params": {"bound": 1.2}})
        constraints.append({"kind": "box_lower", "target": {"var": "v", "bus": k},
                            "params": {"bound": 0.8}})
        if k <= 4:
            constraints.append({"kind": "box_upper",
                                "target": {"var": "p", "bus": k},
                                "params": {"bound": 0.0}})
            constraints.append({"kind": "linear_eq", "target": None, "params": {
                "terms": [{"var": "q", "bus": k, "coef": 1.0},
                          {"var": "p", "bus": k, "coef": -1.0}],
                "offset": 0.0}})
            linear.append({"var": "p", "bus": k, "coef": float(k)})
    return {"buses": buses, "lines": lines, "generators": [],
            "constraints": constraints,
            "cost": {"quadratic": [{"var": "p", "bus": 0, "coef": 1.0}],
                     "linear": linear}}


@pytest.fixture
def lattice_document():
    return _lattice_document
