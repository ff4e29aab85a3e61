"""Seeded generators for the benchmark's input datasets.

Each model fixes its network and coefficients with a constant seed, so the
size and shape of the problem do not depend on the benchmark seed; the
benchmark seed only draws the data.
"""

from __future__ import annotations

import numpy as np

from abnkit.dag import Dag
from abnkit.simulate import SimSpec, simulate_dag

FAMILY_CYCLE = ("gaussian", "binomial", "poisson")


def criterion7_model(n_obs: int, seed: int) -> SimSpec:
    """The score-efficiency network: 10 nodes, families cycling
    gaussian/binomial/poisson, one coefficient per arc in +-[0.6, 1.2]."""
    rng = np.random.default_rng(2024)
    dag = simulate_dag(10, 0.25, seed=77)
    families = {node: FAMILY_CYCLE[i % 3] for i, node in enumerate(dag.nodes)}
    coefficients, sd = {}, {}
    for node in dag.nodes:
        c = {"(Intercept)": 0.1}
        for p in dag.parents(node):
            c[p] = float(rng.uniform(0.6, 1.2) * rng.choice([-1, 1]))
        coefficients[node] = c
        if families[node] == "gaussian":
            sd[node] = 1.0
    return SimSpec(dag=dag, families=families, coefficients=coefficients, sd=sd,
                   n_obs=n_obs, seed=seed)


CASE_STUDY_NODES = ("AR", "pneumS", "female", "livdam", "eggs", "wormCount", "age", "adg")
CASE_STUDY_FAMILIES = {
    "AR": "binomial", "pneumS": "binomial", "female": "binomial",
    "livdam": "binomial", "eggs": "binomial", "wormCount": "poisson",
    "age": "gaussian", "adg": "gaussian",
}
# (parent, child, coefficient) of the ten-arc growth-performance structure.
CASE_STUDY_ARCS = (
    ("age", "AR", 0.8),
    ("age", "pneumS", 0.6),
    ("eggs", "livdam", 1.0),
    ("adg", "eggs", 0.7),
    ("AR", "wormCount", 0.5),
    ("eggs", "wormCount", 0.6),
    ("age", "wormCount", 0.3),
    ("adg", "wormCount", -0.3),
    ("female", "age", 0.9),
    ("age", "adg", 0.8),
)


def case_study_model(n_obs: int, seed: int) -> SimSpec:
    """Eight-node mixed-family model with the layout of the pig-growth case
    study (five binomial, one poisson, two gaussian nodes)."""
    idx = {name: i for i, name in enumerate(CASE_STUDY_NODES)}
    adjacency = np.zeros((8, 8), dtype=np.int8)
    coefficients = {node: {"(Intercept)": 0.1} for node in CASE_STUDY_NODES}
    for parent, child, coef in CASE_STUDY_ARCS:
        adjacency[idx[child], idx[parent]] = 1
        coefficients[child][parent] = coef
    sd = {node: 1.0 for node, fam in CASE_STUDY_FAMILIES.items() if fam == "gaussian"}
    return SimSpec(dag=Dag(CASE_STUDY_NODES, adjacency), families=dict(CASE_STUDY_FAMILIES),
                   coefficients=coefficients, sd=sd, n_obs=n_obs, seed=seed)


def sparse_model(n_nodes: int, max_parents: int, n_obs: int, seed: int) -> SimSpec:
    """Random network with at most ``max_parents`` parents per node.

    Coefficients on poisson parents are kept small so that chains of count
    nodes cannot overflow the poisson mean.
    """
    rng = np.random.default_rng(1000 + n_nodes)
    names = tuple(f"v{i + 1}" for i in range(n_nodes))
    order = rng.permutation(n_nodes)
    families = {name: FAMILY_CYCLE[i % 3] for i, name in enumerate(names)}
    adjacency = np.zeros((n_nodes, n_nodes), dtype=np.int8)
    coefficients, sd = {}, {}
    for pos, child in enumerate(order):
        k = int(rng.integers(0, min(pos, max_parents) + 1))
        parents = rng.choice(order[:pos], size=k, replace=False) if k else []
        c = {"(Intercept)": 0.1}
        for p in sorted(int(p) for p in parents):
            adjacency[child, p] = 1
            size = 0.1 if families[names[p]] == "poisson" else rng.uniform(0.4, 0.9)
            c[names[p]] = float(size * rng.choice([-1, 1]))
        coefficients[names[child]] = c
        if families[names[child]] == "gaussian":
            sd[names[child]] = 1.0
    return SimSpec(dag=Dag(names, adjacency), families=families,
                   coefficients=coefficients, sd=sd, n_obs=n_obs, seed=seed)
