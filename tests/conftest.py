"""Shared fixtures: reference structures, data generators, oracles."""

import os
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from abnkit.dag import ConstraintSet, Dag, find_cycle
from abnkit.data import Dataset
from abnkit.cache import ScoreCache, enumerate_parent_sets

# Directory with optional user-exported reference datasets (asia.csv, adg.csv);
# tests that need them are skipped when absent.  See README for the export steps.
DATA_DIR = Path(os.environ.get("ABNKIT_DATA_DIR", Path(__file__).parent / "data"))

ASIA_NODES = (
    "Asia", "Smoking", "Tuberculosis", "LungCancer",
    "Bronchitis", "Either", "XRay", "Dyspnea",
)

# Arcs (parent -> child) of the classical eight-node lung-disease toy network.
ASIA_ARCS = (
    ("Asia", "Tuberculosis"),
    ("Smoking", "LungCancer"),
    ("Smoking", "Bronchitis"),
    ("Tuberculosis", "Either"),
    ("LungCancer", "Either"),
    ("Either", "XRay"),
    ("Either", "Dyspnea"),
    ("Bronchitis", "Dyspnea"),
)


def dag_from_arcs(nodes, arcs) -> Dag:
    n = len(nodes)
    adjacency = np.zeros((n, n), dtype=np.int8)
    idx = {name: i for i, name in enumerate(nodes)}
    for parent, child in arcs:
        adjacency[idx[child], idx[parent]] = 1
    return Dag(nodes, adjacency)


@pytest.fixture(scope="session")
def asia_dag() -> Dag:
    return dag_from_arcs(ASIA_NODES, ASIA_ARCS)


def sample_asia_like(n_obs: int, seed: int) -> Dataset:
    """Forward-sample the toy lung-disease network with its textbook CPTs.

    A stand-in for the published 5000-row export: same structure and
    conditional probabilities, different realization.
    """
    rng = np.random.default_rng(seed)
    asia = rng.random(n_obs) < 0.01
    smoking = rng.random(n_obs) < 0.5
    tub = rng.random(n_obs) < np.where(asia, 0.05, 0.01)
    lung = rng.random(n_obs) < np.where(smoking, 0.1, 0.01)
    bronc = rng.random(n_obs) < np.where(smoking, 0.6, 0.3)
    either = tub | lung
    xray = rng.random(n_obs) < np.where(either, 0.98, 0.05)
    p_dysp = np.select(
        [bronc & either, bronc & ~either, ~bronc & either],
        [0.9, 0.8, 0.7],
        default=0.1,
    )
    dysp = rng.random(n_obs) < p_dysp
    cols = np.column_stack(
        [asia, smoking, tub, lung, bronc, either, xray, dysp]
    ).astype(float)
    return Dataset(
        names=ASIA_NODES, columns=cols, distributions=("binomial",) * 8
    )


CASE_STUDY_NODES = (
    "AR", "pneumS", "female", "livdam", "eggs", "wormCount", "age", "adg",
)

# Ten-arc growth-performance structure used across strength/bootstrap tests.
CASE_STUDY_ARCS = (
    ("age", "AR"),
    ("age", "pneumS"),
    ("eggs", "livdam"),
    ("adg", "eggs"),
    ("AR", "wormCount"),
    ("eggs", "wormCount"),
    ("age", "wormCount"),
    ("adg", "wormCount"),
    ("female", "age"),
    ("age", "adg"),
)

CASE_STUDY_DISTS = {
    "AR": "binomial",
    "pneumS": "binomial",
    "female": "binomial",
    "livdam": "binomial",
    "eggs": "binomial",
    "wormCount": "poisson",
    "age": "gaussian",
    "adg": "gaussian",
}


@pytest.fixture(scope="session")
def case_study_dag() -> Dag:
    return dag_from_arcs(CASE_STUDY_NODES, CASE_STUDY_ARCS)


def random_dag(n: int, rng: np.random.Generator, p: float = 0.3) -> Dag:
    """Random DAG over a random causal order (test-local generator)."""
    names = tuple(f"x{i}" for i in range(n))
    perm = rng.permutation(n)
    adjacency = np.zeros((n, n), dtype=np.int8)
    for later in range(n):
        for earlier in range(later):
            if rng.random() < p:
                adjacency[perm[later], perm[earlier]] = 1
    return Dag(names, adjacency)


def random_cache(
    n: int,
    rng: np.random.Generator,
    max_parents: int | None = None,
    low: float = -10.0,
    high: float = 0.0,
    retained: np.ndarray | None = None,
) -> ScoreCache:
    """Cache with uniform random scores for every valid parent set."""
    nodes = tuple(f"x{i}" for i in range(n))
    constraints = ConstraintSet(nodes, retained=retained, max_parents=max_parents)
    masks, scores = [], []
    for i in range(n):
        m = enumerate_parent_sets(i, constraints)
        masks.append(np.array(m, dtype=np.int64))
        scores.append(rng.uniform(low, high, size=(len(m), 1)))
    return ScoreCache(
        nodes=nodes,
        distributions=("gaussian",) * n,
        method="bayes",
        fingerprint="test",
        constraints=constraints,
        masks=tuple(masks),
        scores=tuple(scores),
    )


def all_dag_parent_masks(n: int) -> np.ndarray:
    """Every DAG over n nodes as a row of per-node parent masks (oracle)."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    rows = []
    for bits in product((0, 1), repeat=len(pairs)):
        adjacency = np.zeros((n, n), dtype=np.int8)
        for bit, (i, j) in zip(bits, pairs):
            adjacency[i, j] = bit
        if find_cycle(adjacency) is None:
            rows.append(
                [sum(1 << j for j in range(n) if adjacency[i, j]) for i in range(n)]
            )
    return np.array(rows, dtype=np.int64)


def gaussian_chain_dataset(n_obs: int, seed: int) -> Dataset:
    """Three gaussian nodes a -> b -> c with unit effects."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n_obs)
    b = a + rng.normal(size=n_obs)
    c = b + rng.normal(size=n_obs)
    return Dataset(
        names=("a", "b", "c"),
        columns=np.column_stack([a, b, c]),
        distributions=("gaussian",) * 3,
    )


def mixed_dataset(n_obs: int, seed: int) -> Dataset:
    """One column of each family, linked g -> b -> p."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=n_obs)
    from scipy.special import expit

    b = (rng.random(n_obs) < expit(0.8 * g - 0.2)).astype(float)
    p = rng.poisson(np.exp(0.3 + 0.7 * b))
    return Dataset(
        names=("g", "b", "p"),
        columns=np.column_stack([g, b, p]),
        distributions=("gaussian", "binomial", "poisson"),
    )
