"""Random DAG generation and forward simulation.

Data are simulated by ancestral sampling: nodes are visited in topological
order and each draws from its family with linear predictor
``intercept + sum(coef * parent value)`` on the link scale.  A
:class:`SimSpec` fixes every coefficient; the parametric bootstrap draws
them from posterior grids before calling :func:`simulate_data`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import families
from .dag import Dag, topological_order
from .data import Dataset
from .errors import AbnError, ConfigError, PoissonOverflow

POISSON_MEAN_GUARD = 1e9


def simulate_dag(n_nodes: int, arc_probability: float, seed: int) -> Dag:
    """Random DAG: uniform node permutation, then each permitted
    earlier-to-later arc included independently with ``arc_probability``.

    Acyclic by construction; the label permutation ensures node order
    carries no information about the topology.
    """
    if n_nodes < 1:
        raise ConfigError(f"a DAG needs at least 1 node, got {n_nodes}")
    if not 0.0 <= arc_probability <= 1.0:
        raise AbnError("arc_probability must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    names = tuple(f"v{i + 1}" for i in range(n_nodes))
    perm = rng.permutation(n_nodes)
    adjacency = np.zeros((n_nodes, n_nodes), dtype=np.int8)
    # position in `perm` is the causal order; arcs go earlier -> later
    for later in range(n_nodes):
        for earlier in range(later):
            if rng.random() < arc_probability:
                adjacency[perm[later], perm[earlier]] = 1
    return Dag(names, adjacency)


@dataclass(frozen=True)
class SimSpec:
    """Everything needed to forward-simulate one dataset.

    ``coefficients[node]`` maps ``(Intercept)`` and each parent name to its
    coefficient on the link scale; gaussian nodes also need ``sd``.
    """

    dag: Dag
    families: dict[str, str]
    coefficients: dict[str, dict[str, float]]
    sd: dict[str, float] = field(default_factory=dict)
    n_obs: int = 100
    seed: int = 0

    def __post_init__(self):
        for node in self.dag.nodes:
            fam = families.check_family(self.families[node])
            coefs = self.coefficients[node]
            expected = {"(Intercept)", *self.dag.parents(node)}
            if set(coefs) != expected:
                raise AbnError(
                    f"node {node!r} needs coefficients for exactly {sorted(expected)}"
                )
            if not all(map(math.isfinite, coefs.values())):
                raise ConfigError(f"node {node!r} has a non-finite coefficient")
            # NaN fails the comparison too
            if fam == "gaussian" and not 0.0 < self.sd.get(node, 0.0) < math.inf:
                raise ConfigError(f"gaussian node {node!r} needs a positive finite sd")
        if self.n_obs < 1:
            raise AbnError("n_obs must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be at least 0, got {self.seed}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "nodes": list(self.dag.nodes),
                "adjacency": self.dag.adjacency.tolist(),
                "families": self.families,
                "coefficients": self.coefficients,
                "sd": self.sd,
                "n_obs": self.n_obs,
                "seed": self.seed,
            },
            indent=2,
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "SimSpec":
        try:
            raw = json.loads(text)
            return SimSpec(
                dag=Dag(raw["nodes"], np.array(raw["adjacency"], dtype=float)),
                families={k: str(v) for k, v in raw["families"].items()},
                coefficients={
                    node: {k: float(v) for k, v in coefs.items()}
                    for node, coefs in raw["coefficients"].items()
                },
                sd={k: float(v) for k, v in raw.get("sd", {}).items()},
                n_obs=_whole(raw, "n_obs"),
                seed=_whole(raw, "seed"),
            )
        except json.JSONDecodeError as exc:
            raise ConfigError(f"simulation spec is not JSON: {exc}") from None
        except KeyError as exc:
            raise ConfigError(f"simulation spec lacks the key {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"simulation spec has a value of the wrong type: {exc}") from None


def _whole(raw: dict, key: str) -> int:
    """``raw[key]`` as an int: a JSON integer, or a float with an integral
    value; a fraction or a boolean is a TypeError, not a silent truncation."""
    value = raw[key]
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not float(value).is_integer()):
        raise TypeError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def simulate_data(spec: SimSpec) -> Dataset:
    """Ancestral sampling of ``spec.n_obs`` observations.

    binomial -> Bernoulli(expit eta), poisson -> Poisson(exp eta), gaussian
    -> Normal(eta, sd).  A poisson mean beyond the overflow guard aborts the
    draw with a diagnostic rather than fabricating counts.
    """
    rng = np.random.default_rng(spec.seed)
    dag = spec.dag
    values = np.zeros((spec.n_obs, dag.n_nodes))
    for node in topological_order(dag):
        i = dag.index(node)
        coefs = spec.coefficients[node]
        eta = np.full(spec.n_obs, coefs["(Intercept)"])
        for parent in dag.parents(node):
            eta += coefs[parent] * values[:, dag.index(parent)]
        fam = spec.families[node]
        if fam == "binomial":
            values[:, i] = rng.random(spec.n_obs) < families.mean(fam, eta)
        elif fam == "poisson":
            mean = families.mean(fam, eta)
            if np.any(~np.isfinite(mean)) or np.any(mean > POISSON_MEAN_GUARD):
                raise PoissonOverflow(
                    f"poisson node {node!r} has mean beyond {POISSON_MEAN_GUARD:g}; "
                    "check coefficients"
                )
            values[:, i] = rng.poisson(mean)
        else:
            values[:, i] = rng.normal(eta, spec.sd[node])
    return Dataset(
        names=dag.nodes,
        columns=values,
        distributions=tuple(spec.families[v] for v in dag.nodes),
    )
