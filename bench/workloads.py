"""The benchmark's workloads: inputs, operations, digests and checks.

Every operation drives the public CLI in-process through
``abnkit.cli.main(argv)`` and passes every flag whose default depends on the
machine or the caller (``--jobs``, ``--seed``, ``--prior``,
``--max-parents``).  ``search --cache`` gets exactly the constraints its
cache was built with.

An operation returns a digest of its outputs.  A digest holds exact parts
(adjacency matrices, support matrices, counts: compared as text or integers)
and numeric parts (objectives, scores: compared within a relative
tolerance), see :func:`compare_digests`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from abnkit import cli
from abnkit.cache import cache_from_text
from abnkit.dag import Dag, dag_from_text, dag_to_text, parse_adjacency
from abnkit.data import build_design, format_dist_spec, load_dataset, standardize
from abnkit.exact import StructuralPrior, best_parents_table, dag_objective, most_probable_dag
from abnkit.glm import fit_node, frequentist_scores
from abnkit.simulate import SimSpec, simulate_data

import models

REL_TOL = 1e-8


class OpFailed(Exception):
    """A CLI call exited nonzero."""


def call_cli(argv: list[str]) -> None:
    """Run one CLI command in-process; its printed summary is discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"abnkit {' '.join(argv[:2])} exited {code}: {sink.getvalue()[-500:]}")


@dataclass(frozen=True)
class Inputs:
    directory: Path
    spec: SimSpec
    seed: int

    @property
    def data(self) -> Path:
        return self.directory / "data.csv"

    @property
    def dists(self) -> Path:
        return self.directory / "dists.txt"

    @property
    def true_dag(self) -> Path:
        return self.directory / "true-dag.txt"

    @property
    def cache(self) -> Path:
        return self.directory / "cache" / "cache.txt"

    def data_args(self) -> list[str]:
        return ["--data", str(self.data), "--dists", str(self.dists)]

    def load_cache(self):
        return cache_from_text(self.cache.read_text())


def write_inputs(spec: SimSpec, directory: Path, seed: int) -> Inputs:
    directory.mkdir(parents=True, exist_ok=True)
    ds = simulate_data(spec)
    inputs = Inputs(directory, spec, seed)
    inputs.data.write_text(ds.to_csv())
    inputs.dists.write_text(format_dist_spec(ds.dist_map()))
    inputs.true_dag.write_text(dag_to_text(spec.dag))
    return inputs


# --------------------------------------------------------------------------
# digests
# --------------------------------------------------------------------------


def _adjacency_text(path: Path) -> str:
    return dag_to_text(dag_from_text(path.read_text()))


def search_digest(out: Path) -> dict:
    manifest = json.loads((out / "manifest-search.json").read_text())
    digest = {
        "dag": _adjacency_text(out / "dag.txt"),
        "objective": manifest["config"]["total_objective"],
    }
    if (out / "scores.tsv").exists():
        rows = (out / "scores.tsv").read_text().splitlines()[1:]
        digest["parents"] = [r.split("\t")[1] for r in rows]
        digest["scores"] = [float(r.split("\t")[2]) for r in rows]
    return digest


def compare_digests(reference, got, where: str = "") -> list[str]:
    """Differences between two digests: floats within ``REL_TOL``
    relative, everything else exactly."""
    if isinstance(reference, dict) and isinstance(got, dict):
        if reference.keys() != got.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(reference)}"]
        out = []
        for key in reference:
            out += compare_digests(reference[key], got[key], f"{where}/{key}")
        return out
    if isinstance(reference, list) and isinstance(got, list):
        if len(reference) != len(got):
            return [f"{where}: length {len(got)} != {len(reference)}"]
        out = []
        for k, (a, b) in enumerate(zip(reference, got)):
            out += compare_digests(a, b, f"{where}[{k}]")
        return out
    if isinstance(reference, float) or isinstance(got, float):
        if isinstance(reference, (int, float)) and isinstance(got, (int, float)):
            if close(reference, got):
                return []
        return [f"{where}: {got!r} != {reference!r}"]
    return [] if reference == got else [f"{where}: {got!r} != {reference!r}"]


def close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


# --------------------------------------------------------------------------
# shared checks
# --------------------------------------------------------------------------


def _limit_parents(dag: Dag, max_parents: int) -> Dag:
    """The DAG with each node's parents cut to the first ``max_parents``."""
    adjacency = np.array(dag.adjacency)
    for i in range(dag.n_nodes):
        for j in np.flatnonzero(adjacency[i])[max_parents:]:
            adjacency[i, j] = 0
    return Dag(dag.nodes, adjacency)


def check_exact_search(digest: dict, inputs: Inputs, max_parents: int, prior: str,
                       score_of) -> list[str]:
    """An exact-search digest against independently computed node scores.

    ``score_of(node_index, parent_mask)`` gives the node score.  Checks the
    per-node scores, the objective as their prior-weighted sum, the parent
    limit, and that no DAG in the search space we know of scores higher:
    the generating DAG (cut to the parent limit) and the empty DAG.
    """
    problems = []
    dag = dag_from_text(digest["dag"])
    n = dag.n_nodes
    struct_prior = StructuralPrior(prior)

    def objective(d: Dag) -> float:
        return sum(score_of(i, m) + struct_prior.log_prior(n, bin(m).count("1"))
                   for i, m in enumerate(d.parent_masks()))

    if int(dag.adjacency.sum(axis=1).max()) > max_parents:
        problems.append("selected DAG exceeds the parent limit")
    masks = dag.parent_masks()
    for i, mask in enumerate(masks):
        if not close(digest["scores"][i], score_of(i, mask)):
            problems.append(f"node {dag.nodes[i]} score {digest['scores'][i]!r} "
                            f"!= refit {score_of(i, mask)!r}")
    if not close(digest["objective"], objective(dag)):
        problems.append("objective is not the prior-weighted sum of node scores")
    truth = _limit_parents(inputs.spec.dag, max_parents)
    for label, rival in (("generating", truth), ("empty", Dag(dag.nodes))):
        rival_objective = objective(rival)
        if digest["objective"] < rival_objective and not close(digest["objective"],
                                                               rival_objective):
            problems.append(f"the {label} DAG scores higher than the selected one")
    return problems


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


class Workload:
    name: str
    why: str
    sizes: dict[str, dict]

    def model(self, size: dict, seed: int) -> SimSpec:
        raise NotImplementedError

    def setup(self, directory: Path, seed: int, size: dict) -> Inputs:
        return write_inputs(self.model(size, seed), directory, seed)

    def op(self, inputs: Inputs, out: Path, size: dict) -> dict:
        raise NotImplementedError

    def check(self, digest: dict, inputs: Inputs, size: dict) -> list[str]:
        raise NotImplementedError

    def attempted(self, size: dict) -> int:
        """Attempted units per operation."""
        return 1

    def failed_units(self, digest: dict) -> int:
        """Failed units of an operation that completed."""
        return 0


class CachedWorkload(Workload):
    """A sparse random network; set-up also runs ``build-cache`` and the
    operations search that cache."""

    def model(self, size, seed):
        return models.sparse_model(size["n_nodes"], size["max_parents"], size["n_obs"], seed)

    def setup(self, directory, seed, size):
        inputs = super().setup(directory, seed, size)
        call_cli(["build-cache", *inputs.data_args(), "--method", "bayes",
                  "--max-parents", str(size["max_parents"]), "--jobs", "2",
                  "--out", str(inputs.cache.parent)])
        return inputs

    def search_args(self, inputs: Inputs, size: dict, prior: str) -> list[str]:
        return [*inputs.data_args(), "--cache", str(inputs.cache),
                "--method", "bayes", "--score", "mlik", "--prior", prior,
                "--max-parents", str(size["max_parents"]), "--jobs", "1",
                "--seed", str(inputs.seed)]


class ExactN5000(Workload):
    name = "exact-n5000"
    why = ("Large n: the GLM score cache is ~90% of the work and the DP is not, "
           "so a GLM/cache gain shows here and an exact-DP gain does not.")
    sizes = {"full": {"n_obs": 5000, "max_parents": 3},
             "smoke": {"n_obs": 100, "max_parents": 1}}

    def model(self, size, seed):
        return models.criterion7_model(size["n_obs"], seed)

    def op(self, inputs, out, size):
        digest = {}
        for method, score in (("bayes", "mlik"), ("mle", "bic")):
            call_cli(["search", "exact", *inputs.data_args(), "--method", method,
                      "--score", score, "--prior", "koivisto",
                      "--max-parents", str(size["max_parents"]), "--jobs", "1",
                      "--seed", str(inputs.seed), "--out", str(out / method)])
            digest[method] = search_digest(out / method)
        call_cli(["strength", *inputs.data_args(), "--dag", str(out / "bayes" / "dag.txt"),
                  "--rule", "fixed_k", "--bins", "8", "--jobs", "1",
                  "--out", str(out / "strength")])
        _, matrix = parse_adjacency((out / "strength" / "link-strength.txt").read_text())
        digest["strength"] = [float(v) for v in matrix.ravel()]
        return digest

    def check(self, digest, inputs, size):
        ds = standardize(load_dataset(inputs.data, inputs.dists))
        n_cand = len(ds.names) - 1

        def scorer(method):
            def score_of(i, mask):
                parents = [ds.names[j] for j in range(len(ds.names)) if mask >> j & 1]
                fit = fit_node(build_design(ds, ds.names[i], parents), method=method)
                if method == "bayes":
                    return fit.mlik
                return frequentist_scores(fit, ds.n_obs, n_cand).bic
            return score_of

        problems = []
        for method in ("bayes", "mle"):
            problems += [f"{method}: {p}" for p in check_exact_search(
                digest[method], inputs, size["max_parents"], "koivisto", scorer(method))]
        dag = dag_from_text(digest["bayes"]["dag"])
        strength = np.array(digest["strength"]).reshape(dag.adjacency.shape)
        if np.any(strength[dag.adjacency == 0] != 0) or np.any(strength < 0):
            problems.append("link strength is nonzero off the DAG's arcs or negative")
        return problems


class BootstrapN341(Workload):
    name = "bootstrap-n341"
    why = ("Many small caches where per-fit overhead dominates; the only workload "
           "that drives simulate, the grid posteriors and the worker pool.")
    sizes = {"full": {"n_obs": 341, "max_parents": 3, "replicates": 20},
             "smoke": {"n_obs": 100, "max_parents": 1, "replicates": 4}}
    threshold = 0.5

    def model(self, size, seed):
        return models.case_study_model(size["n_obs"], seed)

    def args(self, inputs: Inputs, size: dict, jobs: int, out: Path) -> list[str]:
        return ["bootstrap", *inputs.data_args(), "--dag", str(inputs.true_dag),
                "--replicates", str(size["replicates"]), "--threshold", str(self.threshold),
                "--mode", "directed", "--prior", "koivisto",
                "--max-parents", str(size["max_parents"]), "--n-grid", "1000",
                "--jobs", str(jobs), "--seed", str(inputs.seed), "--out", str(out)]

    def op(self, inputs, out, size):
        call_cli(self.args(inputs, size, 2, out))
        rows = (out / "replicates.tsv").read_text().splitlines()[1:]
        failures = out / "failures.tsv"
        return {
            "support": (out / "support.txt").read_text(),
            "pruned": _adjacency_text(out / "pruned-dag.txt"),
            "arc_counts": [int(r.split("\t")[1]) for r in rows],
            "scores": [float(r.split("\t")[2]) for r in rows],
            "failures": len(failures.read_text().splitlines()) if failures.exists() else 0,
        }

    def attempted(self, size):
        return size["replicates"]

    def failed_units(self, digest):
        return digest["failures"]

    def check(self, digest, inputs, size):
        problems = []
        n_ok = len(digest["scores"])
        if n_ok + digest["failures"] != size["replicates"]:
            problems.append("replicate rows plus failures differ from --replicates")
        _, support = parse_adjacency(digest["support"])
        if np.any(np.abs(support * n_ok - np.round(support * n_ok)) > 1e-9):
            problems.append(f"support is not a multiple of 1/{n_ok}")
        original = inputs.spec.dag.adjacency.astype(bool)
        expected = (original & (support >= self.threshold)).astype(np.int8)
        if digest["pruned"] != dag_to_text(Dag(inputs.spec.dag.nodes, expected)):
            problems.append("pruned DAG is not the original cut at the support threshold")
        return problems


class ExactDp18(CachedWorkload):
    name = "exact-dp18"
    why = ("Exact DP near its size limit on a cached 18-node problem: the best-parent "
           "tables dominate time and set peak memory; the GLM layer runs only in set-up.")
    sizes = {"full": {"n_nodes": 18, "n_obs": 200, "max_parents": 2},
             "smoke": {"n_nodes": 8, "n_obs": 60, "max_parents": 1}}
    priors = ("koivisto", "uninformative")

    def op(self, inputs, out, size):
        digest = {}
        for prior in self.priors:
            call_cli(["search", "exact", *self.search_args(inputs, size, prior),
                      "--out", str(out / prior)])
            digest[prior] = search_digest(out / prior)
        return digest

    def check(self, digest, inputs, size):
        cache = inputs.load_cache()
        problems = []
        for prior in self.priors:
            problems += [f"{prior}: {p}" for p in check_exact_search(
                digest[prior], inputs, size["max_parents"], prior, cache.score)]
        return problems


class Heuristic18(CachedWorkload):
    name = "heuristic-18"
    why = ("Hill-climbing alone on the cached 18-node problem, with enough restarts "
           "that its per-step cost sets the time; the exact optimum checks its result.")
    sizes = {"full": {"n_nodes": 18, "n_obs": 200, "max_parents": 2, "restarts": 24},
             "smoke": {"n_nodes": 8, "n_obs": 60, "max_parents": 1, "restarts": 2}}

    def op(self, inputs, out, size):
        call_cli(["search", "heuristic", *self.search_args(inputs, size, "koivisto"),
                  "--algorithm", "hill_climb", "--restarts", str(size["restarts"]),
                  "--max-steps", "500", "--threshold", "0.5", "--out", str(out)])
        digest = search_digest(out)
        trails: dict[int, list[float]] = {}
        for row in (out / "trace.tsv").read_text().splitlines()[1:]:
            restart, _, value = row.split("\t")
            trails.setdefault(int(restart), []).append(float(value))
        digest["trails"] = [trails[r] for r in sorted(trails)]
        digest["consensus"] = _adjacency_text(out / "consensus-dag.txt")
        return digest

    def check(self, digest, inputs, size):
        cache = inputs.load_cache()
        prior = StructuralPrior("koivisto")
        problems = []
        dag = dag_from_text(digest["dag"])
        if not close(digest["objective"], dag_objective(cache, dag, prior)):
            problems.append("best score is not the objective of its DAG")
        _, optimum = most_probable_dag(best_parents_table(cache, prior))
        if digest["objective"] > optimum and not close(digest["objective"], optimum):
            problems.append("hill-climbing beat the exact optimum")
        if len(digest["trails"]) != size["restarts"]:
            problems.append("trace has the wrong number of restarts")
        for r, trail in enumerate(digest["trails"]):
            # a move between score-equivalent DAGs has a delta of rounding
            # size, so the recomputed total may drop within the tolerance
            if any(b < a and not close(a, b) for a, b in zip(trail, trail[1:])):
                problems.append(f"restart {r} hill-climb trace decreases")
        if not close(digest["objective"], max(t[-1] for t in digest["trails"])):
            problems.append("best score is not the best restart's final score")
        return problems


WORKLOADS = {w.name: w for w in (ExactN5000(), BootstrapN341(), ExactDp18(), Heuristic18())}
