"""Batch command-line interface.

Subcommands cover the full analysis loop: build-cache, search (exact or
heuristic), fit, sweep-parents, simulate (dag or data), bootstrap, strength,
compare, info.  Every run writes its artifacts plus a machine-readable
manifest (inputs with fingerprints, effective configuration, seed, version)
into the output directory; identical inputs and seed reproduce identical
bytes.  The manifest fingerprints every file the command reads, ban/retain
matrix files included.  Failures exit nonzero with one machine-parsable line
on stderr and write no artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import secrets
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bootstrap import check_replicates, run_bootstrap
from .cache import (MLE_SCORES, build_cache, cache_from_text, cache_to_text, check_jobs,
                    default_score_type, ordered_sum)
from .dag import (
    ConstraintSet,
    Dag,
    dag_from_text,
    dag_to_dot,
    dag_to_text,
    format_adjacency,
    info_metrics,
    parse_adjacency,
    compare_dags,
)
from .data import Dataset, format_dist_spec, load_dataset, parse_dist_spec, standardize
from .errors import AbnError, ConfigError
from .exact import StructuralPrior, best_parents_table, most_probable_dag
from .formula import parse_formula
from .glm import check_grid_size, fit_dag, marginal_densities
from .heuristic import (HeuristicConfig, check_threshold, heuristic_search, majority_consensus,
                        repair_to_dag)
from .simulate import SimSpec, simulate_dag, simulate_data
from .strength import discretize, pls_matrix


def _resolve_seed(seed: int | None) -> int:
    """``seed``, which must not be negative, or a generated seed, printed."""
    if seed is None:
        seed = secrets.randbelow(2**31)
        print(f"seed not supplied; using generated seed {seed}")
    elif seed < 0:
        raise ConfigError(f"--seed must be at least 0, got {seed}")
    return seed


def _check_method_score(method: str, score: str | None) -> str:
    """The bayes method pairs with mlik; mle with the frequentist scores."""
    if score is None:
        return default_score_type(method)
    if method == "bayes" and score != "mlik":
        raise ConfigError(f"score {score!r} requires --method mle")
    if method == "mle" and score not in MLE_SCORES:
        raise ConfigError(f"score {score!r} requires --method bayes")
    return score


class _Run:
    """One command's run: every file it reads, fingerprinted where it is read,
    and every artifact it writes, held until :meth:`finish` writes them all
    with the manifest.  A command that raises writes nothing."""

    def __init__(self, args):
        check_jobs(args.jobs)
        self.args = args
        # no artifact depends on where it is written or on the worker count
        self.config = {key: value for key, value in vars(args).items()
                       if key not in ("command", "func", "jobs", "out")}
        self.inputs: dict[str, str] = {}
        self.artifacts: dict[str, str] = {}

    def read(self, path) -> str:
        """The text of file ``path``; the bytes decoded are the bytes fingerprinted."""
        if not Path(path).is_file():
            raise ConfigError(f"input file not readable: {path}")
        raw = Path(path).read_bytes()
        self.inputs[str(path)] = hashlib.sha256(raw).hexdigest()
        try:
            return raw.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8: {exc.reason}") from None

    def dag(self, path, nodes=None) -> Dag:
        """The DAG in adjacency file ``path``, checked against ``nodes`` if given."""
        dag = dag_from_text(self.read(path))
        if nodes is not None and dag.nodes != nodes:
            raise ConfigError("DAG nodes differ from data columns")
        return dag

    def data(self) -> tuple[Dataset, ConstraintSet]:
        """The dataset, gaussian columns standardised unless ``--no-standardize``,
        and the constraints of ``--ban``, ``--retain`` and ``--max-parents``."""
        args = self.args
        text = self.read(args.data)
        dists, group_var = parse_dist_spec(self.read(args.dists))
        ds = load_dataset(args.data, dists, group_var, text=text)
        if not args.no_standardize and "gaussian" in ds.distributions:
            ds = standardize(ds)
        banned = self._arcs(getattr(args, "ban", None), ds.names)
        retained = self._arcs(getattr(args, "retain", None), ds.names)
        return ds, ConstraintSet(ds.names, banned=banned, retained=retained,
                                 max_parents=getattr(args, "max_parents", None))

    def _arcs(self, source: str | None, nodes) -> np.ndarray | None:
        """An arc matrix given as a formula or as an adjacency file."""
        if source is None:
            return None
        if source.strip().startswith("~"):
            return parse_formula(source, nodes)
        names, matrix = parse_adjacency(self.read(source))
        if tuple(names) != tuple(nodes):
            raise ConfigError(f"constraint matrix nodes {names} differ from data columns")
        return matrix

    def write(self, name: str, text: str) -> None:
        self.artifacts[name] = text

    def finish(self, name: str) -> int:
        """Write the artifacts in the order recorded, then the manifest."""
        out = Path(self.args.out)
        out.mkdir(parents=True, exist_ok=True)
        for artifact, text in self.artifacts.items():
            (out / artifact).write_text(text)
        manifest = {"command": self.args.command, "config": self.config,
                    "inputs": self.inputs, "outputs": list(self.artifacts),
                    "version": __version__}
        (out / f"manifest-{name}.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        return 0


def _fit_coefficients(run: _Run, ds: Dataset, dag: Dag, method: str) -> dict:
    """Fit every node of ``dag`` and record ``coefficients.txt``."""
    fits = fit_dag(ds, dag, method=method)
    lines = [line for node in dag.nodes for line in fits[node].format_lines(node)]
    run.write("coefficients.txt", "\n".join(lines) + "\n")
    return fits


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_build_cache(args) -> int:
    run = _Run(args)
    ds, constraints = run.data()
    cache = build_cache(ds, constraints, method=args.method, jobs=args.jobs)
    run.config["fingerprint"] = cache.fingerprint
    run.write("cache.txt", cache_to_text(cache))
    print(f"scored {cache.n_entries} parent sets over {cache.n_nodes} nodes "
          f"({cache.n_failed} failures)")
    return run.finish("build-cache")


def cmd_search(args) -> int:
    run = _Run(args)
    if args.mode == "heuristic":
        check_threshold(args.threshold)
        seed = run.config["seed"] = _resolve_seed(args.seed)
        config = HeuristicConfig(
            algorithm=args.algorithm, restarts=args.restarts, max_steps=args.max_steps,
            tabu_length=args.tabu_length, initial_temperature=args.temperature,
            cooling_factor=args.cooling, seed=seed,
        )
    score = run.config["score"] = _check_method_score(args.method, args.score)
    ds, constraints = run.data()
    if args.cache:
        cache = cache_from_text(run.read(args.cache))
        cache.check_dataset(ds)
        cache = cache.restrict(constraints)
    else:
        cache = build_cache(ds, constraints, method=args.method, jobs=args.jobs)
    prior = StructuralPrior(args.prior)

    if args.mode == "exact":
        table = best_parents_table(cache, prior, score_type=score)
        dag, total = most_probable_dag(table)
        run.config["total_objective"] = total
        node_scores = [cache.score(i, mask, score) for i, mask in enumerate(dag.parent_masks())]
        breakdown = ["node\tparents\tscore"]
        for node, node_score in zip(dag.nodes, node_scores):
            parents = ":".join(sorted(dag.parents(node))) or "-"
            breakdown.append(f"{node}\t{parents}\t{node_score:.17g}")
        run.write("scores.tsv", "\n".join(breakdown) + "\n")
    else:
        trace = heuristic_search(cache, config, prior=prior, score_type=score,
                                 jobs=args.jobs)
        dag = trace.best().dag
        run.config["total_objective"] = trace.best().score
        lines = ["restart\tstep\tbest_score"]
        for r, restart in enumerate(trace.restarts):
            for s, value in enumerate(restart.best_scores):
                lines.append(f"{r}\t{s}\t{value:.17g}")
        run.write("trace.tsv", "\n".join(lines) + "\n")
        kept, freq = majority_consensus([r.dag for r in trace.restarts], args.threshold)
        run.write("consensus-frequency.txt", format_adjacency(cache.nodes, freq, fmt=".17g"))
        consensus = repair_to_dag(kept, freq, cache.nodes)
        run.write("consensus-dag.txt", dag_to_text(consensus))

    run.config["total_score"] = total_score = cache.dag_score(dag, score)
    run.write("dag.txt", dag_to_text(dag))
    run.write("dag.dot", dag_to_dot(dag, ds.dist_map()))
    _fit_coefficients(run, ds, dag, args.method)
    print(f"selected DAG with {dag.n_arcs} arcs; "
          f"total {score} = {total_score:.4f}")
    return run.finish("search")


def cmd_fit(args) -> int:
    run = _Run(args)
    if args.marginals:
        if args.method != "bayes":
            raise ConfigError("--marginals requires --method bayes")
        check_grid_size(args.n_grid)
    ds, _ = run.data()
    dag = run.dag(args.dag, ds.names)
    fits = _fit_coefficients(run, ds, dag, args.method)
    scores = {node: fit.mlik if args.method == "bayes" else fit.log_likelihood
              for node, fit in fits.items()}
    total = ordered_sum(scores.values())
    # a degraded fit says so: pruned predictors, Firth's penalty, no convergence
    score_rows = [f"{node}\t{scores[node]:.17g}\t{' '.join(fits[node].status()) or '-'}"
                  for node in dag.nodes]
    run.write("node-scores.tsv", "node\tscore\tstatus\n" + "\n".join(score_rows)
              + f"\ntotal\t{total:.17g}\n")
    run.config["total_" + ("mlik" if args.method == "bayes" else "loglik")] = total
    if args.marginals:
        rows = ["node\tparameter\tvalue\tdensity\tarea"]
        for node in dag.nodes:
            for dens in marginal_densities(fits[node], n_grid=args.n_grid):
                for g, d in zip(dens.grid, dens.density):
                    rows.append(f"{node}\t{dens.label}\t{g:.17g}\t{d:.17g}\t{dens.area:.6f}")
        run.write("marginals.tsv", "\n".join(rows) + "\n")
    print(f"fitted {len(fits)} nodes; total = {total:.4f}")
    return run.finish("fit")


def cmd_sweep_parents(args) -> int:
    run = _Run(args)
    if args.max < 1:
        raise ConfigError(f"--max needs a parent limit of at least 1, got {args.max}")
    score = run.config["score"] = _check_method_score(args.method, args.score)
    ds, arcs = run.data()

    def limited(limit: int) -> ConstraintSet:
        return ConstraintSet(ds.names, banned=arcs.banned, retained=arcs.retained,
                             max_parents=limit)

    rows = ["max_parents\ttotal_score\tn_arcs"]
    best = []
    full = build_cache(ds, limited(args.max), method=args.method, jobs=args.jobs)
    # no limit below the most parents a node retains admits any DAG
    for limit in range(max(1, int(arcs.retained.sum(axis=1).max())), args.max + 1):
        cache = full.restrict(limited(limit))
        table = best_parents_table(cache, StructuralPrior(args.prior), score_type=score)
        dag, _ = most_probable_dag(table)
        total = cache.dag_score(dag, score)
        best.append(total)
        rows.append(f"{limit}\t{total:.17g}\t{dag.n_arcs}")
        print(f"max_parents={limit}: total {score} = {total:.4f}, {dag.n_arcs} arcs")
    run.write("sweep.tsv", "\n".join(rows) + "\n")
    run.config["totals"] = best
    return run.finish("sweep-parents")


def cmd_simulate(args) -> int:
    run = _Run(args)
    if args.what == "dag":
        seed = run.config["seed"] = _resolve_seed(args.seed)
        dag = simulate_dag(args.nodes, args.arc_probability, seed)
        run.write("dag.txt", dag_to_text(dag))
        run.write("dag.dot", dag_to_dot(dag))
        print(f"simulated DAG with {dag.n_arcs} arcs over {args.nodes} nodes")
        return run.finish("simulate-dag")
    # the spec's own seed stands unless --seed replaces it
    overrides = {"n_obs": args.n_obs,
                 "seed": None if args.seed is None else _resolve_seed(args.seed)}
    spec = SimSpec.from_json(run.read(args.spec))
    spec = replace(spec, **{key: value for key, value in overrides.items() if value is not None})
    ds = simulate_data(spec)
    run.config.update(n_obs=spec.n_obs, seed=spec.seed)
    run.write("data.csv", ds.to_csv())
    run.write("dists.txt", format_dist_spec(ds.dist_map()))
    print(f"simulated {ds.n_obs} observations of {len(ds.names)} variables")
    return run.finish("simulate-data")


def cmd_bootstrap(args) -> int:
    run = _Run(args)
    check_replicates(args.replicates)
    check_threshold(args.threshold)
    check_grid_size(args.n_grid)
    seed = run.config["seed"] = _resolve_seed(args.seed)
    ds, constraints = run.data()
    dag = run.dag(args.dag)
    fits = fit_dag(ds, dag, method="bayes")
    report = run_bootstrap(
        fits, dag, ds, constraints,
        n_replicates=args.replicates, seed=seed,
        structural_prior=args.prior, threshold=args.threshold, mode=args.mode,
        n_grid=args.n_grid, jobs=args.jobs,
    )
    run.write("support.txt", format_adjacency(ds.names, report.support, fmt=".17g"))
    rows = ["replicate\tn_arcs\tscore"]
    rows += [f"{k}\t{d.n_arcs}\t{sc:.17g}" for k, d, sc in report.replicates]
    run.write("replicates.tsv", "\n".join(rows) + "\n")
    run.write("pruned-dag.txt", dag_to_text(report.pruned))
    run.write("pruned-dag.dot", dag_to_dot(report.pruned, ds.dist_map()))
    if report.failures:
        run.write("failures.tsv",
                  "\n".join(f"{k}\t{msg}" for k, msg in report.failures) + "\n")
    arc_counts = [d.n_arcs for _, d, _ in report.replicates]
    print(f"{len(arc_counts)} replicates; original {dag.n_arcs} arcs, "
          f"median replicate {int(np.median(arc_counts))}, "
          f"pruned {report.pruned.n_arcs}")
    return run.finish("bootstrap")


def cmd_strength(args) -> int:
    run = _Run(args)
    ds, _ = run.data()
    dag = run.dag(args.dag, ds.names)
    disc = discretize(ds, rule=args.rule, fixed_k=args.bins)
    matrix = pls_matrix(dag, disc)
    run.write("link-strength.txt", format_adjacency(ds.names, matrix, fmt=".4g"))
    run.write("dag-weighted.dot", dag_to_dot(dag, ds.dist_map(), edge_weights=matrix))
    print(format_adjacency(ds.names, np.round(matrix, 3), fmt=".3f"), end="")
    return run.finish("strength")


def _record_lines(record) -> list[str]:
    """One ``name<TAB>value`` line per field of a dataclass, in declaration
    order: ints as ints, floats to six significant digits."""
    return [f"{f.name}\t{getattr(record, f.name):{'d' if f.type == 'int' else '.6g'}}"
            for f in fields(record)]


def cmd_compare(args) -> int:
    run = _Run(args)
    lines = _record_lines(compare_dags(run.dag(args.reference), run.dag(args.candidate)))
    run.write("comparison.tsv", "\n".join(lines) + "\n")
    print("\n".join(lines))
    return run.finish("compare")


def cmd_info(args) -> int:
    run = _Run(args)
    lines = _record_lines(info_metrics(run.dag(args.dag)))
    run.write("info.tsv", "\n".join(lines) + "\n")
    print("\n".join(lines))
    return run.finish("info")


# --------------------------------------------------------------------------
# argument wiring
# --------------------------------------------------------------------------


def _add_data_args(p, constraints=True, max_parents=True):
    p.add_argument("--data", required=True, help="comma-delimited data file with header")
    p.add_argument("--dists", required=True,
                   help="column=distribution spec file (binomial/gaussian/poisson)")
    p.add_argument("--no-standardize", action="store_true",
                   help="keep gaussian columns on their raw scale")
    if constraints:
        p.add_argument("--ban", help="banned arcs: formula (~child|parent) or matrix file")
        p.add_argument("--retain", help="retained arcs: formula or matrix file")
    if constraints and max_parents:
        p.add_argument("--max-parents", type=int, default=4,
                       help="parent-set cardinality limit (default 4)")


def _add_common(p, seed=False):
    p.add_argument("--out", default=".", help="output directory (default .)")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="worker parallelism (default: available cores)")
    if seed:
        p.add_argument("--seed", type=int, help="RNG seed; generated and printed if omitted")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abnkit",
        description="Additive Bayesian network learning toolkit",
    )
    parser.add_argument("--version", action="version", version=f"abnkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-cache", help="score all valid parent sets per node")
    _add_data_args(p)
    p.add_argument("--method", choices=("bayes", "mle"), default="bayes")
    _add_common(p)
    p.set_defaults(func=cmd_build_cache)

    p = sub.add_parser("search", help="find a high-scoring DAG")
    p.add_argument("mode", choices=("exact", "heuristic"))
    _add_data_args(p)
    p.add_argument("--cache", help="reuse a cache built under these or looser constraints")
    p.add_argument("--method", choices=("bayes", "mle"), default="bayes")
    p.add_argument("--score", help="mlik (bayes) or loglik/aic/bic/mdl (mle)")
    p.add_argument("--prior", choices=("koivisto", "uninformative"), default="koivisto")
    p.add_argument("--algorithm", choices=("hill_climb", "tabu", "simulated_annealing"),
                   default="hill_climb", help="heuristic mode only")
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--max-steps", type=int, default=500)
    p.add_argument("--tabu-length", type=int, default=10)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--cooling", type=float, default=0.995)
    p.add_argument("--threshold", type=float, default=0.5,
                   help="majority-consensus threshold over restarts")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("fit", help="fit one DAG and report coefficients")
    _add_data_args(p, constraints=False)
    p.add_argument("--dag", required=True, help="adjacency text file")
    p.add_argument("--method", choices=("bayes", "mle"), default="bayes")
    p.add_argument("--marginals", action="store_true",
                   help="emit grid marginal densities (bayes only)")
    p.add_argument("--n-grid", type=int, default=1000)
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sweep-parents",
                       help="exact search under increasing parent limits")
    _add_data_args(p, max_parents=False)
    p.add_argument("--max", type=int, default=7, help="largest limit to try")
    p.add_argument("--method", choices=("bayes", "mle"), default="bayes")
    p.add_argument("--score")
    p.add_argument("--prior", choices=("koivisto", "uninformative"), default="koivisto")
    _add_common(p)
    p.set_defaults(func=cmd_sweep_parents)

    p = sub.add_parser("simulate", help="simulate a DAG or a dataset")
    p.add_argument("what", choices=("dag", "data"))
    p.add_argument("--nodes", type=int, default=8, help="dag mode: node count")
    p.add_argument("--arc-probability", type=float, default=0.3,
                   help="dag mode: per-arc inclusion probability")
    p.add_argument("--spec", help="data mode: SimSpec JSON file")
    p.add_argument("--n-obs", type=int, help="data mode: override spec n_obs")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bootstrap", help="parametric bootstrap of a fitted model")
    _add_data_args(p)
    p.add_argument("--dag", required=True, help="adjacency text file of the model")
    p.add_argument("--replicates", type=int, default=200)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--mode", choices=("directed", "undirected"), default="directed")
    p.add_argument("--prior", choices=("koivisto", "uninformative"), default="koivisto")
    p.add_argument("--n-grid", type=int, default=1000)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("strength", help="percentage link strength of a DAG's arcs")
    _add_data_args(p, constraints=False)
    p.add_argument("--dag", required=True)
    p.add_argument("--rule", choices=("fixed_k", "sturges", "scott", "freedman_diaconis"),
                   default="fixed_k")
    p.add_argument("--bins", type=int, default=8, help="bin count for fixed_k")
    _add_common(p)
    p.set_defaults(func=cmd_strength)

    p = sub.add_parser("compare", help="confusion metrics between two DAG files")
    p.add_argument("reference")
    p.add_argument("candidate")
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("info", help="structural metrics of a DAG file")
    p.add_argument("dag")
    _add_common(p)
    p.set_defaults(func=cmd_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AbnError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
