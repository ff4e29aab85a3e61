"""Batch command-line interface.

Subcommands cover the full analysis loop: build-cache, search (exact or
heuristic), fit, sweep-parents, simulate (dag or data), bootstrap, strength,
compare, info.  Every run writes its artifacts plus a machine-readable
manifest (inputs with fingerprints, effective configuration, seed, version)
into the output directory; identical inputs and seed reproduce identical
bytes.  Failures exit nonzero with one machine-parsable line on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import secrets
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bootstrap import run_bootstrap
from .cache import MLE_SCORES, build_cache, cache_from_text, cache_to_text, default_score_type
from .dag import (
    ConstraintSet,
    dag_from_text,
    dag_to_dot,
    dag_to_text,
    format_adjacency,
    info_metrics,
    parse_adjacency,
    compare_dags,
)
from .data import Dataset, build_design, format_dist_spec, load_dataset, standardize
from .errors import AbnError, ConfigError
from .exact import StructuralPrior, best_parents_table, most_probable_dag
from .formula import parse_formula
from .glm import PriorSpec, fit_dag, marginal_densities
from .heuristic import HeuristicConfig, heuristic_search, majority_consensus, repair_to_dag
from .simulate import SimSpec, simulate_dag, simulate_data
from .strength import discretize, pls_matrix


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _require_readable(*paths):
    for p in paths:
        if p is None:
            continue
        if not Path(p).is_file():
            raise ConfigError(f"input file not readable: {p}")


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    generated = secrets.randbelow(2**31)
    print(f"seed not supplied; using generated seed {generated}")
    return generated


def _check_method_score(method: str, score: str | None) -> str:
    """The bayes method pairs with mlik; mle with the frequentist scores."""
    if score is None:
        return default_score_type(method)
    if method == "bayes" and score != "mlik":
        raise ConfigError(f"score {score!r} requires --method mle")
    if method == "mle" and score not in MLE_SCORES:
        raise ConfigError(f"score {score!r} requires --method bayes")
    return score


def _load_inputs(args) -> tuple[Dataset, ConstraintSet]:
    _require_readable(args.data, args.dists)
    ds = load_dataset(args.data, args.dists)
    if not args.no_standardize and "gaussian" in ds.distributions:
        ds = standardize(ds)
    constraints = _constraints_from_args(args, ds.names, getattr(args, "max_parents", None))
    return ds, constraints


def _constraint_matrix(source: str | None, nodes) -> np.ndarray | None:
    if source is None:
        return None
    if source.strip().startswith("~"):
        return parse_formula(source, nodes)
    _require_readable(source)
    names, matrix = parse_adjacency(Path(source).read_text())
    if tuple(names) != tuple(nodes):
        raise ConfigError(f"constraint matrix nodes {names} differ from data columns")
    return matrix


def _constraints_from_args(args, nodes, max_parents: int | None) -> ConstraintSet:
    return ConstraintSet(
        nodes,
        banned=_constraint_matrix(getattr(args, "ban", None), nodes),
        retained=_constraint_matrix(getattr(args, "retain", None), nodes),
        max_parents=max_parents,
    )


def _write(out_dir: Path, name: str, text: str, manifest: dict) -> Path:
    path = out_dir / name
    path.write_text(text)
    manifest["outputs"].append(name)
    return path


def _finish(args, manifest: dict, out_dir: Path, command: str) -> int:
    for key in ("data", "dists", "dag", "cache", "spec", "reference", "candidate"):
        value = getattr(args, key, None)
        if value and Path(str(value)).is_file():
            manifest["inputs"][str(value)] = _sha256(Path(str(value)))
    manifest["version"] = __version__
    (out_dir / f"manifest-{command}.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return 0


def _manifest(args, **config) -> dict:
    return {"command": args.command, "config": config, "inputs": {}, "outputs": []}


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_build_cache(args) -> int:
    ds, constraints = _load_inputs(args)
    cache = build_cache(ds, constraints, method=args.method, priors=PriorSpec(),
                        jobs=args.jobs)
    out = _out_dir(args)
    manifest = _manifest(args, method=args.method, max_parents=args.max_parents,
                         ban=args.ban, retain=args.retain,
                         standardize=not args.no_standardize,
                         fingerprint=cache.fingerprint)
    _write(out, "cache.txt", cache_to_text(cache), manifest)
    print(f"scored {cache.n_entries} parent sets over {cache.n_nodes} nodes "
          f"({len(cache.diagnostics)} failures)")
    return _finish(args, manifest, out, "build-cache")


def cmd_search(args) -> int:
    ds, constraints = _load_inputs(args)
    score = _check_method_score(args.method, args.score)
    if args.cache:
        _require_readable(args.cache)
        cache = cache_from_text(Path(args.cache).read_text())
        cache.check_dataset(ds)
        cache = cache.restrict(constraints)
    else:
        cache = build_cache(ds, constraints, method=args.method, jobs=args.jobs)
    out = _out_dir(args)
    prior = StructuralPrior(args.prior)
    manifest = _manifest(args, mode=args.mode, method=args.method, score=score,
                         prior=args.prior, max_parents=args.max_parents,
                         ban=args.ban, retain=args.retain)

    if args.mode == "exact":
        table = best_parents_table(cache, prior, score_type=score)
        dag, total = most_probable_dag(table)
        manifest["config"]["total_objective"] = total
        manifest["config"]["total_score"] = cache.dag_score(dag, score)
        breakdown = ["node\tparents\tscore"]
        for i, node in enumerate(dag.nodes):
            parents = ":".join(sorted(dag.parents(node))) or "-"
            breakdown.append(f"{node}\t{parents}\t{cache.score(i, dag.parent_masks()[i], score):.17g}")
        _write(out, "scores.tsv", "\n".join(breakdown) + "\n", manifest)
    else:
        seed = _resolve_seed(args.seed)
        manifest["config"]["seed"] = seed
        config = HeuristicConfig(
            algorithm=args.algorithm,
            restarts=args.restarts,
            max_steps=args.max_steps,
            tabu_length=args.tabu_length,
            initial_temperature=args.temperature,
            cooling_factor=args.cooling,
            seed=seed,
        )
        trace = heuristic_search(cache, config, prior=prior, score_type=score,
                                 jobs=args.jobs)
        dag = trace.best().dag
        manifest["config"]["total_objective"] = trace.best().score
        lines = ["restart\tstep\tbest_score"]
        for r, restart in enumerate(trace.restarts):
            for s, value in enumerate(restart.best_scores):
                lines.append(f"{r}\t{s}\t{value:.17g}")
        _write(out, "trace.tsv", "\n".join(lines) + "\n", manifest)
        kept, freq = majority_consensus([r.dag for r in trace.restarts], args.threshold)
        _write(out, "consensus-frequency.txt",
               format_adjacency(cache.nodes, freq, fmt=".17g"), manifest)
        consensus = repair_to_dag(kept, freq, cache.nodes)
        _write(out, "consensus-dag.txt", dag_to_text(consensus), manifest)

    _write(out, "dag.txt", dag_to_text(dag), manifest)
    _write(out, "dag.dot", dag_to_dot(dag, ds.dist_map()), manifest)
    fits = fit_dag(ds, dag, method=args.method)
    coef_lines = []
    for node in dag.nodes:
        coef_lines.extend(fits[node].format_lines(node))
    _write(out, "coefficients.txt", "\n".join(coef_lines) + "\n", manifest)
    print(f"selected DAG with {dag.n_arcs} arcs; "
          f"total {score} = {cache.dag_score(dag, score):.4f}")
    return _finish(args, manifest, out, "search")


def cmd_fit(args) -> int:
    ds, _ = _load_inputs(args)
    _require_readable(args.dag)
    dag = dag_from_text(Path(args.dag).read_text())
    if dag.nodes != ds.names:
        raise ConfigError("DAG nodes differ from data columns")
    out = _out_dir(args)
    manifest = _manifest(args, method=args.method,
                         standardize=not args.no_standardize, n_grid=args.n_grid)
    fits = fit_dag(ds, dag, method=args.method)
    lines = []
    for node in dag.nodes:
        lines.extend(fits[node].format_lines(node))
    _write(out, "coefficients.txt", "\n".join(lines) + "\n", manifest)
    if args.method == "bayes":
        total = sum(f.mlik for f in fits.values())
        score_rows = [f"{node}\t{fits[node].mlik:.17g}" for node in dag.nodes]
    else:
        total = sum(f.log_likelihood for f in fits.values())
        score_rows = [f"{node}\t{fits[node].log_likelihood:.17g}" for node in dag.nodes]
    _write(out, "node-scores.tsv",
           "node\tscore\n" + "\n".join(score_rows) + f"\ntotal\t{total:.17g}\n", manifest)
    manifest["config"]["total_" + ("mlik" if args.method == "bayes" else "loglik")] = total
    if args.marginals:
        if args.method != "bayes":
            raise ConfigError("--marginals requires --method bayes")
        rows = ["node\tparameter\tvalue\tdensity\tarea"]
        for node in dag.nodes:
            design = build_design(ds, node, dag.parents(node))
            for dens in marginal_densities(fits[node], design, PriorSpec(),
                                           n_grid=args.n_grid):
                for g, d in zip(dens.grid, dens.density):
                    rows.append(f"{node}\t{dens.label}\t{g:.17g}\t{d:.17g}\t{dens.area:.6f}")
        _write(out, "marginals.tsv", "\n".join(rows) + "\n", manifest)
    print(f"fitted {len(fits)} nodes; total = {total:.4f}")
    return _finish(args, manifest, out, "fit")


def cmd_sweep_parents(args) -> int:
    ds, _ = _load_inputs(args)
    score = _check_method_score(args.method, args.score)
    out = _out_dir(args)
    manifest = _manifest(args, method=args.method, score=score, prior=args.prior,
                         max=args.max, ban=args.ban, retain=args.retain)
    rows = ["max_parents\ttotal_score\tn_arcs"]
    best = []
    full = build_cache(ds, _constraints_from_args(args, ds.names, args.max),
                       method=args.method, jobs=args.jobs)
    for limit in range(1, args.max + 1):
        cache = full.restrict(_constraints_from_args(args, ds.names, limit))
        table = best_parents_table(cache, StructuralPrior(args.prior), score_type=score)
        dag, _ = most_probable_dag(table)
        total = cache.dag_score(dag, score)
        best.append(total)
        rows.append(f"{limit}\t{total:.17g}\t{dag.n_arcs}")
        print(f"max_parents={limit}: total {score} = {total:.4f}, {dag.n_arcs} arcs")
    _write(out, "sweep.tsv", "\n".join(rows) + "\n", manifest)
    manifest["config"]["totals"] = best
    return _finish(args, manifest, out, "sweep-parents")


def cmd_simulate(args) -> int:
    out = _out_dir(args)
    if args.what == "dag":
        seed = _resolve_seed(args.seed)
        dag = simulate_dag(args.nodes, args.arc_probability, seed)
        manifest = _manifest(args, what="dag", nodes=args.nodes,
                             arc_probability=args.arc_probability, seed=seed)
        _write(out, "dag.txt", dag_to_text(dag), manifest)
        _write(out, "dag.dot", dag_to_dot(dag), manifest)
        print(f"simulated DAG with {dag.n_arcs} arcs over {args.nodes} nodes")
        return _finish(args, manifest, out, "simulate-dag")
    _require_readable(args.spec)
    spec = SimSpec.from_json(Path(args.spec).read_text())
    if args.seed is not None or args.n_obs is not None:
        spec = SimSpec(
            dag=spec.dag, families=spec.families, coefficients=spec.coefficients,
            sd=spec.sd, n_obs=args.n_obs or spec.n_obs,
            seed=args.seed if args.seed is not None else spec.seed,
        )
    ds = simulate_data(spec)
    manifest = _manifest(args, what="data", n_obs=spec.n_obs, seed=spec.seed)
    _write(out, "data.csv", ds.to_csv(), manifest)
    _write(out, "dists.txt", format_dist_spec(ds.dist_map()), manifest)
    print(f"simulated {ds.n_obs} observations of {len(ds.names)} variables")
    return _finish(args, manifest, out, "simulate-data")


def cmd_bootstrap(args) -> int:
    ds, constraints = _load_inputs(args)
    _require_readable(args.dag)
    dag = dag_from_text(Path(args.dag).read_text())
    seed = _resolve_seed(args.seed)
    out = _out_dir(args)
    manifest = _manifest(args, replicates=args.replicates, seed=seed,
                         threshold=args.threshold, mode=args.mode,
                         prior=args.prior, max_parents=args.max_parents,
                         ban=args.ban, retain=args.retain)
    fits = fit_dag(ds, dag, method="bayes")
    report = run_bootstrap(
        fits, dag, ds, constraints,
        n_replicates=args.replicates, seed=seed,
        structural_prior=args.prior, threshold=args.threshold, mode=args.mode,
        n_grid=args.n_grid, jobs=args.jobs,
    )
    _write(out, "support.txt",
           format_adjacency(ds.names, report.support, fmt=".17g"), manifest)
    rows = ["replicate\tn_arcs\tscore"]
    for k, (arcs, sc) in enumerate(zip(report.arc_counts, report.replicate_scores)):
        rows.append(f"{k}\t{arcs}\t{sc:.17g}")
    _write(out, "replicates.tsv", "\n".join(rows) + "\n", manifest)
    _write(out, "pruned-dag.txt", dag_to_text(report.pruned), manifest)
    _write(out, "pruned-dag.dot", dag_to_dot(report.pruned, ds.dist_map()), manifest)
    if report.failures:
        _write(out, "failures.tsv",
               "\n".join(f"{k}\t{msg}" for k, msg in report.failures) + "\n", manifest)
    print(f"{len(report.replicate_dags)} replicates; original {dag.n_arcs} arcs, "
          f"median replicate {int(np.median(report.arc_counts))}, "
          f"pruned {report.pruned.n_arcs}")
    return _finish(args, manifest, out, "bootstrap")


def cmd_strength(args) -> int:
    ds, _ = _load_inputs(args)
    _require_readable(args.dag)
    dag = dag_from_text(Path(args.dag).read_text())
    if dag.nodes != ds.names:
        raise ConfigError("DAG nodes differ from data columns")
    out = _out_dir(args)
    manifest = _manifest(args, rule=args.rule, bins=args.bins)
    disc = discretize(ds, rule=args.rule, fixed_k=args.bins)
    matrix = pls_matrix(dag, disc)
    _write(out, "link-strength.txt",
           format_adjacency(ds.names, matrix, fmt=".4g"), manifest)
    _write(out, "dag-weighted.dot",
           dag_to_dot(dag, ds.dist_map(), edge_weights=matrix), manifest)
    print(format_adjacency(ds.names, np.round(matrix, 3), fmt=".3f"), end="")
    return _finish(args, manifest, out, "strength")


def cmd_compare(args) -> int:
    _require_readable(args.reference, args.candidate)
    ref = dag_from_text(Path(args.reference).read_text())
    cand = dag_from_text(Path(args.candidate).read_text())
    result = compare_dags(ref, cand)
    out = _out_dir(args)
    manifest = _manifest(args, reference=str(args.reference),
                         candidate=str(args.candidate))
    fields = ("tpr", "fpr", "accuracy", "g_measure", "f1", "ppv",
              "false_omission_rate", "hamming", "tp", "fp", "tn", "fn")
    lines = [f"{name}\t{getattr(result, name):.6g}" for name in fields]
    _write(out, "comparison.tsv", "\n".join(lines) + "\n", manifest)
    print("\n".join(lines))
    return _finish(args, manifest, out, "compare")


def cmd_info(args) -> int:
    _require_readable(args.dag)
    dag = dag_from_text(Path(args.dag).read_text())
    metrics = info_metrics(dag)
    out = _out_dir(args)
    manifest = _manifest(args, dag=str(args.dag))
    lines = [
        f"n_nodes\t{metrics.n_nodes}",
        f"n_arcs\t{metrics.n_arcs}",
        f"avg_markov_blanket\t{metrics.avg_markov_blanket:.6g}",
        f"avg_neighborhood\t{metrics.avg_neighborhood:.6g}",
        f"avg_parents\t{metrics.avg_parents:.6g}",
        f"avg_children\t{metrics.avg_children:.6g}",
    ]
    _write(out, "info.tsv", "\n".join(lines) + "\n", manifest)
    print("\n".join(lines))
    return _finish(args, manifest, out, "info")


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
