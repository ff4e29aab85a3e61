import collections
import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import abnkit.bootstrap
from abnkit.cli import build_parser, main
from abnkit.dag import dag_from_text, dag_to_text, format_adjacency
from abnkit.data import Dataset, format_dist_spec
from abnkit.simulate import SimSpec, simulate_data

from conftest import dag_from_arcs


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small mixed dataset on disk plus its dist spec and true DAG file."""
    root = tmp_path_factory.mktemp("cli")
    dag = dag_from_arcs(("g", "b", "p"), (("g", "b"), ("b", "p")))
    spec = SimSpec(
        dag=dag,
        families={"g": "gaussian", "b": "binomial", "p": "poisson"},
        coefficients={"g": {"(Intercept)": 0.0},
                      "b": {"(Intercept)": -0.2, "g": 1.1},
                      "p": {"(Intercept)": 0.3, "b": 0.8}},
        sd={"g": 1.0},
        n_obs=250,
        seed=21,
    )
    ds = simulate_data(spec)
    (root / "data.csv").write_text(ds.to_csv())
    (root / "dists.txt").write_text(format_dist_spec(ds.dist_map()))
    from abnkit.dag import dag_to_text

    (root / "true-dag.txt").write_text(dag_to_text(dag))
    (root / "simspec.json").write_text(spec.to_json())
    return root


def run(args):
    return main([str(a) for a in args])


class TestSearchCommand:
    def test_exact_search_writes_artifacts(self, workspace, tmp_path):
        out = tmp_path / "run"
        code = run(["search", "exact", "--data", workspace / "data.csv",
                    "--dists", workspace / "dists.txt", "--max-parents", "2",
                    "--out", out, "--jobs", "1"])
        assert code == 0
        for name in ("dag.txt", "dag.dot", "scores.tsv", "coefficients.txt",
                     "manifest-search.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest-search.json").read_text())
        assert manifest["inputs"]
        assert "total_score" in manifest["config"]

    def test_idempotent_artifacts(self, workspace, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(["search", "exact", "--data", workspace / "data.csv",
                 "--dists", workspace / "dists.txt", "--max-parents", "2",
                 "--out", out, "--jobs", "1"])
            outs.append(out)
        for artifact in ("dag.txt", "scores.tsv", "coefficients.txt",
                         "manifest-search.json"):
            a = (outs[0] / artifact).read_bytes()
            b = (outs[1] / artifact).read_bytes()
            assert a == b, artifact

    def test_heuristic_with_seed(self, workspace, tmp_path, capsys):
        out = tmp_path / "h"
        code = run(["search", "heuristic", "--data", workspace / "data.csv",
                    "--dists", workspace / "dists.txt", "--max-parents", "2",
                    "--algorithm", "tabu", "--restarts", "3", "--seed", "5",
                    "--out", out, "--jobs", "1"])
        assert code == 0
        trace = (out / "trace.tsv").read_text().splitlines()
        assert trace[0] == "restart\tstep\tbest_score"
        assert (out / "consensus-dag.txt").exists()
        # the manifest records the total the run prints, as an exact search's does
        config = json.loads((out / "manifest-search.json").read_text())["config"]
        assert f"total mlik = {config['total_score']:.4f}" in capsys.readouterr().out

    def test_heuristic_artifacts_identical_across_jobs(self, workspace, tmp_path):
        files = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            assert run(["search", "heuristic", "--data", workspace / "data.csv",
                        "--dists", workspace / "dists.txt", "--max-parents", "2",
                        "--restarts", "3", "--seed", "5", "--out", out, "--jobs", jobs]) == 0
            files.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert "manifest-search.json" in files[0]
        assert files[0] == files[1]

    def test_score_method_mismatch_rejected(self, workspace, tmp_path, capsys):
        code = run(["search", "exact", "--data", workspace / "data.csv",
                    "--dists", workspace / "dists.txt", "--score", "bic",
                    "--out", tmp_path / "x", "--jobs", "1"])
        assert code == 1
        assert "ERROR ConfigError" in capsys.readouterr().err

    def test_mle_with_mlik_rejected(self, workspace, tmp_path, capsys):
        code = run(["search", "exact", "--data", workspace / "data.csv",
                    "--dists", workspace / "dists.txt", "--method", "mle", "--score", "mlik",
                    "--out", tmp_path / "x", "--jobs", "1"])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "ERROR ConfigError: score 'mlik' requires --method bayes"]
        assert not (tmp_path / "x").exists()

    def test_mle_bic_search_runs(self, workspace, tmp_path):
        code = run(["search", "exact", "--data", workspace / "data.csv",
                    "--dists", workspace / "dists.txt", "--method", "mle",
                    "--score", "bic", "--max-parents", "2",
                    "--out", tmp_path / "m", "--jobs", "1"])
        assert code == 0


class TestCacheReuse:
    def test_build_then_search_from_cache(self, workspace, tmp_path):
        cache_dir = tmp_path / "c"
        assert run(["build-cache", "--data", workspace / "data.csv",
                    "--dists", workspace / "dists.txt", "--max-parents", "2",
                    "--out", cache_dir, "--jobs", "1"]) == 0
        out = tmp_path / "s"
        assert run(["search", "exact", "--data", workspace / "data.csv",
                    "--dists", workspace / "dists.txt", "--max-parents", "2",
                    "--cache", cache_dir / "cache.txt", "--out", out,
                    "--jobs", "1"]) == 0

    def test_failures_count_only_failed_entries(self, tmp_path, capsys):
        # y|{x} is separated: its Firth fit is a finite entry with a status
        # note, not a failure
        x = np.linspace(-2.0, 2.0, 60)
        ds = Dataset(names=("x", "y"), columns=np.column_stack([x, (x > 0).astype(float)]),
                     distributions=("gaussian", "binomial"))
        (tmp_path / "data.csv").write_text(ds.to_csv())
        (tmp_path / "dists.txt").write_text(format_dist_spec(ds.dist_map()))
        capsys.readouterr()
        assert run(["build-cache", "--data", tmp_path / "data.csv",
                    "--dists", tmp_path / "dists.txt", "--method", "mle",
                    "--max-parents", "1", "--out", tmp_path / "c", "--jobs", "1"]) == 0
        assert "(0 failures)" in capsys.readouterr().out
        assert "# diag\t1\t1\tfirth" in (tmp_path / "c" / "cache.txt").read_text()

    def test_stale_cache_is_hard_error(self, workspace, tmp_path, capsys):
        cache_dir = tmp_path / "c2"
        run(["build-cache", "--data", workspace / "data.csv",
             "--dists", workspace / "dists.txt", "--max-parents", "2",
             "--out", cache_dir, "--jobs", "1"])
        altered = tmp_path / "altered.csv"
        text = (workspace / "data.csv").read_text().splitlines()
        text[1] = text[1].replace(text[1][0], "1" if text[1][0] == "0" else "0", 1)
        altered.write_text("\n".join(text) + "\n")
        code = run(["search", "exact", "--data", altered,
                    "--dists", workspace / "dists.txt", "--max-parents", "2",
                    "--cache", cache_dir / "cache.txt", "--out", tmp_path / "y",
                    "--jobs", "1"])
        assert code == 1
        assert "CacheMismatch" in capsys.readouterr().err


class TestCacheConstraints:
    """``search --cache`` searches the cache restricted to the CLI constraints."""

    @pytest.fixture(scope="class")
    def cache_file(self, workspace):
        out = workspace / "cache-2"
        assert run(["build-cache", "--data", workspace / "data.csv",
                    "--dists", workspace / "dists.txt", "--max-parents", "2",
                    "--out", out, "--jobs", "1"]) == 0
        return out / "cache.txt"

    def search(self, workspace, cache_file, out, *flags):
        return run(["search", "exact", "--data", workspace / "data.csv",
                    "--dists", workspace / "dists.txt", "--cache", cache_file,
                    *flags, "--out", out, "--jobs", "1"])

    def test_max_parents_zero_gives_no_arcs(self, workspace, cache_file, tmp_path):
        assert self.search(workspace, cache_file, tmp_path, "--max-parents", "0") == 0
        assert dag_from_text((tmp_path / "dag.txt").read_text()).n_arcs == 0
        manifest = json.loads((tmp_path / "manifest-search.json").read_text())
        assert manifest["config"]["max_parents"] == 0

    def test_ban_removes_the_arc(self, workspace, cache_file, tmp_path):
        assert self.search(workspace, cache_file, tmp_path / "free", "--max-parents", "2") == 0
        assert ("g", "b") in dag_from_text((tmp_path / "free" / "dag.txt").read_text()).arcs()
        assert self.search(workspace, cache_file, tmp_path / "ban", "--max-parents", "2",
                           "--ban", "~b|g") == 0
        assert ("g", "b") not in dag_from_text((tmp_path / "ban" / "dag.txt").read_text()).arcs()

    def test_looser_limit_is_cache_mismatch(self, workspace, tmp_path, capsys):
        assert run(["build-cache", "--data", workspace / "data.csv",
                    "--dists", workspace / "dists.txt", "--max-parents", "1",
                    "--out", tmp_path / "c1", "--jobs", "1"]) == 0
        capsys.readouterr()
        code = self.search(workspace, tmp_path / "c1" / "cache.txt", tmp_path / "s",
                           "--max-parents", "2")
        assert code == 1
        assert capsys.readouterr().err.startswith("ERROR CacheMismatch: cache has no entry")

    def test_malformed_cache_is_one_error_line(self, workspace, cache_file, tmp_path, capsys):
        lines = cache_file.read_text().splitlines()
        body = next(k for k, line in enumerate(lines) if line.startswith("0\t"))
        lines[body] = "7" + lines[body][1:]
        corrupt = tmp_path / "corrupt.txt"
        corrupt.write_text("\n".join(lines) + "\n")
        code = self.search(workspace, corrupt, tmp_path / "s", "--max-parents", "2")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR CacheMismatch")

    def test_non_numeric_matrix_cell_is_one_error_line(self, workspace, tmp_path, capsys):
        lines = (workspace / "true-dag.txt").read_text().splitlines()
        lines[2] = lines[2].rsplit(None, 1)[0] + " x"
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        data = ["--data", workspace / "data.csv", "--dists", workspace / "dists.txt"]
        for argv in (["fit", *data, "--dag", bad],
                     ["search", "exact", *data, "--max-parents", "1", "--ban", bad]):
            capsys.readouterr()
            assert run([*argv, "--out", tmp_path / "out", "--jobs", "1"]) == 1
            err = capsys.readouterr().err.splitlines()
            assert err == [f"ERROR ConstraintError: row {lines[2].split()[0]!r} has a "
                           "non-numeric entry"]

    def test_files_naming_other_nodes_are_one_error_line(self, workspace, tmp_path, capsys):
        other = tmp_path / "other.txt"  # the data's names in another order
        other.write_text(dag_to_text(dag_from_arcs(("g", "p", "b"), ())))
        data = ["--data", workspace / "data.csv", "--dists", workspace / "dists.txt"]
        for argv, line in [
            (["fit", *data, "--dag", other],
             "ERROR ConfigError: DAG nodes differ from data columns"),
            (["strength", *data, "--dag", other],
             "ERROR ConfigError: DAG nodes differ from data columns"),
            (["search", "exact", *data, "--max-parents", "1", "--ban", other],
             "ERROR ConfigError: constraint matrix nodes ('g', 'p', 'b') differ from data "
             "columns"),
        ]:
            capsys.readouterr()
            assert run([*argv, "--out", tmp_path / "out", "--jobs", "1"]) == 1
            assert capsys.readouterr().err.splitlines() == [line]
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text[:-3], "simulation spec is not JSON"),
        (lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                  if k != "adjacency"}),
         "simulation spec lacks the key 'adjacency'"),
        (lambda text: text.replace('"poisson"', '"weibull"'),
         "unknown family 'weibull'"),
        (lambda text: text.replace('"n_obs": 250', '"n_obs": "many"'),
         "simulation spec has a value of the wrong type"),
        (lambda text: text.replace('"b": {\n      "(Intercept)": -0.2',
                                   '"b": {\n      "(Intercept)": "low"'),
         "simulation spec has a value of the wrong type"),
        (lambda text: json.dumps({**json.loads(text), "adjacency": "x"}),
         "simulation spec has a value of the wrong type"),
        (lambda text: json.dumps({**json.loads(text), "families": ["gaussian"]}),
         "simulation spec has a value of the wrong type"),
        (lambda text: json.dumps({**json.loads(text), "sd": None}),
         "simulation spec has a value of the wrong type"),
        (lambda text: json.dumps([json.loads(text)]),
         "simulation spec has a value of the wrong type"),
        (lambda text: json.dumps({**json.loads(text), "n_obs": 2.7}),
         "simulation spec has a value of the wrong type: n_obs must be a whole number"),
        (lambda text: json.dumps({**json.loads(text), "seed": True}),
         "simulation spec has a value of the wrong type: seed must be a whole number"),
        (lambda text: json.dumps({**json.loads(text), "seed": -1}),
         "seed must be at least 0, got -1"),
        # json.loads reads the literals NaN and Infinity as floats
        (lambda text: text.replace('"b": {\n      "(Intercept)": -0.2',
                                   '"b": {\n      "(Intercept)": NaN'),
         "node 'b' has a non-finite coefficient"),
        (lambda text: text.replace('"g": 1.0', '"g": Infinity'),
         "gaussian node 'g' needs a positive finite sd"),
    ], ids=["not-json", "no-adjacency", "unknown-family", "n-obs-string",
            "coefficient-string", "adjacency-string", "families-list", "sd-null",
            "top-level-list", "n-obs-fraction", "seed-boolean", "seed-negative",
            "coefficient-nan", "sd-infinity"])
    def test_malformed_spec_is_one_error_line(self, workspace, tmp_path, capsys,
                                              edit, message):
        bad = tmp_path / "spec.json"
        bad.write_text(edit((workspace / "simspec.json").read_text()))
        capsys.readouterr()
        assert run(["simulate", "data", "--spec", bad, "--out", tmp_path / "out",
                    "--jobs", "1"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"ERROR ConfigError: {message}"), err
        assert not (tmp_path / "out").exists()


class TestOtherCommands:
    def test_fit_with_marginals(self, workspace, tmp_path):
        out = tmp_path / "fit"
        code = run(["fit", "--data", workspace / "data.csv",
                    "--dists", workspace / "dists.txt",
                    "--dag", workspace / "true-dag.txt",
                    "--marginals", "--n-grid", "200", "--out", out, "--jobs", "1"])
        assert code == 0
        coef = (out / "coefficients.txt").read_text()
        assert "b|(Intercept)" in coef and "b|g" in coef
        assert (out / "marginals.tsv").exists()
        scores = (out / "node-scores.tsv").read_text()
        assert scores.splitlines()[-1].startswith("total\t")

    def test_fit_total_adds_left_to_right(self, workspace, tmp_path, monkeypatch):
        from dataclasses import replace

        import abnkit.cli
        from abnkit.glm import fit_dag

        def fits_scoring(ds, dag, method):  # a compensated sum (Python 3.12's sum()) gives 1.0
            fits = fit_dag(ds, dag, method)
            return {node: replace(fits[node], mlik=mlik)
                    for node, mlik in zip(dag.nodes, (1e16, 1.0, -1e16))}

        monkeypatch.setattr(abnkit.cli, "fit_dag", fits_scoring)
        out = tmp_path / "fit"
        assert run(["fit", "--data", workspace / "data.csv", "--dists", workspace / "dists.txt",
                    "--dag", workspace / "true-dag.txt", "--out", out, "--jobs", "1"]) == 0
        assert (out / "node-scores.tsv").read_text().splitlines()[-1] == "total\t0"
        manifest = json.loads((out / "manifest-fit.json").read_text())
        assert manifest["config"]["total_mlik"] == 0.0

    def test_fit_names_the_predictors_it_dropped(self, tmp_path):
        # b is a copy of a, so y ~ a + b has no unique MLE and one copy goes
        rng = np.random.default_rng(3)
        a = rng.normal(size=50)
        y = (rng.random(50) < 1.0 / (1.0 + np.exp(-a))).astype(float)
        ds = Dataset(("a", "b", "y"), np.column_stack([a, a, y]),
                     ("gaussian", "gaussian", "binomial"))
        (tmp_path / "data.csv").write_text(ds.to_csv())
        (tmp_path / "dists.txt").write_text(format_dist_spec(ds.dist_map()))
        dag = dag_from_arcs(ds.names, (("a", "y"), ("b", "y")))
        (tmp_path / "dag.txt").write_text(format_adjacency(dag.nodes, dag.adjacency))
        out = tmp_path / "fit"
        assert run(["fit", "--data", tmp_path / "data.csv", "--dists", tmp_path / "dists.txt",
                    "--dag", tmp_path / "dag.txt", "--method", "mle", "--out", out,
                    "--jobs", "1"]) == 0
        rows = [line.split("\t") for line in (out / "node-scores.tsv").read_text().splitlines()]
        assert rows[0] == ["node", "score", "status"]
        assert [(row[0], row[2]) for row in rows[1:-1]] == [("a", "-"), ("b", "-"),
                                                             ("y", "pruned:b")]
        coefficients = (out / "coefficients.txt").read_text()
        assert "y|a" in coefficients and "y|b" not in coefficients

    @pytest.mark.parametrize("command", [["fit"], ["bootstrap", "--seed", "1"]])
    def test_singular_gaussian_start_is_one_error_line(self, tmp_path, capsys, command):
        # b is a copy of a, both at 1e10, so y's start solve is singular
        rng = np.random.default_rng(3)
        a = 1e10 * rng.normal(size=50)
        ds = Dataset(("a", "b", "y"), np.column_stack([a, a, rng.normal(size=50)]),
                     ("gaussian",) * 3)
        (tmp_path / "data.csv").write_text(ds.to_csv())
        (tmp_path / "dists.txt").write_text(format_dist_spec(ds.dist_map()))
        dag = dag_from_arcs(ds.names, (("a", "y"), ("b", "y")))
        (tmp_path / "dag.txt").write_text(format_adjacency(dag.nodes, dag.adjacency))
        capsys.readouterr()
        assert run([*command, "--data", tmp_path / "data.csv", "--dists", tmp_path / "dists.txt",
                    "--dag", tmp_path / "dag.txt", "--no-standardize",
                    "--out", tmp_path / "out", "--jobs", "1"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "ERROR _Diverged: node 'y': singular start"]
        assert not (tmp_path / "out").exists()

    def test_sweep_parents_monotone(self, workspace, tmp_path):
        out = tmp_path / "sweep"
        code = run(["sweep-parents", "--data", workspace / "data.csv",
                    "--dists", workspace / "dists.txt", "--max", "2",
                    "--out", out, "--jobs", "1"])
        assert code == 0
        rows = (out / "sweep.tsv").read_text().splitlines()[1:]
        totals = [float(r.split("\t")[1]) for r in rows]
        assert totals == sorted(totals)

    def test_sweep_parents_starts_at_the_retained_parents(self, workspace, tmp_path):
        out = tmp_path / "sweep"
        assert run(["sweep-parents", "--data", workspace / "data.csv",
                    "--dists", workspace / "dists.txt", "--retain", "~p|g:b", "--max", "2",
                    "--out", out, "--jobs", "1"]) == 0
        rows = [r.split("\t") for r in (out / "sweep.tsv").read_text().splitlines()]
        assert [r[0] for r in rows] == ["max_parents", "2"]
        assert int(rows[1][2]) >= 2

    def test_sweep_parents_has_no_max_parents_flag(self, workspace, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep-parents", "--data", "d.csv", "--dists", "d.txt",
                                       "--max-parents", "0"])
        assert "unrecognized arguments: --max-parents" in capsys.readouterr().err

    def test_simulate_dag_and_data(self, workspace, tmp_path):
        out = tmp_path / "simdag"
        assert run(["simulate", "dag", "--nodes", "6", "--arc-probability", "0.3",
                    "--seed", "4", "--out", out, "--jobs", "1"]) == 0
        assert (out / "dag.txt").exists() and (out / "dag.dot").exists()
        out2 = tmp_path / "simdata"
        assert run(["simulate", "data", "--spec", workspace / "simspec.json",
                    "--seed", "9", "--out", out2, "--jobs", "1"]) == 0
        data = (out2 / "data.csv").read_text()
        assert data.splitlines()[0] == "g,b,p"
        assert len(data.splitlines()) == 251

    def test_simulate_data_deterministic(self, workspace, tmp_path):
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            run(["simulate", "data", "--spec", workspace / "simspec.json",
                 "--seed", "33", "--out", out, "--jobs", "1"])
            outs.append((out / "data.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_bootstrap_artifacts(self, workspace, tmp_path):
        out = tmp_path / "boot"
        code = run(["bootstrap", "--data", workspace / "data.csv",
                    "--dists", workspace / "dists.txt",
                    "--dag", workspace / "true-dag.txt", "--max-parents", "2",
                    "--replicates", "4", "--seed", "2", "--n-grid", "300",
                    "--out", out, "--jobs", "1"])
        assert code == 0
        support = (out / "support.txt").read_text()
        assert support.startswith("node\t")
        rows = (out / "replicates.tsv").read_text().splitlines()
        assert len(rows) == 5
        assert (out / "pruned-dag.txt").exists()

    @pytest.fixture
    def failed_replicate_1(self, workspace, tmp_path, monkeypatch):
        """The output directory of a 20-replicate bootstrap whose replicate 1
        fails: one failure of 20 is MAX_FAILURE_FRACTION, so the run records it."""
        draws = []

        def flaky_simulate(spec):
            draws.append(spec)
            if len(draws) == 2:
                raise ValueError("draw 2")
            return simulate_data(spec)

        monkeypatch.setattr(abnkit.bootstrap, "simulate_data", flaky_simulate)
        out = tmp_path / "boot"
        assert run(["bootstrap", "--data", workspace / "data.csv",
                    "--dists", workspace / "dists.txt",
                    "--dag", workspace / "true-dag.txt", "--max-parents", "1",
                    "--replicates", "20", "--seed", "2", "--n-grid", "100",
                    "--out", out, "--jobs", "1"]) == 0
        return out

    def test_bootstrap_writes_its_failures(self, failed_replicate_1):
        out = failed_replicate_1
        assert (out / "failures.tsv").read_text() == "1\tValueError: draw 2\n"
        assert len((out / "replicates.tsv").read_text().splitlines()) == 1 + 19
        manifest = json.loads((out / "manifest-bootstrap.json").read_text())
        assert "failures.tsv" in manifest["outputs"]

    def test_replicate_rows_carry_their_own_index(self, failed_replicate_1):
        rows = (failed_replicate_1 / "replicates.tsv").read_text().splitlines()
        assert [int(row.split("\t")[0]) for row in rows[1:]] == [0, *range(2, 20)]

    def test_strength_output(self, workspace, tmp_path):
        out = tmp_path / "ls"
        code = run(["strength", "--data", workspace / "data.csv",
                    "--dists", workspace / "dists.txt",
                    "--dag", workspace / "true-dag.txt", "--out", out,
                    "--jobs", "1"])
        assert code == 0
        assert (out / "link-strength.txt").exists()
        assert "penwidth" in (out / "dag-weighted.dot").read_text()

    def test_compare_identical_files(self, workspace, tmp_path, capsys):
        code = run(["compare", workspace / "true-dag.txt", workspace / "true-dag.txt",
                    "--out", tmp_path / "cmp", "--jobs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "hamming\t0" in out

    def test_info_metrics(self, workspace, tmp_path, capsys):
        code = run(["info", workspace / "true-dag.txt", "--out", tmp_path / "info",
                    "--jobs", "1"])
        assert code == 0
        assert "n_arcs\t2" in capsys.readouterr().out

    def test_record_files_pin_every_field(self, workspace, tmp_path):
        dag = workspace / "true-dag.txt"
        assert run(["info", dag, "--out", tmp_path / "info", "--jobs", "1"]) == 0
        assert (tmp_path / "info" / "info.tsv").read_text() == (
            "n_nodes\t3\nn_arcs\t2\navg_markov_blanket\t1.33333\n"
            "avg_neighborhood\t1.33333\navg_parents\t0.666667\navg_children\t0.666667\n")
        assert run(["compare", dag, dag, "--out", tmp_path / "cmp", "--jobs", "1"]) == 0
        assert (tmp_path / "cmp" / "comparison.tsv").read_text() == (
            "tpr\t1\nfpr\t0\naccuracy\t1\ng_measure\t1\nf1\t1\nppv\t1\n"
            "false_omission_rate\t0\nhamming\t0\ntp\t2\nfp\t0\ntn\t4\nfn\t0\n")

    def test_missing_input_is_config_error(self, tmp_path, capsys):
        code = run(["info", tmp_path / "nope.txt", "--out", tmp_path, "--jobs", "1"])
        assert code == 1
        assert "ERROR ConfigError" in capsys.readouterr().err

    def test_help_documents_defaults(self, capsys):
        with pytest.raises(SystemExit):
            run(["search", "--help"])
        text = capsys.readouterr().out
        assert "koivisto" in text
        assert "default 4" in text


class TestRunRecord:
    """Every command fingerprints exactly the files it reads and writes its
    artifacts only when it succeeds."""

    @pytest.fixture(scope="class")
    def files(self, workspace, tmp_path_factory):
        root = tmp_path_factory.mktemp("run-inputs")
        names = ("g", "b", "p")
        ban = np.zeros((3, 3))
        ban[0, 2] = 1  # p -> g
        (root / "ban.txt").write_text(format_adjacency(names, ban))
        assert run(["build-cache", "--data", workspace / "data.csv",
                    "--dists", workspace / "dists.txt", "--max-parents", "2",
                    "--out", root / "cache", "--jobs", "1"]) == 0
        other = tmp_path_factory.mktemp("other") / "dag.txt"
        other.write_text((workspace / "true-dag.txt").read_text())
        return {
            "data": workspace / "data.csv",
            "dists": workspace / "dists.txt",
            "dag": workspace / "true-dag.txt",
            "spec": workspace / "simspec.json",
            "ban": root / "ban.txt",
            "cache": root / "cache" / "cache.txt",
            "other": other,
        }

    # (argv with file keys in braces, keys of the files read, manifest name)
    CASES = {
        "build-cache": (["build-cache", "--data", "{data}", "--dists", "{dists}",
                         "--max-parents", "2", "--ban", "{ban}"],
                        ("data", "dists", "ban"), "build-cache"),
        "search-exact": (["search", "exact", "--data", "{data}", "--dists", "{dists}",
                          "--max-parents", "2", "--cache", "{cache}", "--retain", "~b|g"],
                         ("data", "dists", "cache"), "search"),
        "search-heuristic": (["search", "heuristic", "--data", "{data}", "--dists", "{dists}",
                              "--max-parents", "1", "--ban", "{ban}", "--seed", "3"],
                             ("data", "dists", "ban"), "search"),
        "fit": (["fit", "--data", "{data}", "--dists", "{dists}", "--dag", "{dag}",
                 "--method", "mle"],
                ("data", "dists", "dag"), "fit"),
        "sweep-parents": (["sweep-parents", "--data", "{data}", "--dists", "{dists}",
                           "--max", "1", "--ban", "{ban}"],
                          ("data", "dists", "ban"), "sweep-parents"),
        "simulate-dag": (["simulate", "dag", "--nodes", "4", "--seed", "1"],
                         (), "simulate-dag"),
        "simulate-data": (["simulate", "data", "--spec", "{spec}", "--n-obs", "20"],
                          ("spec",), "simulate-data"),
        "bootstrap": (["bootstrap", "--data", "{data}", "--dists", "{dists}",
                       "--dag", "{dag}", "--max-parents", "1", "--replicates", "2",
                       "--seed", "2", "--n-grid", "100", "--ban", "{ban}"],
                      ("data", "dists", "dag", "ban"), "bootstrap"),
        "strength": (["strength", "--data", "{data}", "--dists", "{dists}", "--dag", "{dag}"],
                     ("data", "dists", "dag"), "strength"),
        "compare": (["compare", "{dag}", "{other}"], ("dag", "other"), "compare"),
        "info": (["info", "{dag}"], ("dag",), "info"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_manifest_fingerprints_every_file_read(self, files, tmp_path, case):
        argv, read, command = self.CASES[case]
        out = tmp_path / "out"
        assert run([a.format(**files) for a in argv] + ["--out", out, "--jobs", "1"]) == 0
        manifest = json.loads((out / f"manifest-{command}.json").read_text())
        assert manifest["inputs"] == {
            str(files[key]): hashlib.sha256(files[key].read_bytes()).hexdigest()
            for key in read
        }
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [*manifest["outputs"], f"manifest-{command}.json"])

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_each_input_is_read_once(self, files, tmp_path, monkeypatch, case):
        # the text a command parses is the text its manifest fingerprints
        reads = collections.Counter()
        for method in ("read_bytes", "read_text"):
            def counted(path, *args, _read=getattr(Path, method), **kwargs):
                reads[str(path)] += 1
                return _read(path, *args, **kwargs)

            monkeypatch.setattr(Path, method, counted)
        argv, read, _ = self.CASES[case]
        assert run([a.format(**files) for a in argv]
                   + ["--out", tmp_path / "out", "--jobs", "1"]) == 0
        assert dict(reads) == {str(files[key]): 1 for key in read}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_manifest_config_records_every_option(self, files, tmp_path, case):
        argv, _, command = self.CASES[case]
        argv = [a.format(**files) for a in argv] + ["--out", str(tmp_path), "--jobs", "1"]
        assert run(argv) == 0
        config = json.loads((tmp_path / f"manifest-{command}.json").read_text())["config"]
        options = vars(build_parser().parse_args(argv))
        for key in ("command", "func", "jobs", "out"):
            assert key not in config
            del options[key]
        assert options.keys() <= config.keys()
        # only an option left unset is resolved: seed, score, n_obs
        assert {k: config[k] for k, v in options.items() if v is not None} == {
            k: v for k, v in options.items() if v is not None}

    @pytest.mark.parametrize("kind, case", [("data", "fit"), ("dag", "info"),
                                            ("cache", "search-exact"),
                                            ("spec", "simulate-data")])
    def test_non_utf8_input_is_one_error_line(self, files, tmp_path, capsys, kind, case):
        bad = tmp_path / f"latin-1-{kind}"
        bad.write_bytes(files[kind].read_bytes().replace(b"\n", b"\n\xe9", 1))
        argv, _, _ = self.CASES[case]
        out = tmp_path / "out"
        capsys.readouterr()
        assert run([a.format(**{**files, kind: bad}) for a in argv]
                   + ["--out", out, "--jobs", "1"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"ERROR ConfigError: {bad} is not UTF-8: invalid continuation byte"]
        assert not out.exists()

    def test_failed_command_writes_nothing(self, files, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["fit", "--data", files["data"], "--dists", files["dists"],
                    "--dag", files["dag"], "--method", "mle", "--marginals",
                    "--out", out, "--jobs", "1"])
        assert code == 1
        assert "--marginals requires --method bayes" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


class TestOutOfRangeOptions:
    """A numeric option outside its range ends in one error line."""

    CASES = {
        "restarts": ("search-heuristic", ["--restarts", "0"]),
        "max-steps": ("search-heuristic", ["--max-steps", "0"]),
        "tabu-length": ("search-heuristic", ["--tabu-length", "0"]),
        "cooling": ("search-heuristic", ["--cooling", "1.5"]),
        "temperature": ("search-heuristic", ["--temperature", "0"]),
        "replicates-negative": ("bootstrap", ["--replicates", "-3"]),
        "replicates-zero": ("bootstrap", ["--replicates", "0"]),
        "n-grid": ("fit", ["--marginals", "--n-grid", "0"]),
        "bins": ("strength", ["--bins", "0"]),
        "n-obs": ("simulate-data", ["--n-obs", "0"]),
        "nodes": ("simulate-dag", ["--nodes", "-1"]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_error_line(self, workspace, tmp_path, capsys, case):
        command, flags = self.CASES[case]
        data = ["--data", workspace / "data.csv", "--dists", workspace / "dists.txt"]
        dag = ["--dag", workspace / "true-dag.txt"]
        argv = {
            "search-heuristic": ["search", "heuristic", *data, "--max-parents", "1",
                                 "--seed", "1"],
            "bootstrap": ["bootstrap", *data, *dag, "--max-parents", "1", "--seed", "1"],
            "fit": ["fit", *data, *dag],
            "strength": ["strength", *data, *dag],
            "simulate-data": ["simulate", "data", "--spec", workspace / "simspec.json"],
            "simulate-dag": ["simulate", "dag", "--seed", "1"],
        }[command]
        capsys.readouterr()
        assert run([*argv, *flags, "--out", tmp_path / "out", "--jobs", "1"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR "), err

    @pytest.mark.parametrize("argv, message", [
        (["search", "heuristic", "--seed", "1", "--threshold", "1.7"],
         "threshold must lie in [0, 1], got 1.7"),
        (["search", "heuristic", "--seed", "1", "--threshold", "-3"],
         "threshold must lie in [0, 1], got -3.0"),
        (["bootstrap", "--dag", "dag.txt", "--seed", "1", "--threshold", "1.7"],
         "threshold must lie in [0, 1], got 1.7"),
        (["bootstrap", "--dag", "dag.txt", "--seed", "1", "--threshold", "-3"],
         "threshold must lie in [0, 1], got -3.0"),
        (["sweep-parents", "--max", "0"], "--max needs a parent limit of at least 1, got 0"),
        (["sweep-parents", "--max", "-2"], "--max needs a parent limit of at least 1, got -2"),
        (["search", "heuristic", "--seed", "1", "--algorithm", "simulated_annealing",
          "--temperature", "nan"], "initial_temperature must be positive and finite"),
        (["search", "heuristic", "--seed", "1", "--algorithm", "simulated_annealing",
          "--temperature", "inf"], "initial_temperature must be positive and finite"),
        (["search", "exact", "--score", "bic"], "score 'bic' requires --method mle"),
        (["sweep-parents", "--method", "mle", "--score", "mlik"],
         "score 'mlik' requires --method bayes"),
    ], ids=["heuristic-threshold-high", "heuristic-threshold-negative",
            "bootstrap-threshold-high", "bootstrap-threshold-negative", "max-zero",
            "max-negative", "temperature-nan", "temperature-inf", "search-score",
            "sweep-score"])
    def test_rejected_before_any_input_is_read(self, tmp_path, capsys, argv, message):
        # no input file exists: a check made after reading one would report that
        missing = ["--data", tmp_path / "data.csv", "--dists", tmp_path / "dists.txt"]
        capsys.readouterr()
        assert run([*argv, *missing, "--out", tmp_path / "out", "--jobs", "1"]) == 1
        assert capsys.readouterr().err.splitlines() == [f"ERROR ConfigError: {message}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "dag", "--seed", "-1"],
        ["simulate", "data", "--spec", "spec.json", "--seed", "-2"],
        ["search", "heuristic", "--data", "data.csv", "--dists", "dists.txt", "--seed", "-5"],
        ["bootstrap", "--data", "data.csv", "--dists", "dists.txt", "--dag", "dag.txt",
         "--seed", "-7"],
    ], ids=["simulate-dag", "simulate-data", "search-heuristic", "bootstrap"])
    def test_negative_seed(self, tmp_path, capsys, argv):
        # no input file exists: a check made after reading one would report that
        seed = argv[argv.index("--seed") + 1]
        argv = [tmp_path / a if a.endswith((".txt", ".csv", ".json")) else a for a in argv]
        capsys.readouterr()
        assert run([*argv, "--out", tmp_path / "out", "--jobs", "1"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"ERROR ConfigError: --seed must be at least 0, got {seed}"]
        assert not (tmp_path / "out").exists()

    def test_constraint_matrix_entries_must_be_binary(self, workspace, tmp_path, capsys):
        (tmp_path / "ban.txt").write_text("node g b p\ng 0 0 0\nb 0.3 0 0\np -2 0 0\n")
        capsys.readouterr()
        assert run(["build-cache", "--data", workspace / "data.csv",
                    "--dists", workspace / "dists.txt", "--ban", tmp_path / "ban.txt",
                    "--out", tmp_path / "out", "--jobs", "1"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "ERROR ConstraintError: adjacency entries must be 0/1"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize("command", [
        ["build-cache"], ["search", "heuristic", "--seed", "1"],
        ["bootstrap", "--dag", "true-dag.txt", "--seed", "1", "--replicates", "2"],
    ], ids=["build-cache", "search-heuristic", "bootstrap"])
    def test_jobs_below_one(self, workspace, tmp_path, capsys, command, jobs):
        argv = [workspace / a if a.endswith(".txt") else a for a in command]
        data = ["--data", workspace / "data.csv", "--dists", workspace / "dists.txt"]
        capsys.readouterr()
        assert run([*argv, *data, "--max-parents", "1", "--out", tmp_path / "out",
                    "--jobs", jobs]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"ERROR ConfigError: need at least one worker process, got {jobs}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize("command", [
        ["fit", "--dag", "true-dag.txt"], ["strength", "--dag", "true-dag.txt"],
        ["simulate", "dag", "--seed", "1"],
        ["simulate", "data", "--spec", "simspec.json"],
        ["compare", "true-dag.txt", "true-dag.txt"], ["info", "true-dag.txt"],
    ], ids=["fit", "strength", "simulate-dag", "simulate-data", "compare", "info"])
    def test_jobs_below_one_without_a_pool(self, workspace, tmp_path, capsys, command,
                                           jobs):
        argv = [workspace / a if a.endswith((".txt", ".json")) else a for a in command]
        if command[0] in ("fit", "strength"):
            argv += ["--data", workspace / "data.csv", "--dists", workspace / "dists.txt"]
        capsys.readouterr()
        assert run([*argv, "--out", tmp_path / "out", "--jobs", jobs]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"ERROR ConfigError: need at least one worker process, got {jobs}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["search", "heuristic", "--max-parents", "1", "--seed", "1", "--restarts", "0"],
        ["fit", "--dag", "true-dag.txt", "--method", "mle", "--marginals"],
        ["fit", "--dag", "true-dag.txt", "--marginals", "--n-grid", "1"],
        ["fit", "--dag", "true-dag.txt", "--marginals", "--n-grid", "2"],
        ["bootstrap", "--dag", "true-dag.txt", "--seed", "1", "--replicates", "0"],
        ["bootstrap", "--dag", "true-dag.txt", "--seed", "1", "--n-grid", "1"],
        ["bootstrap", "--dag", "true-dag.txt", "--seed", "1", "--n-grid", "2"],
    ], ids=["restarts", "mle-marginals", "fit-n-grid", "fit-n-grid-two", "replicates",
            "bootstrap-n-grid", "bootstrap-n-grid-two"])
    def test_rejected_before_fitting(self, workspace, tmp_path, capsys, monkeypatch,
                                     argv):
        import abnkit.cli

        def never(*args, **kwargs):
            raise AssertionError("fitting reached before the option check")

        monkeypatch.setattr(abnkit.cli, "build_cache", never)
        monkeypatch.setattr(abnkit.cli, "fit_dag", never)
        argv = [workspace / a if a.endswith(".txt") else a for a in argv]
        data = ["--data", workspace / "data.csv", "--dists", workspace / "dists.txt"]
        capsys.readouterr()
        assert run([*argv, *data, "--out", tmp_path / "out", "--jobs", "1"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR "), err


class TestRuntimeDependencies:
    def test_no_command_imports_scipy(self, workspace, tmp_path):
        """Bayes, MLE and Firth fits and the scoring, search, fitting,
        simulation and bootstrap commands run without importing any SciPy
        module, so NumPy is abnkit's one runtime dependency."""
        code = textwrap.dedent("""
            import sys
            from pathlib import Path

            import numpy as np
            from abnkit.cli import main
            from abnkit.data import DesignMatrix
            from abnkit.glm import fit_node

            x = np.linspace(-2, 2, 60)
            X = np.column_stack([np.ones(60), x])
            def design(y):
                return DesignMatrix(response=y, predictors=X, labels=("(Intercept)", "x"),
                                    child="y", family="binomial")
            mixed = design((np.sin(7 * x) > 0).astype(float))
            assert fit_node(mixed, method="bayes").converged
            fit = fit_node(mixed, method="mle")
            assert fit.converged and not fit.used_firth
            assert fit_node(design((x > 0).astype(float)), method="mle").used_firth

            ws, out = Path(sys.argv[1]), Path(sys.argv[2])
            data = ["--data", ws / "data.csv", "--dists", ws / "dists.txt"]
            dag = ["--dag", ws / "true-dag.txt"]
            commands = [
                ["build-cache", *data, "--max-parents", "2"],
                ["build-cache", *data, "--max-parents", "2", "--method", "mle"],
                ["search", "exact", *data, "--max-parents", "2"],
                ["search", "heuristic", *data, "--max-parents", "2", "--seed", "1",
                 "--restarts", "2"],
                ["fit", *data, *dag, "--marginals", "--n-grid", "50"],
                ["strength", *data, *dag],
                ["simulate", "data", "--spec", ws / "simspec.json", "--seed", "2"],
                ["bootstrap", *data, *dag, "--max-parents", "2", "--seed", "1",
                 "--replicates", "2", "--n-grid", "50"],
            ]
            for k, argv in enumerate(commands):
                argv = [str(a) for a in [*argv, "--out", out / str(k), "--jobs", "1"]]
                assert main(argv) == 0, argv
            loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
            assert not loaded, loaded
        """)
        src = str(Path(abnkit.bootstrap.__file__).parents[1])
        subprocess.run([sys.executable, "-c", code, str(workspace), str(tmp_path)],
                       check=True, env={**os.environ, "PYTHONPATH": src})
