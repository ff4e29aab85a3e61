import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abnkit.data import Dataset
from abnkit.strength import (
    _cell_counts,
    conditional_entropy,
    discretize,
    empirical_entropy,
    pls_matrix,
)

from conftest import dag_from_arcs


def _gaussian_ds(values, name="g"):
    return Dataset(names=(name,), columns=np.asarray(values, dtype=float)[:, None],
                   distributions=("gaussian",))


class TestDiscretize:
    def test_binomial_passes_through(self):
        ds = Dataset(names=("b",), columns=np.array([[0.0], [1.0], [1.0], [0.0]]),
                     distributions=("binomial",))
        disc = discretize(ds)
        assert disc.column("b").tolist() == [0, 1, 1, 0]

    def test_sturges_bin_count_341(self):
        rng = np.random.default_rng(0)
        ds = _gaussian_ds(rng.normal(size=341))
        disc = discretize(ds, rule="sturges")
        # ceil(log2(341)) + 1 = 10 bins
        assert disc.column("g").max() == 9

    def test_constant_column_single_bin(self):
        ds = _gaussian_ds(np.ones(50))
        disc = discretize(ds)
        assert np.all(disc.column("g") == 0)
        assert empirical_entropy(disc.column("g")) == 0.0

    def test_fixed_k_quantile_bins_roughly_equal(self):
        rng = np.random.default_rng(1)
        ds = _gaussian_ds(rng.normal(size=8000))
        disc = discretize(ds, rule="fixed_k", fixed_k=8)
        _, counts = np.unique(disc.column("g"), return_counts=True)
        assert len(counts) == 8
        assert counts.min() > 0.8 * 1000

    @pytest.mark.parametrize("rule", ["scott", "freedman_diaconis"])
    def test_width_rules_produce_bins(self, rule):
        rng = np.random.default_rng(2)
        ds = _gaussian_ds(rng.normal(size=341))
        disc = discretize(ds, rule=rule)
        assert disc.column("g").max() >= 3


class TestEntropy:
    def test_fair_coin_one_bit(self):
        x = np.array([0] * 5000 + [1] * 5000)
        assert empirical_entropy(x) == pytest.approx(1.0)

    def test_constant_zero(self):
        assert empirical_entropy(np.zeros(100)) == 0.0

    def test_plug_in_bias_decreases_with_n(self):
        rng = np.random.default_rng(3)
        estimates = []
        for n in (50, 500, 5000):
            h = np.mean([
                empirical_entropy(rng.integers(0, 2, n), rng.integers(0, 2, n))
                for _ in range(30)
            ])
            assert h <= 2.0
            estimates.append(h)
        assert estimates[0] < estimates[1] < estimates[2]

    def test_joint_of_identical_equals_marginal(self):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 4, 1000)
        assert empirical_entropy(x, x) == pytest.approx(empirical_entropy(x))


def _row_unique_entropy(*columns):
    """The joint entropy from whole-row ``np.unique``, as an exact oracle."""
    _, counts = np.unique(np.column_stack(columns), axis=0, return_counts=True)
    p = counts / counts.sum()
    return float(-np.sum(p * np.log2(p)))


@st.composite
def _mixed_columns(draw):
    """1-8 columns of 1-400 rows: integer or float, negative values and
    -0.0 included, from a handful of levels to all rows distinct."""
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(draw(st.integers(1, 8))):
        spread = draw(st.sampled_from([1, 3, 50, 10**9]))
        if draw(st.booleans()):
            columns.append(rng.integers(-spread, spread + 1, size=n))
        else:
            columns.append(np.round(rng.normal(scale=spread, size=n)) / 4)
    return columns


class TestEntropyCodes:
    @settings(max_examples=150, deadline=None)
    @given(_mixed_columns())
    def test_equals_row_unique_oracle(self, columns):
        assert empirical_entropy(*columns) == _row_unique_entropy(*columns)

    @pytest.mark.parametrize("n_cols, n_rows", [(6, 1500), (8, 300)])
    def test_many_levels_do_not_overflow(self, n_cols, n_rows):
        # every column has n_rows levels, so a plain mixed-radix code would
        # need n_rows ** n_cols > 2**63 values; rows repeat 1-7 times so
        # that the order of the counts matters
        rng = np.random.default_rng(n_cols)
        distinct = np.column_stack([rng.permutation(n_rows) - n_rows // 2
                                    for _ in range(n_cols)])
        rows = np.repeat(distinct, np.arange(n_rows) % 7 + 1, axis=0)
        assert float(n_rows) ** n_cols > 2.0**63
        _, oracle = np.unique(rows, axis=0, return_counts=True)
        assert np.array_equal(_cell_counts(rows), oracle)
        assert empirical_entropy(*rows.T) == _row_unique_entropy(*rows.T)


class TestMutualInformation:
    def test_conditioning_never_increases_entropy(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            y = rng.integers(0, 3, 400)
            x = (y + rng.integers(0, 3, 400)) % 3
            z = rng.integers(0, 2, 400)
            assert conditional_entropy(y, x, z) <= conditional_entropy(y, z) + 1e-12


class TestPls:
    def test_deterministic_copy_full_strength(self):
        rng = np.random.default_rng(10)
        x = rng.integers(0, 2, 1000).astype(float)
        ds = Dataset(names=("x", "y"), columns=np.column_stack([x, x]),
                     distributions=("binomial", "binomial"))
        dag = dag_from_arcs(("x", "y"), (("x", "y"),))
        pls = pls_matrix(dag, discretize(ds))
        assert pls[1, 0] == pytest.approx(1.0)

    def test_conditional_independence_near_zero(self):
        # y depends on z only; x is independent given z
        rng = np.random.default_rng(11)
        n = 10_000
        z = rng.normal(size=n)
        x = rng.normal(size=n)
        y = z + 0.5 * rng.normal(size=n)
        ds = Dataset(names=("x", "y", "z"), columns=np.column_stack([x, y, z]),
                     distributions=("gaussian",) * 3)
        dag = dag_from_arcs(("x", "y", "z"), (("x", "y"), ("z", "y")))
        pls = pls_matrix(dag, discretize(ds, fixed_k=4))
        assert pls[1, 0] < 0.05
        assert pls[1, 2] > 0.2

    def test_entries_in_unit_interval_and_only_on_arcs(self):
        rng = np.random.default_rng(12)
        n = 800
        a = rng.normal(size=n)
        b = a + rng.normal(size=n)
        c = rng.poisson(np.exp(0.2 + 0.3 * (b > 0))).astype(float)
        ds = Dataset(names=("a", "b", "c"), columns=np.column_stack([a, b, c]),
                     distributions=("gaussian", "gaussian", "poisson"))
        dag = dag_from_arcs(("a", "b", "c"), (("a", "b"), ("b", "c")))
        pls = pls_matrix(dag, discretize(ds))
        assert np.all(pls >= 0) and np.all(pls <= 1)
        assert pls[dag.adjacency == 0].sum() == 0
        assert pls[1, 0] > 0

    def test_invariant_under_monotone_transform(self):
        # quantile binning depends only on ranks: strictly monotone maps of a
        # parent leave every bin index, hence the whole matrix, unchanged
        rng = np.random.default_rng(13)
        n = 10_000
        x = rng.gamma(2.0, size=n) + 0.1
        y = np.log(x) + 0.3 * rng.normal(size=n)
        base = np.column_stack([x, y])
        transformed = np.column_stack([np.expm1(x) ** 3, y])
        dag = dag_from_arcs(("x", "y"), (("x", "y"),))
        p1 = pls_matrix(dag, discretize(Dataset(
            names=("x", "y"), columns=base, distributions=("gaussian",) * 2)))
        p2 = pls_matrix(dag, discretize(Dataset(
            names=("x", "y"), columns=transformed, distributions=("gaussian",) * 2)))
        assert np.max(np.abs(p1 - p2)) < 1e-12

    def test_random_models_bounded(self):
        from abnkit.simulate import SimSpec, simulate_dag, simulate_data

        rng = np.random.default_rng(14)
        for trial in range(1000):
            dag = simulate_dag(4, 0.5, seed=trial)
            coefs = {}
            for node in dag.nodes:
                coefs[node] = {"(Intercept)": 0.1,
                               **{p: float(rng.uniform(-1, 1)) for p in dag.parents(node)}}
            spec = SimSpec(dag=dag, families={v: "gaussian" for v in dag.nodes},
                           coefficients=coefs, sd={v: 1.0 for v in dag.nodes},
                           n_obs=150, seed=trial)
            pls = pls_matrix(dag, discretize(simulate_data(spec)))
            assert np.all(pls >= 0) and np.all(pls <= 1)
