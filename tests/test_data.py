import numpy as np
import pytest

from abnkit.data import (
    Dataset,
    build_design,
    design_stack,
    format_dist_spec,
    load_dataset,
    parse_dist_spec,
    standardize,
)
from abnkit.errors import (
    BadLevelCount,
    DataError,
    MissingColumn,
    MissingValue,
    NegativeCount,
    SelfParent,
    UnknownName,
    ZeroVariance,
)


@pytest.fixture
def csv_file(tmp_path):
    def write(text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    return write


BASIC = "a,b,c\n1,yes,0.5\n0,no,1.5\n1,no,2.5\n"
DISTS = {"a": "binomial", "b": "binomial", "c": "gaussian"}


class TestLoad:
    def test_basic_load(self, csv_file):
        ds = load_dataset(csv_file(BASIC), DISTS)
        assert ds.n_obs == 3
        assert ds.names == ("a", "b", "c")
        # lexicographically first string level maps to 0
        assert ds.column("b").tolist() == [1.0, 0.0, 0.0]

    def test_spec_file_round_trip(self, csv_file, tmp_path):
        spec_path = tmp_path / "dists.txt"
        spec_path.write_text(format_dist_spec(DISTS))
        ds = load_dataset(csv_file(BASIC), spec_path)
        assert ds.distributions == ("binomial", "binomial", "gaussian")

    def test_byte_order_mark_is_not_part_of_the_first_name(self, csv_file, tmp_path):
        # spreadsheet "CSV UTF-8" exports start both files with U+FEFF
        spec_path = tmp_path / "dists.txt"
        spec_path.write_bytes(b"\xef\xbb\xbf" + format_dist_spec(DISTS).encode())
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + BASIC.encode())
        ds = load_dataset(path, spec_path)
        assert ds.names == ("a", "b", "c")
        assert ds.fingerprint() == load_dataset(csv_file(BASIC), DISTS).fingerprint()

    def test_non_utf8_file_is_data_error(self, csv_file, tmp_path):
        spec_path = tmp_path / "dists.txt"
        spec_path.write_text(format_dist_spec(DISTS))
        latin = tmp_path / "latin-1.txt"
        latin.write_bytes("a,b,c\n1,café,0.5\n".encode("latin-1"))
        for data, dists in ((latin, spec_path), (csv_file(BASIC), latin)):
            with pytest.raises(DataError, match=f"{latin} is not UTF-8"):
                load_dataset(data, dists)

    def test_text_read_already_is_not_read_again(self, csv_file, tmp_path):
        absent = tmp_path / "absent.csv"
        ds = load_dataset(absent, DISTS, text=BASIC)
        assert ds.fingerprint() == load_dataset(csv_file(BASIC), DISTS).fingerprint()
        with pytest.raises(MissingColumn, match=f"column 'd' not found in {absent}"):
            load_dataset(absent, {**DISTS, "d": "gaussian"}, text=BASIC)

    def test_group_var_column_is_skipped(self, csv_file):
        path = csv_file("a,c,farm\n1,0.5,f1\n0,1.5,f2\n")
        ds = load_dataset(path, {"a": "binomial", "c": "gaussian"}, group_var="farm")
        assert ds.names == ("a", "c")
        assert ds.columns.shape == (2, 2)
        with pytest.raises(MissingColumn):
            load_dataset(csv_file("a,c\n1,0.5\n0,1.5\n", "nofarm.csv"),
                         {"a": "binomial", "c": "gaussian"}, group_var="farm")

    def test_three_level_binomial_rejected(self, csv_file):
        path = csv_file("a\nx\ny\nz\n")
        with pytest.raises(BadLevelCount):
            load_dataset(path, {"a": "binomial"})

    def test_negative_poisson_rejected(self, csv_file):
        path = csv_file("a\n1\n-1\n")
        with pytest.raises(NegativeCount):
            load_dataset(path, {"a": "poisson"})

    def test_fractional_poisson_rejected(self, csv_file):
        path = csv_file("a\n1\n1.5\n")
        with pytest.raises(NegativeCount):
            load_dataset(path, {"a": "poisson"})

    def test_missing_value_rejected(self, csv_file):
        path = csv_file("a,c\n1,0.5\n0,NA\n")
        with pytest.raises(MissingValue):
            load_dataset(path, {"a": "binomial", "c": "gaussian"})

    def test_declared_column_absent(self, csv_file):
        with pytest.raises(MissingColumn):
            load_dataset(csv_file("a\n1\n0\n"), {"a": "binomial", "zz": "gaussian"})

    def test_undeclared_column_rejected(self, csv_file):
        with pytest.raises(MissingColumn):
            load_dataset(csv_file("a,b\n1,2\n0,3\n"), {"a": "binomial"})

    @pytest.mark.parametrize("name", ["(Intercept)", "log_precision"])
    def test_parameter_label_rejected_as_column(self, csv_file, name):
        with pytest.raises(UnknownName, match="reserved"):
            load_dataset(csv_file(f"x,{name}\n0.5,1.5\n1.5,0.5\n"),
                         {"x": "gaussian", name: "gaussian"})

    @pytest.mark.parametrize("name", ["(Intercept)", "log_precision"])
    def test_parameter_label_rejected_as_dataset_name(self, name):
        with pytest.raises(UnknownName, match="reserved"):
            Dataset(names=("x", name), columns=np.ones((2, 2)),
                    distributions=("gaussian", "gaussian"))

    def test_parse_dist_spec_comments_and_group(self):
        dists, group = parse_dist_spec("# comment\na=binomial\nc = gaussian\ngroup_var=farm\n")
        assert dists == {"a": "binomial", "c": "gaussian"}
        assert group == "farm"


class TestStandardize:
    def test_small_column(self):
        ds = Dataset(names=("g",), columns=np.array([[1.0], [2.0], [3.0]]),
                     distributions=("gaussian",))
        out = standardize(ds)
        assert abs(out.column("g").mean()) < 1e-12
        assert abs(out.column("g").std(ddof=1) - 1) < 1e-12

    def test_binomial_untouched(self):
        cols = np.column_stack([[0, 1, 1, 0], [1.0, 2.0, 3.0, 4.0]])
        ds = Dataset(names=("b", "g"), columns=cols,
                     distributions=("binomial", "gaussian"))
        out = standardize(ds)
        assert np.array_equal(out.column("b"), ds.column("b"))

    def test_constant_gaussian_rejected(self):
        ds = Dataset(names=("g",), columns=np.ones((5, 1)), distributions=("gaussian",))
        with pytest.raises(ZeroVariance):
            standardize(ds)

    def test_standardized_moments_random(self):
        rng = np.random.default_rng(0)
        ds = Dataset(names=("g",), columns=rng.normal(3, 7, size=(200, 1)),
                     distributions=("gaussian",))
        out = standardize(ds)
        assert abs(out.column("g").mean()) < 1e-12
        assert abs(out.column("g").std(ddof=1) - 1.0) < 1e-12


class TestDesign:
    def test_intercept_only(self):
        ds = Dataset(names=("a", "b"), columns=np.random.default_rng(0).normal(size=(5, 2)),
                     distributions=("gaussian", "gaussian"))
        d = build_design(ds, "a", [])
        assert d.width == 1
        assert d.labels == ("(Intercept)",)
        assert np.all(d.predictors == 1.0)

    def test_parents_in_name_order(self):
        rng = np.random.default_rng(1)
        ds = Dataset(names=("z", "a", "m"), columns=rng.normal(size=(4, 3)),
                     distributions=("gaussian",) * 3)
        d = build_design(ds, "z", ["m", "a"])
        assert d.labels == ("(Intercept)", "a", "m")
        assert np.array_equal(d.predictors[:, 1], ds.column("a"))

    @pytest.mark.parametrize("family, contiguous", [
        ("binomial", "F_CONTIGUOUS"), ("poisson", "F_CONTIGUOUS"), ("gaussian", "C_CONTIGUOUS"),
    ])
    def test_layout_follows_the_child_family(self, family, contiguous):
        # column-major speeds up the binomial and poisson Newton products;
        # gaussian blocks stay row-major so their scores keep every last bit
        rng = np.random.default_rng(2)
        cols = np.column_stack([[0, 1, 1, 0, 1, 0], rng.normal(size=(6, 3))])
        ds = Dataset(names=("y", "a", "c", "b"), columns=cols,
                     distributions=(family, "gaussian", "gaussian", "gaussian"))
        d = build_design(ds, "y", ["b", "a"])
        assert d.predictors.flags[contiguous]
        assert np.array_equal(d.predictors, np.column_stack([np.ones(6), ds.column("a"),
                                                             ds.column("b")]))
        # each design of a stack is laid out as build_design lays out that set
        sets = [["a", "b"], ["a", "c"], ["b", "c"]]
        X, y = design_stack(ds, 0, np.array([[ds.index(p) for p in s] for s in sets]))
        assert X.shape == (3, 6, 3)
        for b, parents in enumerate(sets):
            d = build_design(ds, "y", parents)
            assert X[b].flags[contiguous]
            assert (X[b].flags.c_contiguous, X[b].flags.f_contiguous, X[b].strides) == (
                d.predictors.flags.c_contiguous, d.predictors.flags.f_contiguous,
                d.predictors.strides)
            assert np.array_equal(X[b], d.predictors)
            assert y.strides == d.response.strides and np.array_equal(y, d.response)

    def test_self_parent_rejected(self):
        ds = Dataset(names=("a", "b"), columns=np.zeros((3, 2)),
                     distributions=("gaussian", "gaussian"))
        ds = Dataset(names=("a", "b"), columns=np.ones((3, 2)) * [0.0, 1.0],
                     distributions=("binomial", "binomial"))
        with pytest.raises(SelfParent):
            build_design(ds, "a", ["a"])

    def test_duplicate_parent_rejected(self):
        rng = np.random.default_rng(1)
        ds = Dataset(names=("a", "b"), columns=rng.normal(size=(3, 2)),
                     distributions=("gaussian", "gaussian"))
        with pytest.raises(UnknownName):
            build_design(ds, "a", ["b", "b"])


class TestFingerprint:
    def test_deterministic(self, csv_file):
        path = csv_file(BASIC)
        a = load_dataset(path, DISTS).fingerprint()
        b = load_dataset(path, DISTS).fingerprint()
        assert a == b

    def test_changes_with_data(self, csv_file):
        a = load_dataset(csv_file(BASIC), DISTS).fingerprint()
        b = load_dataset(csv_file(BASIC.replace("2.5", "2.6"), "other.csv"), DISTS).fingerprint()
        assert a != b

    def test_changes_with_dist_spec(self, csv_file):
        path = csv_file("a,c\n1,2\n0,3\n")
        a = load_dataset(path, {"a": "binomial", "c": "gaussian"}).fingerprint()
        b = load_dataset(path, {"a": "binomial", "c": "poisson"}).fingerprint()
        assert a != b

    def test_csv_round_trip(self, csv_file, tmp_path):
        ds = load_dataset(csv_file(BASIC), DISTS)
        out = tmp_path / "echo.csv"
        out.write_text(ds.to_csv())
        back = load_dataset(out, DISTS)
        assert back.fingerprint() == ds.fingerprint()
