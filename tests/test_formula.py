import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abnkit.errors import FormulaError, SelfArc, UnknownName
from abnkit.formula import parse_formula, render_formula


class TestParse:
    def test_two_terms(self):
        m = parse_formula("~a|b:c + d|c", ["a", "b", "c", "d"])
        expected = np.zeros((4, 4), dtype=int)
        expected[0, 1] = expected[0, 2] = 1  # a <- b, c
        expected[3, 2] = 1                   # d <- c
        assert np.array_equal(m, expected)

    def test_dot_parents_fill_row_except_diagonal(self):
        nodes = ["AR", "pneumS", "female", "livdam", "eggs", "wormCount", "age", "adg"]
        m = parse_formula("~female|.", nodes)
        row = m[nodes.index("female")]
        assert row[nodes.index("female")] == 0
        assert row.sum() == len(nodes) - 1
        assert m.sum() == len(nodes) - 1

    def test_bare_tilde_is_empty(self):
        m = parse_formula("~", ["a", "b"])
        assert m.sum() == 0

    def test_whitespace_insignificant(self):
        nodes = ["a", "b", "c"]
        assert np.array_equal(
            parse_formula("~ a | b : c ", nodes), parse_formula("~a|b:c", nodes)
        )

    def test_duplicate_terms_idempotent(self):
        nodes = ["a", "b"]
        assert np.array_equal(
            parse_formula("~a|b + a|b", nodes), parse_formula("~a|b", nodes)
        )

    def test_child_list_shares_parents(self):
        m = parse_formula("~a:b|c", ["a", "b", "c"])
        assert m[0, 2] == 1 and m[1, 2] == 1 and m.sum() == 2

    def test_dot_child_side(self):
        m = parse_formula("~.|a", ["a", "b", "c"])
        # every node except a itself gains parent a
        assert m[1, 0] == 1 and m[2, 0] == 1 and m.sum() == 2

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            parse_formula("~a|zz", ["a", "b"])

    def test_missing_tilde(self):
        with pytest.raises(FormulaError):
            parse_formula("a|b", ["a", "b"])

    def test_dangling_plus(self):
        with pytest.raises(FormulaError):
            parse_formula("~a|b + ", ["a", "b"])

    def test_dangling_colon(self):
        with pytest.raises(FormulaError):
            parse_formula("~a|b:", ["a", "b"])

    def test_explicit_self_arc_rejected(self):
        with pytest.raises(SelfArc):
            parse_formula("~a|a", ["a", "b"])

    def test_term_without_bar(self):
        with pytest.raises(FormulaError):
            parse_formula("~a", ["a", "b"])

    def test_two_bars(self):
        with pytest.raises(FormulaError, match=r"^term 'a\|b\|c' has more than one '\|'$"):
            parse_formula("~a|b|c", ["a", "b", "c"])

    def test_empty_parent_list(self):
        with pytest.raises(FormulaError, match="^empty parent list$"):
            parse_formula("~a|", ["a", "b"])

    def test_child_list_with_dot_parents_expands_cartesian(self):
        m = parse_formula("~a:b|.", ["a", "b", "c"])
        assert m[0, 1] == 1 and m[0, 2] == 1  # a <- b, c
        assert m[1, 0] == 1 and m[1, 2] == 1  # b <- a, c


class TestRenderRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2**30))
    def test_round_trip(self, n, seed):
        rng = np.random.default_rng(seed)
        nodes = [f"v{i}" for i in range(n)]
        matrix = (rng.random((n, n)) < 0.4).astype(int)
        np.fill_diagonal(matrix, 0)
        text = render_formula(matrix, nodes)
        assert np.array_equal(parse_formula(text, nodes), matrix)

    def test_render_empty(self):
        assert render_formula(np.zeros((2, 2)), ["a", "b"]) == "~"
