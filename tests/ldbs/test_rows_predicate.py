"""Tests for row versions and predicates."""

import pytest

from repro.errors import StorageError
from repro.ldbs.predicate import ALWAYS, P
from repro.ldbs.rows import Row


class TestRow:
    def test_mapping_interface(self):
        row = Row(1, {"a": 1, "b": "x"})
        assert row["a"] == 1
        assert set(row) == {"a", "b"}
        assert len(row) == 2

    def test_replace_bumps_version_keeps_rid(self):
        row = Row(1, {"a": 1})
        newer = row.replace({"a": 2})
        assert newer.rid == 1
        assert newer.version == 1
        assert newer["a"] == 2
        assert row["a"] == 1  # immutable original

    def test_replace_unknown_column_raises(self):
        with pytest.raises(StorageError):
            Row(1, {"a": 1}).replace({"ghost": 2})

    def test_as_dict_is_a_copy(self):
        row = Row(1, {"a": 1})
        copy = row.as_dict()
        copy["a"] = 99
        assert row["a"] == 1

    def test_equality_by_rid_version_values(self):
        assert Row(1, {"a": 1}) == Row(1, {"a": 1})
        assert Row(1, {"a": 1}) != Row(1, {"a": 1}, version=1)
        assert Row(1, {"a": 1}) != Row(2, {"a": 1})

    def test_hashable(self):
        assert len({Row(1, {"a": 1}), Row(1, {"a": 1})}) == 1


class TestPredicates:
    def test_always_matches(self):
        assert ALWAYS({"anything": 1})

    def test_eq(self):
        pred = P("town") == "Naples"
        assert pred({"town": "Naples"})
        assert not pred({"town": "Rome"})

    def test_ne(self):
        assert (P("a") != 1)({"a": 2})

    def test_comparisons(self):
        assert (P("n") > 3)({"n": 4})
        assert (P("n") >= 4)({"n": 4})
        assert (P("n") < 5)({"n": 4})
        assert (P("n") <= 4)({"n": 4})
        assert not (P("n") > 4)({"n": 4})

    def test_isin(self):
        pred = P("town").isin(["Naples", "Rome"])
        assert pred({"town": "Rome"})
        assert not pred({"town": "Milan"})

    def test_is_null(self):
        assert P("x").is_null()({"x": None})
        assert not P("x").is_null()({"x": 0})

    def test_and_or_not(self):
        pred = (P("n") > 0) & (P("n") < 10)
        assert pred({"n": 5})
        assert not pred({"n": 15})
        either = (P("n") < 0) | (P("n") > 10)
        assert either({"n": 11})
        assert not either({"n": 5})
        negated = ~(P("n") == 5)
        assert negated({"n": 6})

    def test_description_carries_structure(self):
        pred = (P("a") == 1) & (P("b") > 2)
        assert "AND" in pred.description
        assert "a" in pred.description

    def test_predicate_over_row_objects(self):
        row = Row(1, {"free": 3})
        assert (P("free") > 0)(row)
