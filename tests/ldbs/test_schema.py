"""Tests for table schemas and column typing."""

import pytest

from repro.errors import SchemaError
from repro.ldbs.schema import Column, ColumnType, TableSchema


class TestColumnType:
    def test_int_accepts_int(self):
        assert ColumnType.INT.validate(5) == 5

    def test_int_rejects_bool(self):
        with pytest.raises(SchemaError):
            ColumnType.INT.validate(True)

    def test_int_coerces_integral_float(self):
        assert ColumnType.INT.validate(4.0) == 4
        assert isinstance(ColumnType.INT.validate(4.0), int)

    def test_int_rejects_fractional_float(self):
        with pytest.raises(SchemaError):
            ColumnType.INT.validate(4.5)

    def test_int_rejects_str(self):
        with pytest.raises(SchemaError):
            ColumnType.INT.validate("5")

    def test_float_normalizes_int(self):
        value = ColumnType.FLOAT.validate(3)
        assert value == 3.0
        assert isinstance(value, float)

    def test_float_rejects_bool(self):
        with pytest.raises(SchemaError):
            ColumnType.FLOAT.validate(False)

    def test_float_rejects_nan(self):
        """SQLite stores a bound NaN as NULL, so neither backend takes
        one; infinities round-trip and stay allowed."""
        with pytest.raises(SchemaError):
            ColumnType.FLOAT.validate(float("nan"))
        assert ColumnType.FLOAT.validate(float("-inf")) == float("-inf")

    def test_float_rejects_an_int_no_float_holds(self):
        """``float(10**400)`` raises OverflowError; the column says
        SchemaError, as for every other value it refuses."""
        with pytest.raises(SchemaError, match="FLOAT"):
            ColumnType.FLOAT.validate(10 ** 400)
        assert ColumnType.FLOAT.validate(2 ** 1000) == float(2 ** 1000)

    def test_text_accepts_str(self):
        assert ColumnType.TEXT.validate("Naples") == "Naples"

    def test_text_rejects_int(self):
        with pytest.raises(SchemaError):
            ColumnType.TEXT.validate(42)

    def test_bool_accepts_bool(self):
        assert ColumnType.BOOL.validate(True) is True

    def test_bool_rejects_int(self):
        with pytest.raises(SchemaError):
            ColumnType.BOOL.validate(1)


class TestColumn:
    def test_invalid_name_raises(self):
        with pytest.raises(SchemaError):
            Column("not valid!", ColumnType.INT)

    def test_default_is_validated(self):
        with pytest.raises(SchemaError):
            Column("c", ColumnType.INT, default="zero")

    def test_nullable_accepts_none(self):
        assert Column("c", ColumnType.INT, nullable=True).validate(None) \
            is None

    def test_not_nullable_rejects_none(self):
        with pytest.raises(SchemaError):
            Column("c", ColumnType.INT).validate(None)

    def test_has_default(self):
        assert Column("c", ColumnType.INT, default=0).has_default
        assert not Column("c", ColumnType.INT).has_default


def make_schema() -> TableSchema:
    return TableSchema(
        name="flight",
        columns=(
            Column("id", ColumnType.INT),
            Column("company", ColumnType.TEXT, nullable=True),
            Column("free_tickets", ColumnType.INT, default=0),
        ),
        primary_key="id",
    )


class TestTableSchema:
    def test_column_lookup(self):
        schema = make_schema()
        assert schema.column("id").type is ColumnType.INT
        assert schema.has_column("company")
        assert not schema.has_column("ghost")

    def test_unknown_column_raises(self):
        with pytest.raises(SchemaError):
            make_schema().column("ghost")

    def test_duplicate_column_raises(self):
        with pytest.raises(SchemaError):
            TableSchema("t", (Column("a", ColumnType.INT),
                              Column("a", ColumnType.INT)))

    def test_empty_columns_raises(self):
        with pytest.raises(SchemaError):
            TableSchema("t", ())

    def test_primary_key_must_exist(self):
        with pytest.raises(SchemaError):
            TableSchema("t", (Column("a", ColumnType.INT),),
                        primary_key="b")

    def test_primary_key_must_not_be_nullable(self):
        with pytest.raises(SchemaError):
            TableSchema("t", (Column("a", ColumnType.INT, nullable=True),),
                        primary_key="a")

    def test_invalid_table_name_raises(self):
        with pytest.raises(SchemaError):
            TableSchema("no spaces", (Column("a", ColumnType.INT),))

    def test_validate_row_fills_defaults(self):
        row = make_schema().validate_row({"id": 1})
        assert row == {"id": 1, "company": None, "free_tickets": 0}

    def test_validate_row_rejects_unknown_columns(self):
        with pytest.raises(SchemaError):
            make_schema().validate_row({"id": 1, "ghost": 2})

    def test_validate_row_requires_non_defaulted(self):
        with pytest.raises(SchemaError):
            make_schema().validate_row({"company": "AZ"})

    def test_validate_row_orders_columns(self):
        row = make_schema().validate_row(
            {"free_tickets": 3, "id": 9, "company": "AZ"})
        assert list(row) == ["id", "company", "free_tickets"]

    def test_validate_update_partial(self):
        updates = make_schema().validate_update({"free_tickets": 7})
        assert updates == {"free_tickets": 7}

    def test_validate_update_unknown_column(self):
        with pytest.raises(SchemaError):
            make_schema().validate_update({"ghost": 1})

    def test_column_names(self):
        assert make_schema().column_names == ("id", "company",
                                              "free_tickets")
