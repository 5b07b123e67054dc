"""Tests for Table I and the compatibility relation (Definition 1)."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.errors import GTMError
from repro.core.compatibility import (
    DEFAULT_MATRIX,
    INDEPENDENT_MEMBERS,
    CompatibilityMatrix,
    LogicalDependence,
    invocations_compatible,
)
from repro.core.opclass import (
    Invocation,
    OperationClass,
    add,
    assign,
    read,
)

_R = OperationClass.READ
_I = OperationClass.INSERT
_D = OperationClass.DELETE
_AS = OperationClass.UPDATE_ASSIGN
_AD = OperationClass.UPDATE_ADDSUB
_MU = OperationClass.UPDATE_MULDIV


class TestTableI:
    """The exact entries of paper Table I."""

    def test_read_compatible_with_updates(self):
        for other in (_R, _AS, _AD, _MU):
            assert DEFAULT_MATRIX.compatible_classes(_R, other)

    def test_insert_delete_compatible_with_nothing(self):
        for cls in (_I, _D):
            for other in OperationClass:
                assert not DEFAULT_MATRIX.compatible_classes(cls, other)

    def test_assignment_only_with_read(self):
        assert DEFAULT_MATRIX.compatible_with(_AS) == frozenset({_R})

    def test_addsub_with_itself_and_read(self):
        assert DEFAULT_MATRIX.compatible_with(_AD) == frozenset({_R, _AD})

    def test_muldiv_with_itself_and_read(self):
        assert DEFAULT_MATRIX.compatible_with(_MU) == frozenset({_R, _MU})

    def test_addsub_muldiv_incompatible(self):
        assert not DEFAULT_MATRIX.compatible_classes(_AD, _MU)

    def test_assignment_not_self_compatible(self):
        assert not DEFAULT_MATRIX.compatible_classes(_AS, _AS)

    def test_matrix_is_symmetric(self):
        for a, b in itertools.product(OperationClass, repeat=2):
            assert DEFAULT_MATRIX.compatible_classes(a, b) == \
                DEFAULT_MATRIX.compatible_classes(b, a)

    def test_as_table_has_header_and_rows(self):
        table = DEFAULT_MATRIX.as_table()
        assert len(table) == len(OperationClass) + 1
        assert table[0][1] == "read"

    def test_malformed_pair_rejected(self):
        with pytest.raises(GTMError):
            CompatibilityMatrix([frozenset({_R, _AS, _AD})])


class TestLogicalDependence:
    def test_same_member_always_dependent(self):
        assert INDEPENDENT_MEMBERS.dependent("x", "x")

    def test_distinct_members_independent_by_default(self):
        assert not INDEPENDENT_MEMBERS.dependent("price", "quantity")

    def test_grouped_members_dependent(self):
        dependence = LogicalDependence.of({"price", "quantity"})
        assert dependence.dependent("price", "quantity")
        assert dependence.dependent("quantity", "price")

    def test_ungrouped_member_independent_of_group(self):
        dependence = LogicalDependence.of({"price", "quantity"})
        assert not dependence.dependent("price", "name")

    def test_separate_groups_independent(self):
        dependence = LogicalDependence.of({"a", "b"}, {"c", "d"})
        assert not dependence.dependent("a", "c")

    def test_member_in_two_groups_rejected(self):
        with pytest.raises(GTMError):
            LogicalDependence.of({"a", "b"}, {"b", "c"})


class TestInvocationCompatibility:
    """Definition 1 with the member relaxation."""

    def test_same_member_uses_matrix(self):
        assert invocations_compatible(add(1), add(2))
        assert not invocations_compatible(add(1), assign(5))

    def test_different_members_compatible_when_independent(self):
        sub_quantity = add(-1, member="quantity")
        set_price = assign(100, member="price")
        assert invocations_compatible(sub_quantity, set_price)

    def test_different_members_conflict_when_dependent(self):
        dependence = LogicalDependence.of({"price", "quantity"})
        sub_quantity = add(-1, member="quantity")
        set_price = assign(100, member="price")
        assert not invocations_compatible(sub_quantity, set_price,
                                          dependence=dependence)

    def test_insert_delete_ignore_member_independence(self):
        insert = Invocation(OperationClass.INSERT, member="a")
        some_read = read(member="b")
        assert not invocations_compatible(insert, some_read)

    def test_reads_always_compatible_with_reads(self):
        assert invocations_compatible(read("a"), read("a"))
        assert invocations_compatible(read("a"), read("b"))


class TestPropertyBased:
    classes = st.sampled_from(list(OperationClass))
    members = st.sampled_from(["value", "price", "quantity"])

    @st.composite
    @staticmethod
    def invocations(draw):
        op_class = draw(TestPropertyBased.classes)
        member = draw(TestPropertyBased.members)
        if op_class is OperationClass.UPDATE_MULDIV:
            operand = draw(st.sampled_from([2, 0.5, -1]))
        elif op_class.is_update:
            operand = draw(st.integers(-10, 10))
        else:
            operand = None
        return Invocation(op_class, member=member, operand=operand)

    @given(invocations(), invocations())
    def test_compatibility_is_symmetric(self, a, b):
        assert invocations_compatible(a, b) == invocations_compatible(b, a)

    @given(invocations())
    def test_read_never_conflicts_with_update_same_member(self, inv):
        if inv.op_class in (OperationClass.INSERT, OperationClass.DELETE):
            return
        assert invocations_compatible(read(inv.member), inv)

    @given(invocations(), invocations())
    def test_compatible_scalar_ops_commute_on_values(self, a, b):
        """Definition 1 condition 2: compatible same-member scalar update
        pairs produce the same result in either order."""
        scalar = (OperationClass.UPDATE_ADDSUB, OperationClass.UPDATE_MULDIV)
        if a.op_class not in scalar or b.op_class not in scalar:
            return
        if a.member != b.member:
            return
        if not invocations_compatible(a, b):
            return
        start = 7.0
        forward = b.apply(a.apply(start))
        backward = a.apply(b.apply(start))
        assert forward == pytest.approx(backward)
