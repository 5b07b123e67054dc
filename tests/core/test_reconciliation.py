"""Tests for the reconciliation algorithms (Eq. 1 and Eq. 2)."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from repro.errors import GTMError, ReconciliationError
from repro.core.compatibility import DEFAULT_MATRIX
from repro.core.opclass import OperationClass
from repro.core.reconciliation import (
    AdditiveReconciler,
    IdentityReconciler,
    MultiplicativeReconciler,
    ReconcilerRegistry,
    default_registry,
)


class TestAdditive:
    """Eq. (1): X_new = A_temp + X_permanent - X_read."""

    def test_paper_table2_values(self):
        reconciler = AdditiveReconciler()
        # A: read 100, temp 104; commits against permanent 100 -> 104
        assert reconciler.reconcile(100, 104, 100) == 104
        # B: read 100, temp 102; commits against permanent 104 -> 106
        assert reconciler.reconcile(100, 102, 104) == 106

    def test_no_concurrent_commit_is_identity(self):
        assert AdditiveReconciler().reconcile(50, 47, 50) == 47

    def test_non_numeric_raises(self):
        with pytest.raises(ReconciliationError):
            AdditiveReconciler().reconcile("a", "b", None)

    @given(st.integers(-10**6, 10**6), st.integers(-1000, 1000),
           st.integers(-1000, 1000))
    def test_order_independence(self, start, delta_a, delta_b):
        """Two additive commits yield the same final value either order."""
        reconciler = AdditiveReconciler()
        # both read `start`; A ends at start+delta_a, B at start+delta_b
        a_first = reconciler.reconcile(
            start, start + delta_b,
            reconciler.reconcile(start, start + delta_a, start))
        b_first = reconciler.reconcile(
            start, start + delta_a,
            reconciler.reconcile(start, start + delta_b, start))
        assert a_first == b_first == start + delta_a + delta_b


class TestMultiplicative:
    """Eq. (2): X_new = (A_temp / X_read) * X_permanent."""

    def test_single_factor(self):
        assert MultiplicativeReconciler().reconcile(10, 20, 10) == 20.0

    def test_concurrent_factors_compose(self):
        reconciler = MultiplicativeReconciler()
        # A doubles, B triples; both read 10
        after_a = reconciler.reconcile(10, 20, 10)        # 20
        after_b = reconciler.reconcile(10, 30, after_a)   # 60
        assert after_b == 60.0

    def test_zero_read_snapshot_raises(self):
        with pytest.raises(ReconciliationError):
            MultiplicativeReconciler().reconcile(0, 5, 10)

    def test_non_numeric_raises(self):
        with pytest.raises(ReconciliationError):
            MultiplicativeReconciler().reconcile(1, "x", 2)

    @given(st.floats(0.1, 100), st.floats(0.1, 10), st.floats(0.1, 10))
    def test_order_independence(self, start, factor_a, factor_b):
        reconciler = MultiplicativeReconciler()
        a_first = reconciler.reconcile(
            start, start * factor_b,
            reconciler.reconcile(start, start * factor_a, start))
        b_first = reconciler.reconcile(
            start, start * factor_a,
            reconciler.reconcile(start, start * factor_b, start))
        assert a_first == pytest.approx(b_first)
        assert a_first == pytest.approx(start * factor_a * factor_b)

    def test_integer_trace_stays_integer(self):
        """Regression: true division converted int objects to float.

        The Table II trace transliterated to the mul/div class (both
        transactions read 100; A doubles, B triples) must leave an int
        column int: 100 -> 200 -> 600, never 200.0 / 600.0.
        """
        reconciler = MultiplicativeReconciler()
        after_a = reconciler.reconcile(100, 200, 100)
        assert after_a == 200 and isinstance(after_a, int)
        after_b = reconciler.reconcile(100, 300, after_a)
        assert after_b == 600 and isinstance(after_b, int)

    def test_non_integral_result_is_float(self):
        # an int column halved must become float — only *integral*
        # results keep the int type.
        result = MultiplicativeReconciler().reconcile(100, 50, 101)
        assert result == pytest.approx(50.5)
        assert isinstance(result, float)

    def test_float_inputs_stay_float(self):
        result = MultiplicativeReconciler().reconcile(10.0, 20.0, 10.0)
        assert result == 20.0 and isinstance(result, float)

    def test_fraction_arithmetic_is_exact(self):
        # (1/3 of 300) applied to 300 would accumulate float error with
        # true division; Fraction keeps it exactly 100.
        reconciler = MultiplicativeReconciler()
        assert reconciler.reconcile(300, 100, 300) == 100

    def test_bool_inputs_do_not_masquerade_as_int(self):
        # bool is an int subclass; the type-restore must not return a
        # bare int for what was a degenerate bool input.
        result = MultiplicativeReconciler().reconcile(True, True, True)
        assert result == 1.0 and isinstance(result, float)


def fraction_eq2(x_read, a_temp, x_permanent):
    """Eq. (2) the way ``MultiplicativeReconciler`` computed it for every
    input before it gained an integer path: through ``Fraction``."""
    if x_read == 0:
        raise ReconciliationError("X_read == 0")
    exact = (Fraction(a_temp) / Fraction(x_read)) * Fraction(x_permanent)
    all_int = all(isinstance(v, int) and not isinstance(v, bool)
                  for v in (x_read, a_temp, x_permanent))
    if all_int and exact.denominator == 1:
        return int(exact)
    return float(exact)


def _outcome(reconcile, *args):
    """What ``reconcile`` returns, or the exception class it raises (a
    product past the float range overflows)."""
    try:
        return "value", reconcile(*args)
    except OverflowError:
        return "raises", OverflowError


class Count(int):
    """An ``int`` subclass, as a column adapter might hand one back."""


#: past 2**63 both ways, so products leave the machine-word range.
_INTS = st.integers(min_value=-(2 ** 80), max_value=2 ** 80)
_EQ2_VALUES = st.one_of(_INTS, st.integers(-50, 50), st.booleans(),
                        _INTS.map(Count),
                        st.floats(allow_nan=False, allow_infinity=False))


class TestEq2IntegerPath:
    """Eq. (2) on three plain ints skips ``Fraction``; it must return
    exactly what the ``Fraction`` path returns — the same value and the
    same type — for every input."""

    @given(_EQ2_VALUES, _EQ2_VALUES, _EQ2_VALUES)
    @example(7, 21, 0)                      # a zero X_permanent
    @example(-3, 9, -5)                     # negatives, exact
    @example(-3, 10, 7)                     # negatives, inexact
    @example(3, 2 ** 62 + 1, 2 ** 62 + 7)   # a product past 2**63
    @example(13, 454777655439911096417, 827037)  # rounding p first errs
    @example(True, 6, 4)                    # a bool among ints
    @example(Count(4), Count(6), Count(10))  # an int subclass
    @example(Count(4), 6, 7)                # ... inexact
    def test_same_value_and_type_as_the_fraction_path(
            self, x_read, a_temp, x_permanent):
        assume(x_read != 0)
        args = (x_read, a_temp, x_permanent)
        expected = _outcome(fraction_eq2, *args)
        actual = _outcome(MultiplicativeReconciler().reconcile, *args)
        assert type(actual[1]) is type(expected[1])
        assert actual == expected

    def test_a_quotient_past_the_float_range_overflows_on_both(self):
        big = 2 ** 1100
        with pytest.raises(OverflowError):
            fraction_eq2(3, big, big)
        with pytest.raises(OverflowError):
            MultiplicativeReconciler().reconcile(3, big, big)


class TestIdentity:
    def test_returns_temp_verbatim(self):
        assert IdentityReconciler().reconcile(1, 99, 42) == 99


class TestRegistry:
    def test_default_registry_covers_update_classes(self):
        registry = default_registry()
        assert registry.has(OperationClass.UPDATE_ADDSUB)
        assert registry.has(OperationClass.UPDATE_MULDIV)
        assert registry.has(OperationClass.UPDATE_ASSIGN)

    def test_missing_class_raises(self):
        registry = ReconcilerRegistry()
        with pytest.raises(ReconciliationError):
            registry.for_class(OperationClass.UPDATE_ADDSUB)

    def test_reconcile_dispatches(self):
        registry = default_registry()
        assert registry.reconcile(OperationClass.UPDATE_ADDSUB,
                                  100, 102, 104) == 106

    def test_validate_against_passes_for_defaults(self):
        default_registry().validate_against(DEFAULT_MATRIX)

    def test_validate_against_catches_missing_reconciler(self):
        registry = ReconcilerRegistry()  # empty: add/sub self-compat fails
        with pytest.raises(ReconciliationError):
            registry.validate_against(DEFAULT_MATRIX)

    def test_validate_against_rejects_non_matrix(self):
        """Regression: this guard was a bare assert, stripped under -O."""
        with pytest.raises(GTMError):
            default_registry().validate_against({"not": "a matrix"})

    def test_register_overrides(self):
        registry = default_registry()
        registry.register(OperationClass.UPDATE_ADDSUB,
                          IdentityReconciler())
        assert registry.for_class(
            OperationClass.UPDATE_ADDSUB).name == "identity"
