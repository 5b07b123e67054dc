"""The bitmask conflict kernel must agree with the pairwise oracle everywhere.

Exhaustive pairwise agreement over every OperationClass pair and member
relation (same member, independent members, logically dependent
members), plus randomized lock-state equivalence for the summary-based
``object_blocked`` test and the grant-round accumulators.

``TestHotPathCounts`` pins why the kernel is fast, as counts rather than
as speed-ups: a pump asks the summary once per distinct ⟨class,
member⟩, not once per waiter, and the admission probe never walks the
holders.
"""

import numpy as np
import pytest

from repro.core.compatibility import (
    CompatibilityMatrix,
    DEFAULT_MATRIX,
    LogicalDependence,
)
from repro.check.pairwise import PairwiseConflictChecker, PairwiseRoundSet
from repro.core.conflicts import (
    ConflictChecker,
    MaskRoundSet,
    build_conflict_checker,
)
from repro.core.gtm import GlobalTransactionManager, GTMConfig
from repro.core.objects import ManagedObject
from repro.core.opclass import (
    Invocation,
    OperationClass,
    add,
    assign,
    multiply,
    read,
)
from repro.errors import GTMError
from tests.core.invocations import delete_object, insert_object

DEPENDENCE = LogicalDependence.of({"m0", "m1"})


def make_invocation(op_class: OperationClass,
                    member: str = "value") -> Invocation:
    """A valid invocation of the class (INSERT/DELETE are whole-object)."""
    if op_class is OperationClass.READ:
        return read(member)
    if op_class is OperationClass.INSERT:
        return insert_object()
    if op_class is OperationClass.DELETE:
        return delete_object()
    if op_class is OperationClass.UPDATE_ASSIGN:
        return assign(5, member)
    if op_class is OperationClass.UPDATE_ADDSUB:
        return add(1, member)
    return multiply(2.0, member)


#: (member_a, member_b) relations the pairwise sweep exercises.
MEMBER_RELATIONS = (
    ("value", "value"),   # same member
    ("m0", "m2"),         # distinct, independent
    ("m0", "m1"),         # distinct, logically dependent (same group)
)


class TestPairwiseAgreement:
    @pytest.mark.parametrize("member_a,member_b", MEMBER_RELATIONS)
    def test_all_class_pairs_agree(self, member_a, member_b):
        reference = PairwiseConflictChecker(dependence=DEPENDENCE)
        bitmask = ConflictChecker(dependence=DEPENDENCE)
        for class_a in OperationClass:
            for class_b in OperationClass:
                inv_a = make_invocation(class_a, member_a)
                inv_b = make_invocation(class_b, member_b)
                expected = reference.in_conflict(inv_a, inv_b)
                assert bitmask.in_conflict(inv_a, inv_b) == expected, \
                    (class_a, class_b, member_a, member_b)
                # Definition 2 is symmetric; so must both engines be.
                assert bitmask.in_conflict(inv_b, inv_a) == expected

    def test_conflicts_with_any_agrees_on_op_sets(self):
        reference = PairwiseConflictChecker(dependence=DEPENDENCE)
        bitmask = ConflictChecker(dependence=DEPENDENCE)
        rng = np.random.default_rng(11)
        classes = list(OperationClass)
        members = ("value", "m0", "m1", "m2")
        for _ in range(300):
            size = int(rng.integers(0, 6))
            granted = [
                make_invocation(classes[int(rng.integers(len(classes)))],
                                members[int(rng.integers(len(members)))])
                for _ in range(size)]
            probe = make_invocation(
                classes[int(rng.integers(len(classes)))],
                members[int(rng.integers(len(members)))])
            assert bitmask.conflicts_with_any(probe, granted) == \
                reference.conflicts_with_any(probe, granted)

    def test_masks_compile_the_matrix_exactly(self):
        masks = DEFAULT_MATRIX.conflict_masks()
        for class_a in OperationClass:
            for class_b in OperationClass:
                compiled = bool((masks[class_a.bit] >> class_b.bit) & 1)
                assert compiled != DEFAULT_MATRIX.compatible_classes(
                    class_a, class_b)

    def test_masks_are_symmetric(self):
        masks = DEFAULT_MATRIX.conflict_masks()
        for class_a in OperationClass:
            for class_b in OperationClass:
                assert ((masks[class_a.bit] >> class_b.bit) & 1) == \
                       ((masks[class_b.bit] >> class_a.bit) & 1)

    def test_custom_matrix_recompiles(self):
        # an everything-conflicts matrix: only the empty pair set
        matrix = CompatibilityMatrix(pairs=())
        bitmask = ConflictChecker(matrix=matrix)
        for class_a in OperationClass:
            for class_b in OperationClass:
                assert bitmask.in_conflict(make_invocation(class_a),
                                           make_invocation(class_b))


class TestObjectBlockedEquivalence:
    """Randomized mutator walks: summary answers == holder-walk answers."""

    PROBES = tuple(
        make_invocation(op_class, member)
        for op_class in OperationClass
        for member in ("m0", "m1", "m2"))

    def test_randomized_lock_states_agree(self):
        rng = np.random.default_rng(2008)
        reference = PairwiseConflictChecker(dependence=DEPENDENCE)
        bitmask = ConflictChecker(dependence=DEPENDENCE)
        obj = ManagedObject("X", members={"m0": 1, "m1": 2, "m2": 3})
        txns = [f"T{i}" for i in range(6)]
        member_classes = (OperationClass.READ, OperationClass.UPDATE_ASSIGN,
                          OperationClass.UPDATE_ADDSUB,
                          OperationClass.UPDATE_MULDIV)
        for _ in range(400):
            txn_id = txns[int(rng.integers(len(txns)))]
            action = int(rng.integers(6))
            if action == 0 and txn_id not in obj.committing:
                member = ("m0", "m1", "m2")[int(rng.integers(3))]
                op_class = member_classes[int(rng.integers(4))]
                obj.grant_pending(txn_id, make_invocation(op_class, member))
            elif action == 1 and txn_id in obj.pending \
                    and txn_id not in obj.sleeping:
                obj.stage_commit(txn_id)
            elif action == 2 and txn_id in obj.committing:
                obj.retire_committer(txn_id)
            elif action == 3 and txn_id in obj.pending:
                obj.mark_sleeping(txn_id)
            elif action == 4 and txn_id in obj.sleeping:
                obj.wake_sleeping(txn_id)
            elif action == 5:
                obj.release_claims(txn_id)
            obj.verify_summary()
            prober = txns[int(rng.integers(len(txns)))]
            for probe in self.PROBES:
                assert bitmask.object_blocked(obj, prober, probe) == \
                    reference.object_blocked(obj, prober, probe), \
                    (prober, probe, obj.summary)

    def test_sleeping_holder_does_not_block(self):
        bitmask = ConflictChecker()
        obj = ManagedObject("X", value=1)
        obj.grant_pending("A", assign(1))
        assert bitmask.object_blocked(obj, "B", assign(2))
        obj.mark_sleeping("A")
        assert not bitmask.object_blocked(obj, "B", assign(2))
        obj.wake_sleeping("A")
        assert bitmask.object_blocked(obj, "B", assign(2))

    def test_own_invocations_do_not_block(self):
        bitmask = ConflictChecker()
        obj = ManagedObject("X", members={"m0": 1, "m1": 2})
        obj.grant_pending("A", assign(1, "m0"))
        # A's own assign never blocks A's next request on the object
        assert not bitmask.object_blocked(obj, "A", assign(2, "m1"))
        assert bitmask.object_blocked(obj, "B", assign(2, "m0"))

    def test_summary_underflow_raises(self):
        obj = ManagedObject("X", value=1)
        with pytest.raises(GTMError, match="underflow"):
            obj.summary.remove(assign(3))


class TestHotPathCounts:
    WAITERS = 64

    def test_a_pump_asks_the_summary_once_per_invocation_shape(
            self, monkeypatch):
        # one ASSIGN holder on ``hot``, 64 queued ASSIGN waiters behind it
        gtm = GlobalTransactionManager(GTMConfig())
        gtm.create_object("hot", value=100)
        gtm.begin("H0")
        assert gtm.invoke("H0", "hot", assign(1)) == "granted"
        for index in range(self.WAITERS):
            gtm.begin(f"W{index}")
            assert gtm.invoke(f"W{index}", "hot", assign(index)) == "queued"
        obj = gtm.object("hot")
        gtm.admission.pump_unlock(obj)  # reach the steady state
        calls = 0
        summary_conflicts = ConflictChecker.summary_conflicts

        def counted(checker, summary, invocation):
            nonlocal calls
            calls += 1
            return summary_conflicts(checker, summary, invocation)

        monkeypatch.setattr(ConflictChecker, "summary_conflicts",
                            counted)
        assert gtm.admission.pump_unlock(obj) == ()
        assert len(obj.waiting) == self.WAITERS
        assert calls == 1

    def test_the_probe_never_walks_the_holders(self, monkeypatch):
        obj = ManagedObject("X", value=100)
        for index in range(self.WAITERS):
            obj.grant_pending(f"H{index}", read())

        def walked(*args, **kwargs):
            raise AssertionError("object_blocked walked the holders")

        monkeypatch.setattr(ManagedObject, "holder_ops", walked)
        bitmask = ConflictChecker()
        # READ and ASSIGN commute with every READ holder: a holder walk
        # could not stop early on either
        assert not bitmask.object_blocked(obj, "probe", read())
        assert not bitmask.object_blocked(obj, "probe", assign(7))
        assert bitmask.object_blocked(obj, "probe", delete_object())


class TestRoundSets:
    def test_round_sets_agree_on_random_sequences(self):
        rng = np.random.default_rng(5)
        reference = PairwiseConflictChecker(dependence=DEPENDENCE)
        bitmask = ConflictChecker(dependence=DEPENDENCE)
        classes = list(OperationClass)
        members = ("value", "m0", "m1", "m2")
        for _ in range(200):
            pairwise = reference.new_round_set()
            masked = bitmask.new_round_set()
            assert isinstance(pairwise, PairwiseRoundSet)
            assert isinstance(masked, MaskRoundSet)
            for _ in range(int(rng.integers(1, 10))):
                inv = make_invocation(
                    classes[int(rng.integers(len(classes)))],
                    members[int(rng.integers(len(members)))])
                if rng.random() < 0.5:
                    pairwise.add(inv)
                    masked.add(inv)
                else:
                    assert pairwise.conflicts(inv) == masked.conflicts(inv)

    def test_empty_round_set_conflicts_nothing(self):
        bitmask = ConflictChecker()
        round_set = bitmask.new_round_set()
        for op_class in OperationClass:
            assert not round_set.conflicts(make_invocation(op_class))


class TestInterning:
    def test_managers_with_one_configuration_share_one_checker(self):
        first = GlobalTransactionManager()
        second = GlobalTransactionManager(GTMConfig())
        assert first.checker is second.checker
        assert type(first.checker) is ConflictChecker
        assert build_conflict_checker(dependence=DEPENDENCE) \
            is build_conflict_checker(dependence=DEPENDENCE) \
            is not first.checker


class TestEngineSelection:
    def test_gtm_config_rejects_unknown_engine(self):
        # one checker and no switch: every engine name is refused at
        # construction, the once-default "bitmask" as much as a made-up one
        for engine in ("nope", "bitmask"):
            with pytest.raises(TypeError, match="conflict_engine"):
                GTMConfig(conflict_engine=engine)
