"""Property tests fuzzing the per-member invocation paths.

Random legal schedules over one structured object (quantity, price)
with member-targeted operations, sleeps and aborts must preserve the
structural invariants and pass the serial-replay serializability check;
additive accounting on each member must be exact when no assignment
committed on it.
"""

from hypothesis import given, settings, strategies as st

from repro.check.oracle import check_episode, record_gtm
from repro.errors import ProtocolError
from repro.core.gtm import GlobalTransactionManager
from repro.core.opclass import add, assign
from repro.core.states import TransactionState

_S = TransactionState

N_TXNS = 4
MEMBERS = ("quantity", "price")

steps = st.lists(
    st.tuples(st.integers(0, N_TXNS - 1),
              st.sampled_from(["add", "assign", "commit", "abort",
                               "sleep", "awake"]),
              st.sampled_from(MEMBERS),
              st.integers(-4, 4)),
    min_size=1, max_size=50)


@settings(max_examples=100, deadline=None)
@given(steps)
def test_random_multimember_schedules(actions):
    gtm = GlobalTransactionManager()
    gtm.create_object("product",
                      members={"quantity": 1000, "price": 1000})
    names = [f"T{k}" for k in range(N_TXNS)]
    for name in names:
        gtm.begin(name)
    expected_delta = {member: 0 for member in MEMBERS}
    assign_committed = {member: False for member in MEMBERS}
    local_delta = {name: {member: 0 for member in MEMBERS}
                   for name in names}

    def account(name):
        txn = gtm.transaction(name)
        for member, op in txn.operations.get("product", {}).items():
            if op.op_class.value == "update-addsub":
                expected_delta[member] += local_delta[name][member]
            elif op.op_class.value == "update-assign":
                assign_committed[member] = True

    for index, action, member, amount in actions:
        name = names[index]
        txn = gtm.transaction(name)
        if action in ("add", "assign") and txn.is_in(_S.ACTIVE):
            invocation = (add(1, member=member) if action == "add"
                          else assign(amount, member=member))
            try:
                outcome = gtm.invoke(name, "product", invocation)
            except ProtocolError:
                continue  # own-op conflict or class change: legal refusal
            obj = gtm.object("product")
            granted = obj.pending.get(name, {}).get(member)
            if granted is None or not gtm.transaction(name).is_in(
                    _S.ACTIVE):
                continue
            if granted.op_class.value == "update-addsub":
                gtm.apply(name, "product", add(amount, member=member))
                local_delta[name][member] += amount
            else:
                gtm.apply(name, "product", assign(amount, member=member))
        elif action == "commit" and txn.is_in(_S.ACTIVE) and \
                txn.involved and not txn.t_wait:
            gtm.request_commit(name)
            gtm.pump_commits()
            if gtm.transaction(name).is_in(_S.COMMITTED):
                account(name)
        elif action == "abort" and txn.is_in(_S.ACTIVE, _S.WAITING):
            gtm.abort(name)
        elif action == "sleep" and txn.is_in(_S.ACTIVE, _S.WAITING):
            gtm.sleep(name)
        elif action == "awake" and txn.is_in(_S.SLEEPING):
            gtm.awake(name)
        gtm.check_invariants()

    # drain every live transaction
    for name in names:
        txn = gtm.transaction(name)
        if txn.is_in(_S.SLEEPING):
            gtm.awake(name)
            txn = gtm.transaction(name)
        if txn.is_in(_S.WAITING):
            gtm.abort(name)
            continue
        if txn.is_in(_S.ACTIVE):
            if txn.involved and not txn.t_wait:
                gtm.request_commit(name)
                gtm.pump_commits()
                if gtm.transaction(name).is_in(_S.COMMITTED):
                    account(name)
            else:
                gtm.abort(name)
    gtm.pump_commits()
    for name in names:
        txn = gtm.transaction(name)
        if txn.is_in(_S.COMMITTING) and gtm.commit_ready(name):
            gtm.global_commit(name)
            account(name)

    gtm.check_invariants()
    report = check_episode(record_gtm(gtm))
    assert report.serializable, report.mismatches
    obj = gtm.object("product")
    for member in MEMBERS:
        if not assign_committed[member]:
            assert obj.permanent_value(member) == \
                1000 + expected_delta[member], member
