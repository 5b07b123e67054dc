"""The generated inputs are a pure function of the seed."""

from itertools import islice

from e2e.loadgen import late_generator
from e2e.workloads import (
    OPS_PER_TXN,
    WIRE_WORKLOADS,
    arrival_schedule,
    session_scripts,
)


def _head(seed, name, session, count=200):
    return list(islice(session_scripts(seed, name, session), count))


def test_same_seed_gives_identical_scripts():
    for name in WIRE_WORKLOADS:
        assert _head(7, name, 3) == _head(7, name, 3)
        assert _head(7, name, 3) != _head(8, name, 3)
        assert _head(7, name, 3) != _head(7, name, 4)


def test_same_seed_gives_identical_arrival_schedule():
    first = arrival_schedule(7, "wire_open", 0.5, 2.0)
    assert first == arrival_schedule(7, "wire_open", 0.5, 2.0)
    assert first != arrival_schedule(8, "wire_open", 0.5, 2.0)


def test_arrivals_are_ordered_and_counted():
    schedule = arrival_schedule(7, "wire_open", 0.5, 2.0)
    dues = [due for due, _ in schedule]
    assert dues == sorted(dues)
    assert sum(1 for due in dues if due >= 0.5) == 800  # 400/s x 2 s
    assert all(0.0 <= due < 2.5 for due in dues)


def test_every_transaction_touches_distinct_objects():
    for name in WIRE_WORKLOADS:
        for ops, _ in _head(1, name, 0):
            assert len(ops) == OPS_PER_TXN
            assert len({obj for _, obj, _ in ops}) == OPS_PER_TXN
            for op, _, operand in ops:
                assert (operand is None) == (op == "read")
                assert operand is None or operand >= 1


def test_drops_come_after_the_first_grant_and_only_under_churn():
    for name, spec in WIRE_WORKLOADS.items():
        drops = [drop_at for _, drop_at in _head(1, name, 0, 2000)
                 if drop_at is not None]
        if spec.drop_prob == 0.0:
            assert not drops
        else:
            assert all(1 <= drop_at < OPS_PER_TXN for drop_at in drops)
            assert 0.10 < len(drops) / 2000 < 0.20


def test_a_generator_that_is_usually_late_invalidates_the_run():
    latencies = [1.5, 1.7, 1.9, 60.0]
    # a pause shows in the tail of the lag and is charged to latency
    assert late_generator([0.4, 0.5, 0.6, 55.0], latencies) == []
    assert late_generator([2.0, 2.5, 3.0, 55.0], latencies) != []
