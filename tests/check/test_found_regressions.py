"""Minimized episodes the stress harness found, pinned forever.

Each was minimized by the shrinker (the first two from seed-42 gtm
episode 733, the last from seed-42 2pl episode 49) and is kept in the
shrinker's output format so the provenance stays visible.
"""

from repro.check.fuzzer import EpisodeSpec, OpSpec, TxnSpec
from repro.check.runner import run_episode


def test_holder_queued_behind_blocked_head():
    """Strict head-of-line blocking livelocked this episode: T2 (queue
    head, wants m2) was blocked by holder T0, and T0 queued *behind* T2
    for m1 — which was free.  Fixed by conflict-respecting overtaking in
    FifoGrantPolicy."""
    spec = EpisodeSpec(
        scheduler='gtm',
        objects=(('X0', (('m1', 81), ('m2', 60))),),
        txns=(
            TxnSpec(txn_id='T0', arrival=4.359,
                    ops=(OpSpec(object_name='X0', member='m2', op='mul',
                                operand=0.25, apply_op=True),
                         OpSpec(object_name='X0', member='m1', op='add',
                                operand=-2, apply_op=True)),
                    work_time=2.434, outages=(), priority=0),
            TxnSpec(txn_id='T1', arrival=4.774,
                    ops=(OpSpec(object_name='X0', member='m1',
                                op='assign', operand=69, apply_op=True),),
                    work_time=1.546, outages=(), priority=0),
            TxnSpec(txn_id='T2', arrival=4.875,
                    ops=(OpSpec(object_name='X0', member='m2',
                                op='assign', operand=50,
                                apply_op=False),),
                    work_time=2.795, outages=(), priority=0)),
        wait_timeout=None, seed=42, index=733)
    outcome = run_episode(spec)
    assert outcome.ok, outcome.summary()
    assert outcome.committed == 3


def test_cross_member_deadlock_closed_by_late_grant():
    """With overtaking in place the same episode (plus one op) formed a
    genuine cross-member deadlock: T0 held m2 waiting for m1, the pump
    granted m1 to T2, and T2 then requested m2.  The request-time
    wait-for edges still said "T0 waits on T1" (committed long before),
    so the cycle was invisible.  Fixed by re-policing waiters after
    every ⟨unlock, X⟩ pump."""
    spec = EpisodeSpec(
        scheduler='gtm',
        objects=(('X0', (('m1', 81), ('m2', 60))),),
        txns=(
            TxnSpec(txn_id='T0', arrival=4.359,
                    ops=(OpSpec(object_name='X0', member='m2', op='mul',
                                operand=0.25, apply_op=True),
                         OpSpec(object_name='X0', member='m1', op='add',
                                operand=-2, apply_op=True)),
                    work_time=2.434, outages=(), priority=0),
            TxnSpec(txn_id='T1', arrival=4.774,
                    ops=(OpSpec(object_name='X0', member='m1',
                                op='assign', operand=69, apply_op=True),),
                    work_time=1.546, outages=(), priority=0),
            TxnSpec(txn_id='T2', arrival=4.875,
                    ops=(OpSpec(object_name='X0', member='m1',
                                op='assign', operand=142, apply_op=False),
                         OpSpec(object_name='X0', member='m2',
                                op='assign', operand=50,
                                apply_op=False)),
                    work_time=2.795, outages=(), priority=0)),
        wait_timeout=None, seed=42, index=733)
    outcome = run_episode(spec)
    assert outcome.ok, outcome.summary()
    # the deadlock is resolved by aborting a victim, not by hanging
    assert outcome.committed == 2
    assert outcome.aborted == 1


def test_twopl_deadlock_left_standing_after_its_victim():
    """The lock-manager 2PL baseline left T3 and T4 hanging here: T3
    waited for X2 behind T4 with T1 queued ahead, T4 then asked for X0,
    which T3 held, and the detector broke the cycle T4 -> T3 -> T1 -> T4
    by aborting T1, the youngest.  The two-cycle T4 <-> T3 remained and
    nothing looked at the graph again.  The 2PL baseline is now the GTM
    under the read/write matrix, which re-polices every waiter after
    each unlock."""
    spec = EpisodeSpec(
        scheduler='2pl',
        objects=(('X0', (('value', 94),)), ('X2', (('value', 79),))),
        txns=(
            TxnSpec(txn_id='T1', arrival=5.611,
                    ops=(OpSpec(object_name='X2', member='value', op='add',
                                operand=-2, apply_op=True),),
                    work_time=1.338, outages=(), priority=2),
            TxnSpec(txn_id='T2', arrival=2.515,
                    ops=(OpSpec(object_name='X0', member='value', op='add',
                                operand=-4, apply_op=True),),
                    work_time=1.618, outages=((0.156, 3.534),),
                    priority=1),
            TxnSpec(txn_id='T3', arrival=4.642,
                    ops=(OpSpec(object_name='X0', member='value', op='add',
                                operand=6, apply_op=True),
                         OpSpec(object_name='X2', member='value',
                                op='assign', operand=169, apply_op=True)),
                    work_time=0.827, outages=(), priority=1),
            TxnSpec(txn_id='T4', arrival=2.532,
                    ops=(OpSpec(object_name='X2', member='value',
                                op='assign', operand=155, apply_op=True),
                         OpSpec(object_name='X0', member='value',
                                op='assign', operand=188, apply_op=True)),
                    work_time=1.286, outages=((0.499, 2.612),),
                    priority=0)),
        wait_timeout=None, seed=42, index=49)
    outcome = run_episode(spec)
    assert outcome.result.collector.unfinished() == []
    assert outcome.oracle.serializable, outcome.summary()
    assert outcome.ok, outcome.summary()
