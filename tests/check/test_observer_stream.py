"""The observer stream's delivery order, pinned as golden digests.

Observers are state machines over the event stream (wait → grant →
commit), so *which* hooks fire, for whom, at what virtual time and in
what order is part of the kernel's contract, not an implementation
detail.  Each digest below is a SHA-256 over every hook delivery
(hook name, transaction id, object name, ``now``) of 50 fuzz episodes
at seed 42, recorded by a passive subscriber that overrides all
fourteen hooks.  The values were recorded on the tick-buffered bus of
commit 706f36d, before delivery moved to the instant of emission: a
hook delivered earlier, later or in another order moves them.
"""

import hashlib

import pytest

from repro.check.fuzzer import FuzzConfig, episode_workload, generate_episode
from repro.check.runner import build_scheduler
from repro.core.events import _HOOKS, GTMObserver
from repro.schedulers import gtm_scheduler

SEED = 42
EPISODES = 50
_BUILD = gtm_scheduler.GlobalTransactionManager

#: The contended fuzz mixes: the default mix is where outages put
#: transactions to sleep, ``contended`` queues two dozen transactions on
#: two objects, ``hotspot`` four dozen on one.
CONFIGS = {
    "default": FuzzConfig(scheduler="gtm"),
    "contended": FuzzConfig(scheduler="gtm", max_objects=2, max_txns=24,
                            max_ops_per_txn=3, arrival_spread=2.0),
    "hotspot": FuzzConfig(scheduler="gtm", max_objects=1, max_txns=48,
                          max_ops_per_txn=3, arrival_spread=1.0,
                          p_outage=0.1, p_wait_timeout=0.0),
}

GOLDEN = {
    "default":
        "61b2ff3262dfbbacbd494ab1db3b654286ebc5d6ef3ae052f6762b319cf5799c",
    "contended":
        "de1bcd3956a4d716a2e38895eab0a45f174cdc62c3c8d5a46f7c316c078f90e4",
    "hotspot":
        "9d880e28fde6768d852527bb9d584e2eb3b99a0b96a2b2330e02ef094c300377",
}


class StreamRecorder(GTMObserver):
    """Appends one line per delivered hook; overrides all fourteen."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def _line(self, hook, txn, obj, now) -> None:
        self.lines.append(
            f"{hook}|{txn.txn_id if txn is not None else ''}|"
            f"{obj.name if obj is not None else ''}|{now!r}")

    def on_begin(self, txn, now):
        self._line("on_begin", txn, None, now)

    def on_grant(self, txn, obj, invocation, now):
        self._line("on_grant", txn, obj, now)

    def on_wait(self, txn, obj, invocation, now):
        self._line("on_wait", txn, obj, now)

    def on_local_commit(self, txn, obj, now):
        self._line("on_local_commit", txn, obj, now)

    def on_commit_deferred(self, txn, obj, now):
        self._line("on_commit_deferred", txn, obj, now)

    def on_global_commit(self, txn, now):
        self._line("on_global_commit", txn, None, now)

    def on_global_abort(self, txn, now, reason):
        self._line("on_global_abort", txn, None, now)

    def on_sleep(self, txn, now):
        self._line("on_sleep", txn, None, now)

    def on_awake(self, txn, now, survived):
        self._line("on_awake", txn, None, now)

    def on_unlock(self, obj, granted, now):
        self._line("on_unlock", None, obj, now)

    def on_reconcile(self, txn, obj, invocation, now):
        self._line("on_reconcile", txn, obj, now)

    def on_revalidate(self, txn, obj, conflicted, now):
        self._line("on_revalidate", txn, obj, now)

    def on_pump(self, obj, examined, granted, overtakes, now):
        self._line("on_pump", None, obj, now)

    def on_repolice(self, obj, refreshed, now):
        self._line("on_repolice", None, obj, now)


def record_stream(config: FuzzConfig, patch) -> list[str]:
    recorder = StreamRecorder()

    def build_and_subscribe(**kwargs):
        gtm = _BUILD(**kwargs)
        gtm.subscribe(recorder)
        return gtm

    patch.setattr(gtm_scheduler, "GlobalTransactionManager",
                  build_and_subscribe)
    for index in range(EPISODES):
        spec = generate_episode(config, SEED, index)
        recorder.lines.append(f"episode {index}")
        build_scheduler(spec).run(episode_workload(spec))
    return recorder.lines


@pytest.fixture(scope="module")
def streams() -> dict[str, list[str]]:
    """Mix name -> every delivery of its 50 episodes, each run once."""
    with pytest.MonkeyPatch.context() as patch:
        return {name: record_stream(config, patch)
                for name, config in CONFIGS.items()}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_observer_stream_matches_the_golden_digest(name, streams):
    payload = "\n".join(streams[name]).encode("utf-8")
    assert hashlib.sha256(payload).hexdigest() == GOLDEN[name]


def test_the_three_mixes_together_exercise_the_hooks(streams):
    """Or the digests would pin less than they say.  The one hook a
    scheduler run cannot reach is ``on_commit_deferred``: its clients
    commit through ``request_commit``, one facade call, so no second
    committer is ever staged on an object in between."""
    seen = {line.split("|", 1)[0]
            for lines in streams.values() for line in lines if "|" in line}
    assert seen == set(_HOOKS) - {"on_commit_deferred"}
