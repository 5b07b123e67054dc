"""The MVCC manager: facade behaviour around the lock-free READ path.

Direct (non-fuzzed) exercises of
:class:`~repro.core.mvcc.MVCCTransactionManager`: builder dispatch,
commits publishing into the version rings, abort clean-up, and a
seeded spot check of the monolith-vs-MVCC differential (the full
200-episode campaign runs in CI's ``stress-smoke`` job).
"""

import pytest

from repro.check.differential import compare_episode
from repro.check.fuzzer import FuzzConfig, generate_episode
from repro.core.gtm import GlobalTransactionManager, GTMConfig
from repro.core.mvcc import MVCCTransactionManager, \
    build_transaction_manager
from repro.core.opclass import add, assign, read


def _mvcc():
    return build_transaction_manager(GTMConfig(mvcc_reads=True))


def test_builder_dispatches_on_the_config():
    assert type(build_transaction_manager()) is GlobalTransactionManager
    assert type(build_transaction_manager(GTMConfig())) \
        is GlobalTransactionManager
    assert type(_mvcc()) is MVCCTransactionManager


def test_single_shard_commit_updates_permanent_state():
    gtm = _mvcc()
    gtm.create_object("x", value=10)
    gtm.begin("t1")
    assert gtm.invoke("t1", "x", add(5)) == "granted"
    gtm.apply("t1", "x", add(5))
    gtm.request_commit("t1")
    assert gtm.object("x").permanent == {"value": 15}
    assert gtm.transaction("t1").state.value == "committed"
    gtm.check_invariants()


def test_committed_versions_are_published_to_the_owning_ring():
    gtm = _mvcc()
    gtm.create_object("x", value=3)
    gtm.create_object("y", value=4)
    gtm.begin("t1")
    gtm.invoke("t1", "x", assign(30))
    gtm.apply("t1", "x", assign(30))
    gtm.request_commit("t1")
    ring = gtm.versions.ring("x")
    assert [version.csn for version in ring] == [0, 1]
    assert ring.latest().values == {"value": 30}
    assert [version.csn for version in gtm.versions.ring("y")] == [0]
    assert gtm.certifier.object_csn == {"x": 1}


def test_abort_forgets_certifier_state():
    gtm = _mvcc()
    gtm.create_object("x", value=1)
    gtm.begin("t1")
    gtm.invoke("t1", "x", read())
    assert gtm.certifier.served_version("t1", "x") is not None
    gtm.abort("t1", reason="requested")
    assert gtm.certifier.served_version("t1", "x") is None
    assert "t1" not in gtm.certifier.pins
    assert gtm.transaction("t1").state.value == "aborted"
    gtm.check_invariants()


@pytest.mark.parametrize("seed", (101, 202))
def test_mvcc_differential_spot_check(seed):
    """compare_episode in mvcc mode runs the kernel and the MVCC
    manager and holds both to the invariants and the serializability
    oracle."""
    spec = generate_episode(FuzzConfig(scheduler="gtm"), seed=seed,
                            index=0)
    comparison = compare_episode(spec, mode="mvcc")
    assert [run.label for run in comparison.runs] == ["monolith", "mvcc"]
    assert comparison.diffs == [], "\n".join(comparison.diffs)
