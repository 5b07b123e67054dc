"""The federated coordinator: facade behaviour and the order audit.

Direct (non-fuzzed) exercises of
:class:`~repro.federation.FederatedTransactionManager`: builder
dispatch, single- and cross-shard commits landing in the per-shard
commit-order logs, invariant sweeps including the commitment-ordering
audit, and a seeded mini differential proving the 1-shard federation
is trace-identical to the monolith (the full 200-episode campaign runs
in CI's ``federation-differential`` job).
"""

import pytest

from repro.check.differential import compare_episode
from repro.check.fuzzer import FuzzConfig, generate_episode
from repro.core.gtm import GlobalTransactionManager, GTMConfig
from repro.core.opclass import add, assign, read
from repro.errors import GTMError
from repro.federation import FederatedTransactionManager, \
    build_transaction_manager
from repro.federation.routing import ObjectRouter


def _federated(shards=4, **overrides):
    return build_transaction_manager(
        GTMConfig(gtm_shards=shards, **overrides))


def _names_on_distinct_shards(shard_count, wanted=2):
    """Object names owned by ``wanted`` different shards."""
    router = ObjectRouter(shard_count)
    by_shard = {}
    index = 0
    while len(by_shard) < wanted:
        name = f"obj{index:03d}"
        by_shard.setdefault(router.index_of(name), name)
        index += 1
    return list(by_shard.values())


def test_builder_dispatches_on_the_config():
    assert type(build_transaction_manager()) is GlobalTransactionManager
    assert type(build_transaction_manager(GTMConfig())) \
        is GlobalTransactionManager
    assert isinstance(_federated(shards=1), FederatedTransactionManager)
    # mvcc_reads with no explicit shard count implies a 1-shard federation
    mvcc = build_transaction_manager(GTMConfig(mvcc_reads=True))
    assert isinstance(mvcc, FederatedTransactionManager)
    assert mvcc.router.shard_count == 1
    assert len(mvcc.certifier.commit_logs) == 1


def test_single_shard_commit_updates_permanent_state():
    gtm = _federated(shards=4)
    gtm.create_object("x", value=10)
    gtm.begin("t1")
    assert gtm.invoke("t1", "x", add(5)) == "granted"
    gtm.apply("t1", "x", add(5))
    gtm.request_commit("t1")
    assert gtm.object("x").permanent == {"value": 15}
    assert gtm.transaction("t1").state.value == "committed"
    gtm.check_invariants()


def test_cross_shard_commit_lands_in_every_touched_log():
    shards = 4
    gtm = _federated(shards=shards)
    first, second = _names_on_distinct_shards(shards)
    gtm.create_object(first, value=1)
    gtm.create_object(second, value=2)
    gtm.begin("t1")
    gtm.invoke("t1", first, add(10))
    gtm.apply("t1", first, add(10))
    gtm.invoke("t1", second, add(20))
    gtm.apply("t1", second, add(20))
    gtm.request_commit("t1")
    assert gtm.object(first).permanent == {"value": 11}
    assert gtm.object(second).permanent == {"value": 22}
    touched = [index for index, log in
               enumerate(gtm.certifier.commit_logs)
               if any(entry.txn_id == "t1" for entry in log)]
    assert touched == sorted(
        {gtm.router.index_of(first), gtm.router.index_of(second)})
    assert gtm.certifier.object_csn[first] == 1
    assert gtm.certifier.object_csn[second] == 1
    assert gtm.certifier.inversions() == []
    gtm.check_invariants()


def test_committed_versions_are_published_to_the_owning_ring():
    gtm = _federated(shards=2)
    gtm.create_object("x", value=3)
    gtm.begin("t1")
    gtm.invoke("t1", "x", assign(30))
    gtm.apply("t1", "x", assign(30))
    gtm.request_commit("t1")
    ring = gtm.versions.ring("x")
    assert [version.csn for version in ring] == [0, 1]
    assert ring.latest().values == {"value": 30}


def test_abort_forgets_certifier_state():
    gtm = _federated(shards=2, mvcc_reads=True)
    gtm.create_object("x", value=1)
    gtm.begin("t1")
    gtm.invoke("t1", "x", read())
    assert gtm.certifier.served_version("t1", "x") is not None
    gtm.abort("t1", reason="requested")
    assert gtm.certifier.served_version("t1", "x") is None
    assert gtm.transaction("t1").state.value == "aborted"
    gtm.check_invariants()


def test_check_invariants_reports_a_corrupted_commit_order():
    """The coordinator's sweep includes the commitment-ordering audit:
    hand-inverting one shard log (impossible through ``externalize``)
    must trip it."""
    shards = 4
    gtm = _federated(shards=shards)
    first, second = _names_on_distinct_shards(shards)
    gtm.create_object(first, value=0)
    gtm.create_object(second, value=0)
    for txn_id in ("t1", "t2"):
        gtm.begin(txn_id)
        for name in (first, second):
            gtm.invoke(txn_id, name, add(1))
            gtm.apply(txn_id, name, add(1))
        gtm.request_commit(txn_id)
    gtm.check_invariants()  # clean before the corruption
    shard_index = gtm.router.index_of(first)
    gtm.certifier.commit_logs[shard_index].reverse()
    with pytest.raises(GTMError, match="commitment-ordering violation"):
        gtm.check_invariants()


@pytest.mark.parametrize("seed", (101, 202))
def test_one_shard_federation_is_trace_identical_to_the_monolith(seed):
    """Spot-check of the differential matrix: compare_episode in
    federation mode holds ``federated-1shard`` to bit-identity with the
    monolith baseline and runs the serializability oracle on every
    variant."""
    spec = generate_episode(FuzzConfig(scheduler="gtm"), seed=seed,
                            index=0)
    comparison = compare_episode(spec, mode="federation")
    labels = [run.label for run in comparison.runs]
    assert labels[0] == "monolith"
    assert "federated-1shard" in labels
    assert comparison.diffs == [], "\n".join(comparison.diffs)
