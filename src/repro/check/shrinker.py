"""Delta-debugging shrinker for failing fuzz episodes.

Greedy passes to a fixpoint, each validated by re-running the candidate
through the failure predicate (episode runs are pure functions of their
spec, so candidates are cheap and exact):

1. drop whole transactions (keeping at least one);
2. drop individual operations (keeping at least one per transaction);
3. drop disconnection outages;
4. drop the wait timeout;
5. prune objects / members no remaining operation references.

The result is rendered as a ready-to-paste regression test: every spec
field is a builtin scalar or tuple, so ``repr(spec)`` is valid Python.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from repro.check.fuzzer import EpisodeSpec

FailurePredicate = Callable[[EpisodeSpec], bool]


def shrink_episode(spec: EpisodeSpec,
                   still_fails: FailurePredicate,
                   max_rounds: int = 20) -> EpisodeSpec:
    """Minimize ``spec`` while ``still_fails`` holds.

    ``still_fails(spec)`` must be True on entry; the returned spec is
    1-minimal with respect to the passes above (removing any single
    transaction, operation or outage makes the failure disappear).
    """
    current = prune_unreferenced(spec)
    if not still_fails(current):
        # pruning perturbed the failure: fall back to the original.
        current = spec
    for _ in range(max_rounds):
        changed = False
        for shrink_pass in (_drop_transactions, _drop_operations,
                            _drop_outages, _drop_wait_timeout):
            current, pass_changed = shrink_pass(current, still_fails)
            changed = changed or pass_changed
        if not changed:
            break
    return current


def _drop_transactions(spec: EpisodeSpec, still_fails: FailurePredicate
                       ) -> tuple[EpisodeSpec, bool]:
    changed = False
    index = len(spec.txns) - 1
    while index >= 0 and len(spec.txns) > 1:
        candidate = prune_unreferenced(replace(
            spec, txns=spec.txns[:index] + spec.txns[index + 1:]))
        if still_fails(candidate):
            spec = candidate
            changed = True
        index -= 1
    return spec, changed


def _drop_operations(spec: EpisodeSpec, still_fails: FailurePredicate
                     ) -> tuple[EpisodeSpec, bool]:
    changed = False
    for txn_index in range(len(spec.txns)):
        op_index = len(spec.txns[txn_index].ops) - 1
        while op_index >= 0 and len(spec.txns[txn_index].ops) > 1:
            txn = spec.txns[txn_index]
            candidate = prune_unreferenced(replace(
                spec,
                txns=(spec.txns[:txn_index]
                      + (replace(txn, ops=(txn.ops[:op_index]
                                           + txn.ops[op_index + 1:])),)
                      + spec.txns[txn_index + 1:])))
            if still_fails(candidate):
                spec = candidate
                changed = True
            op_index -= 1
    return spec, changed


def _drop_outages(spec: EpisodeSpec, still_fails: FailurePredicate
                  ) -> tuple[EpisodeSpec, bool]:
    changed = False
    for txn_index in range(len(spec.txns)):
        outage_index = len(spec.txns[txn_index].outages) - 1
        while outage_index >= 0:
            txn = spec.txns[txn_index]
            candidate = replace(
                spec,
                txns=(spec.txns[:txn_index]
                      + (replace(txn,
                                 outages=(txn.outages[:outage_index]
                                          + txn.outages[outage_index
                                                        + 1:])),)
                      + spec.txns[txn_index + 1:]))
            if still_fails(candidate):
                spec = candidate
                changed = True
            outage_index -= 1
    return spec, changed


def _drop_wait_timeout(spec: EpisodeSpec, still_fails: FailurePredicate
                       ) -> tuple[EpisodeSpec, bool]:
    if spec.wait_timeout is None:
        return spec, False
    candidate = replace(spec, wait_timeout=None)
    if still_fails(candidate):
        return candidate, True
    return spec, False


def prune_unreferenced(spec: EpisodeSpec) -> EpisodeSpec:
    """Drop objects / members no remaining operation touches.

    Unreferenced members cannot influence the run (members are
    logically independent by default), so pruning them keeps failures
    intact while shrinking the emitted regression test.
    """
    used = {(op.object_name, op.member)
            for txn in spec.txns for op in txn.ops}
    used_objects = {object_name for object_name, _ in used}
    objects = tuple(
        (name, tuple((member, value) for member, value in members
                     if (name, member) in used))
        for name, members in spec.objects
        if name in used_objects)
    return replace(spec, objects=objects)


def render_regression_test(spec: EpisodeSpec,
                           name: str = "test_shrunk_episode") -> str:
    """Emit a self-contained pytest function pinning ``spec``."""
    return f'''"""Auto-generated by repro.check: minimized failing episode.

Provenance: seed {spec.seed}, episode {spec.index}, scheduler
{spec.scheduler!r}.  Re-generate with
``python -m repro.check --seed {spec.seed} --scheduler {spec.scheduler}``.
"""

from repro.check.fuzzer import EpisodeSpec, OpSpec, TxnSpec
from repro.check.runner import run_episode


def {name}():
    spec = {spec!r}
    outcome = run_episode(spec)
    assert outcome.ok, outcome.summary()
'''


# ---------------------------------------------------------------------------
# service-episode shrinking (specs from repro.check.service_fuzzer)
# ---------------------------------------------------------------------------
#
# The passes below work structurally on ServiceEpisodeSpec via
# dataclasses.replace, so this module needs no runtime import of the
# service fuzzer (which imports us for campaign rendering).


def shrink_service_episode(spec, still_fails,
                           max_rounds: int = 20):
    """Minimize a failing :class:`ServiceEpisodeSpec`.

    Greedy passes to a fixpoint: drop whole clients, drop individual
    client actions, drop injected backend faults, reset chaos knobs
    (backend, retirement, outbox bound) to their tame defaults, prune
    unreferenced objects.  ``still_fails(spec)`` must be True on entry.
    """
    current = _prune_service_objects(spec)
    if not still_fails(current):
        current = spec
    for _ in range(max_rounds):
        changed = False
        for shrink_pass in (_drop_clients, _drop_client_actions,
                            _drop_fault_calls, _tame_service_knobs):
            current, pass_changed = shrink_pass(current, still_fails)
            changed = changed or pass_changed
        if not changed:
            break
    return current


def _drop_clients(spec, still_fails):
    changed = False
    index = len(spec.clients) - 1
    while index >= 0 and len(spec.clients) > 1:
        candidate = _prune_service_objects(replace(
            spec,
            clients=spec.clients[:index] + spec.clients[index + 1:]))
        if still_fails(candidate):
            spec = candidate
            changed = True
        index -= 1
    return spec, changed


def _drop_client_actions(spec, still_fails):
    changed = False
    for client_index in range(len(spec.clients)):
        action_index = len(spec.clients[client_index].actions) - 1
        while action_index >= 0 and \
                len(spec.clients[client_index].actions) > 1:
            client = spec.clients[client_index]
            candidate = _prune_service_objects(replace(
                spec,
                clients=(spec.clients[:client_index]
                         + (replace(client, actions=(
                             client.actions[:action_index]
                             + client.actions[action_index + 1:])),)
                         + spec.clients[client_index + 1:])))
            if still_fails(candidate):
                spec = candidate
                changed = True
            action_index -= 1
    return spec, changed


def _drop_fault_calls(spec, still_fails):
    changed = False
    index = len(spec.fault_calls) - 1
    while index >= 0:
        candidate = replace(
            spec, fault_calls=(spec.fault_calls[:index]
                               + spec.fault_calls[index + 1:]))
        if still_fails(candidate):
            spec = candidate
            changed = True
        index -= 1
    return spec, changed


def _tame_service_knobs(spec, still_fails):
    changed = False
    for candidate in (
            replace(spec, retire_finished=False),
            replace(spec, max_outbox=1024),
            replace(spec, backend=None, fault_calls=()),
            replace(spec, backend="memory")):
        if candidate == spec:
            continue
        if still_fails(candidate):
            spec = candidate
            changed = True
    return spec, changed


def _prune_service_objects(spec):
    """Drop objects no remaining client op references."""
    used = {action.object_name
            for client in spec.clients for action in client.actions
            if action.object_name is not None}
    objects = tuple(entry for entry in spec.objects
                    if entry[0] in used)
    if not objects:
        # keep one object: episodes with zero objects are degenerate
        objects = spec.objects[:1]
    return replace(spec, objects=objects)


def render_service_regression_test(
        spec, name: str = "test_shrunk_service_episode") -> str:
    """Emit a pytest function pinning a minimized service episode."""
    return f'''"""Auto-generated by repro.check --service-fuzz: minimized episode.

Provenance: seed {spec.seed}, episode {spec.index}.  Re-generate with
``python -m repro.check --service-fuzz --seed {spec.seed}``.
"""

from repro.check.service_fuzzer import (
    ClientActionSpec,
    ServiceClientSpec,
    ServiceEpisodeSpec,
    run_service_episode,
)


def {name}():
    spec = {spec!r}
    outcome = run_service_episode(spec)
    assert outcome.ok, outcome.summary()
'''
