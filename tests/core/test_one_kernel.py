"""Structural pins for "one kernel" (ROADMAP item 2).

Algorithms 1-11 are written once, in
:class:`~repro.core.gtm.GlobalTransactionManager` and the subsystems it
wires; the MVCC subclass inherits them.  These tests fail the moment a
second copy of a driver, a second subsystem construction site, a
second ``X_committed`` writer or a second way into the kernel appears.
"""

import re
from pathlib import Path

import pytest

import repro
from repro.core import events
from repro.core.gtm import GlobalTransactionManager, GrantOutcome, GTMConfig
from repro.core.mvcc import MVCCTransactionManager, build_transaction_manager
from repro.core.opclass import delete_object, read
from repro.errors import GTMError

SRC = Path(repro.__file__).resolve().parent

KERNEL_DRIVERS = ("begin", "local_commit", "global_commit", "request_commit",
                  "try_finish_commit", "pump_commits", "local_abort",
                  "abort", "sleep")


def _call_sites(pattern: str) -> list[str]:
    regex = re.compile(pattern)
    return sorted(
        f"{path.relative_to(SRC)}:{number}"
        for path in SRC.rglob("*.py")
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1)
        if regex.search(line))


@pytest.mark.parametrize("name", KERNEL_DRIVERS)
def test_the_federation_defines_no_algorithm_driver(name):
    # "federation": the subclass's former name, kept in this test's id.
    assert issubclass(MVCCTransactionManager, GlobalTransactionManager)
    assert getattr(MVCCTransactionManager, name) \
        is getattr(GlobalTransactionManager, name)


@pytest.mark.parametrize("constructor", ["AdmissionController",
                                         "CommitPipeline", "SleepManager"])
def test_each_subsystem_is_constructed_at_one_site(constructor):
    sites = _call_sites(rf"(?<![\w.]){constructor}\(")
    assert len(sites) == 1 and sites[0].startswith("core/gtm.py:"), sites


def test_committed_state_has_one_writer():
    """``X_committed`` and the commit-order witness are each recorded
    at one site, the commit pipeline (the oracle rebuilding its
    baseline log is not a GTM commit path)."""
    for pattern in (r"\bobj\.record_commit\(", r"history\.record_commit\("):
        sites = _call_sites(pattern)
        assert len(sites) == 1, sites
        assert sites[0].startswith("core/commit_pipeline.py:"), sites


def test_the_kernel_has_one_way_in_its_methods():
    """No event-object front door: the ⟨...⟩ events are the facade's
    methods, and ``core/events.py`` is the observer contract only."""
    assert not hasattr(GlobalTransactionManager, "dispatch")
    defined = {name for name, value in vars(events).items()
               if isinstance(value, type)
               and value.__module__ == events.__name__}
    assert defined == {"GTMObserver", "ObserverError", "EventBus"}


def test_the_kernel_refuses_a_config_it_will_not_honour():
    """``mvcc_reads`` on the locking kernel used to be ignored in
    silence: a READ behind a DELETE holder queued where the same config
    through ``build_transaction_manager`` granted it."""
    config = GTMConfig(mvcc_reads=True)
    with pytest.raises(GTMError, match="mvcc_reads"):
        GlobalTransactionManager(config)
    MVCCTransactionManager()  # the default config stays legal
    for gtm in (MVCCTransactionManager(config),
                build_transaction_manager(config)):
        gtm.create_object("x", value=7)
        gtm.begin("w")
        gtm.invoke("w", "x", delete_object())
        gtm.begin("r")
        assert gtm.invoke("r", "x", read()) == GrantOutcome.GRANTED
