"""Structural pins for "one kernel".

Algorithms 1-11 are written once, in
:class:`~repro.core.gtm.GlobalTransactionManager` and the subsystems it
wires.  These tests fail the moment a second transaction manager, a
second subsystem construction site, a second ``X_committed`` writer or
a second way into the kernel appears.
"""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

import repro
from repro.core import events
from repro.core.gtm import GlobalTransactionManager, GTMConfig
from repro.core.reconciliation import ReconcilerRegistry
from repro.errors import ReconciliationError

SRC = Path(repro.__file__).resolve().parent

KERNEL_DRIVERS = ("begin", "local_commit", "global_commit", "request_commit",
                  "try_finish_commit", "pump_commits", "local_abort",
                  "abort", "sleep")

#: The protocol knobs; a field more is an option no benchmark asked for.
GTM_CONFIG_FIELDS = ("matrix", "dependence", "registry", "grant_policy",
                     "throttle")


def _call_sites(pattern: str) -> list[str]:
    regex = re.compile(pattern)
    return sorted(
        f"{path.relative_to(SRC)}:{number}"
        for path in SRC.rglob("*.py")
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1)
        if regex.search(line))


def _kernel_subclasses() -> list[ast.ClassDef]:
    """Classes under ``src/`` that subclass the kernel, read with
    :mod:`ast` so nothing is imported."""
    return [
        node
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any((base.id if isinstance(base, ast.Name)
                 else getattr(base, "attr", None))
                == "GlobalTransactionManager" for base in node.bases)]


@pytest.mark.parametrize("name", KERNEL_DRIVERS)
def test_the_federation_defines_no_algorithm_driver(name):
    # "federation": the name of a former kernel subclass, kept in this
    # test's id.  Each driver is written on the kernel itself, and no
    # class under src/ carries a second copy of it.
    assert callable(vars(GlobalTransactionManager).get(name))
    copies = [f"{node.name}.{name}" for node in _kernel_subclasses()
              for item in node.body
              if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
              and item.name == name]
    assert copies == []


def test_the_kernel_is_the_only_transaction_manager():
    """No class under ``src/`` subclasses the kernel, and ``GTMConfig``
    holds exactly the protocol knobs."""
    assert [node.name for node in _kernel_subclasses()] == []
    assert tuple(field.name for field in dataclasses.fields(GTMConfig)) \
        == GTM_CONFIG_FIELDS


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
    """A knob the kernel does not implement is refused at construction,
    never ignored in silence: the removed ``mvcc_reads`` and
    ``conflict_engine`` switches, a registry that breaks Definition 1
    condition 3."""
    with pytest.raises(TypeError, match="mvcc_reads"):
        GTMConfig(mvcc_reads=True)
    with pytest.raises(TypeError, match="conflict_engine"):
        GTMConfig(conflict_engine="reference")
    with pytest.raises(ReconciliationError, match="no reconciler"):
        GlobalTransactionManager(GTMConfig(registry=ReconcilerRegistry()))
    GlobalTransactionManager()  # the default config stays legal
