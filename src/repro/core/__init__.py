"""The paper's primary contribution: the Global Transaction Manager.

This package implements the pre-serialization middleware of Chianese et
al. (ICDE 2008):

- :mod:`repro.core.opclass` — the operation classes of Section IV;
- :mod:`repro.core.compatibility` — Table I as a symmetric matrix plus
  the "logical dependence" relaxation;
- :mod:`repro.core.reconciliation` — the reconciliation algorithms of
  Eq. (1) and Eq. (2) behind a registry;
- :mod:`repro.core.states` — the transaction state machine (Active,
  Waiting, Sleeping, Committing, Aborting, Committed, Aborted);
- :mod:`repro.core.transaction` / :mod:`repro.core.objects` — the global
  transaction state and object bookkeeping sets of Section IV;
- :mod:`repro.core.gtm` — Algorithms 1-11, the facade over the
  subsystems below;
- :mod:`repro.core.admission` — the lock table and semantic-lock
  admission controller (Algorithms 2, 5 and 11);
- :mod:`repro.core.commit_pipeline` — reconciliation, staging and SST
  dispatch (Algorithms 3 and 4);
- :mod:`repro.core.sleep_manager` — the sleeping-transaction protocol
  (Algorithms 7-10);
- :mod:`repro.core.deadlock` — Section VII deadlock detection: the
  wait-for graph and its victim rule;
- :mod:`repro.core.events` — the ⟨...⟩ event vocabulary, the observer
  contract and the fan-out :class:`~repro.core.events.EventBus`;
- :mod:`repro.core.sst` — Secure System Transactions applying reconciled
  values to the LDBS, with failure injection and retry;
- :mod:`repro.core.starvation` — the Section VII starvation mitigations
  (lock-deny threshold and priority aging);
- :mod:`repro.core.throttle` — the Section VII value-based limit on
  concurrent compatible transactions.
"""

from repro.core.admission import (
    AdmissionController,
    GrantOutcome,
    LockTable,
)
from repro.core.commit_pipeline import CommitPipeline

from repro.core.compatibility import (
    CompatibilityMatrix,
    DEFAULT_MATRIX,
    LogicalDependence,
)
from repro.core.events import EventBus, GTMObserver, ObserverError
from repro.core.gtm import GlobalTransactionManager, GTMConfig
from repro.core.history import OperationLog, serial_replay
from repro.core.objects import ManagedObject, ObjectBinding
from repro.core.opclass import Invocation, OperationClass
from repro.core.reconciliation import (
    AdditiveReconciler,
    MultiplicativeReconciler,
    Reconciler,
    ReconcilerRegistry,
)
from repro.core.sst import SSTExecutor, SSTReport
from repro.core.starvation import (
    FifoGrantPolicy,
    GrantPolicy,
    LockDenyPolicy,
    PriorityAgingPolicy,
)
from repro.core.sleep_manager import SleepManager
from repro.core.states import TransactionState
from repro.core.throttle import ValueThrottle
from repro.core.transaction import GTMTransaction

__all__ = [
    "AdditiveReconciler",
    "AdmissionController",
    "CommitPipeline",
    "CompatibilityMatrix",
    "DEFAULT_MATRIX",
    "EventBus",
    "FifoGrantPolicy",
    "GTMConfig",
    "GTMObserver",
    "GTMTransaction",
    "GlobalTransactionManager",
    "GrantOutcome",
    "GrantPolicy",
    "Invocation",
    "LockDenyPolicy",
    "LockTable",
    "LogicalDependence",
    "ManagedObject",
    "MultiplicativeReconciler",
    "ObjectBinding",
    "ObserverError",
    "OperationClass",
    "OperationLog",
    "SleepManager",
    "serial_replay",
    "PriorityAgingPolicy",
    "Reconciler",
    "ReconcilerRegistry",
    "SSTExecutor",
    "SSTReport",
    "TransactionState",
    "ValueThrottle",
]
