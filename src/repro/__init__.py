"""repro — reproduction of "Pre-serialization of long running
transactions to improve concurrency in mobile environments"
(Chianese, d'Acierno, Moscato, Picariello — ICDE 2008).

The package implements the paper's Global Transaction Manager (GTM)
middleware and every substrate it depends on:

- :mod:`repro.core` — the GTM: semantic operation classes, the Table I
  compatibility matrix, reconciliation (Eq. 1/2), sleeping transactions,
  and Algorithms 1-11;
- :mod:`repro.ldbs` — the paper's Local DataBase System behind one
  seam: an in-memory dict-of-rows store or SQLite, with typed schemas
  and CHECK constraints;
- :mod:`repro.sim` — a discrete-event simulation kernel;
- :mod:`repro.mobile` — disconnection / inactivity models for mobile
  clients;
- :mod:`repro.schedulers` — the GTM and the baselines (classical 2PL,
  freeze-until-commit optimistic) behind one interface;
- :mod:`repro.workload` — the paper's Section VI-B workload generator
  and the Section II travel-agency scenario;
- :mod:`repro.analytic` — the closed-form model of Section VI-A
  (Eq. 3-5 and the abort-probability surface);
- :mod:`repro.metrics` — timelines, aggregate statistics, text reports;
- :mod:`repro.bench` — the experiment registry regenerating every table
  and figure of the paper.

Quickstart::

    from repro.core import GlobalTransactionManager
    from repro.core.opclass import add

    gtm = GlobalTransactionManager()
    gtm.create_object("X", value=100)
    gtm.begin("A"); gtm.begin("B")
    gtm.invoke("A", "X", add(1));      gtm.invoke("B", "X", add(2))
    gtm.apply("A", "X", add(1));       gtm.apply("B", "X", add(2))
    gtm.apply("A", "X", add(3))
    gtm.request_commit("A")            # X_permanent: 100 -> 104
    gtm.request_commit("B")            # reconciles:  104 -> 106
    assert gtm.object("X").permanent_value() == 106
"""

from repro.core import GlobalTransactionManager, GTMConfig
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = ["GTMConfig", "GlobalTransactionManager", "ReproError",
           "__version__"]
