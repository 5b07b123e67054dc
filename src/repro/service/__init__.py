"""The GTM as a live service: asyncio wire protocol over the core.

The discrete-event kernel drives the GTM with *scheduled* events; this
package drives the same :class:`~repro.core.gtm.GlobalTransactionManager`
with *real* connections under the wall-clock
:class:`~repro.driver.asyncio_driver.AsyncioDriver`:

- :mod:`repro.service.protocol` — newline-delimited JSON frames
  (begin/op/commit/abort/sleep/awake) plus the error-frame taxonomy
  mapped one-to-one onto :class:`~repro.errors.GTMError` subclasses;
- :mod:`repro.service.session` — session tokens and the connection
  lifecycle: a dropped connection is the paper's ⟨sleep⟩, a reconnect
  with the token is ⟨awake⟩, and staying away past the BTO timeout is
  an abort;
- :mod:`repro.service.core` — :class:`GTMService`, the
  transport-agnostic frame handler (testable under the simulator);
- :mod:`repro.service.server` — the asyncio TCP server and the
  in-memory transport used by tests and large load runs.

See ``docs/SERVICE.md`` for the grammar and the lifecycle diagrams;
the load harness is the end-to-end benchmark, ``benchmarks/e2e/run.py``.
"""

from repro.service.core import GTMService, ServiceConfig
from repro.service.session import Session, SessionState, SessionStore

__all__ = [
    "GTMService",
    "ServiceConfig",
    "Session",
    "SessionState",
    "SessionStore",
]
