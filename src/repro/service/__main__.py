"""Run the GTM service on TCP: ``python -m repro.service``.

Serves one :class:`~repro.core.gtm.GlobalTransactionManager` over the
newline-delimited JSON protocol until interrupted (SIGINT performs the
graceful shutdown: a ``shutdown`` push to every connected client,
aborts for unfinished transactions, outbox flush).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import sys

from repro.driver.asyncio_driver import AsyncioDriver
from repro.ldbs.backend import backend_names
from repro.service.core import GTMService, ServiceConfig
from repro.service.server import ServiceServer


async def _serve(args: argparse.Namespace) -> int:
    # The handlers go in before anything is printed: a client that
    # signals as soon as it reads the "listening" line must get the
    # clean shutdown, not a KeyboardInterrupt traceback.
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    with contextlib.suppress(NotImplementedError):
        import signal
        loop.add_signal_handler(signal.SIGINT, stop.set)
        loop.add_signal_handler(signal.SIGTERM, stop.set)
    driver = AsyncioDriver()
    service = GTMService(driver, config=ServiceConfig(
        bto_timeout=args.bto_timeout,
        ldbs_backend=args.backend))
    for index in range(args.objects):
        service.create_object(f"o{index:05d}", value=args.initial_value)
    server = ServiceServer(service)
    host, port = await server.start_tcp(args.host, args.port)
    backend = args.backend or "none (virtual objects)"
    print(f"gtm service listening on {host}:{port} "
          f"({args.objects} objects, bto={args.bto_timeout}s, "
          f"ldbs backend: {backend})", flush=True)
    await stop.wait()
    print("shutting down...", flush=True)
    await server.shutdown()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve the GTM over newline-delimited JSON/TCP.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7400)
    parser.add_argument("--objects", type=int, default=64,
                        help="managed objects to pre-create")
    parser.add_argument("--initial-value", type=int, default=1)
    parser.add_argument("--bto-timeout", type=float, default=60.0,
                        help="seconds a disconnected session may sleep")
    parser.add_argument("--backend", choices=backend_names(),
                        default=None,
                        help="run commits as real SSTs against this "
                             "LDBS backend (default: virtual objects, "
                             "no SSTs)")
    args = parser.parse_args(argv)
    return asyncio.run(_serve(args))


if __name__ == "__main__":
    sys.exit(main())
