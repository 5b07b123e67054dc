"""The workloads: their fixed parameters and their seeded inputs.

Everything the program sees is generated here from ``--seed``; the
rates, session counts and object counts are constants of the benchmark
(never derived from a measurement at run time), so two commits are
always offered the same traffic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

#: Every transaction touches this many *distinct* objects (a repeat
#: would hit "at most one pending invocation per data member").
OPS_PER_TXN = 4
#: read / add / assign / mul = 3 / 5 / 1 / 1.  Objects start at 1 and
#: operands are positive, so multiplicative reconciliation (undefined
#: for X_read == 0) stays well-posed.
OP_MIX = ("read",) * 3 + ("add",) * 5 + ("assign", "mul")
#: A dropped session stays away this long before it reconnects.
RECONNECT_DELAY_S = 0.002

#: One scripted transaction: ((op, object, operand), ...) and the op
#: index before which the connection drops (None = no drop).
TxnScript = tuple[tuple[tuple[str, str, int | None], ...], int | None]


@dataclass(frozen=True)
class WireWorkload:
    """Traffic shape of one ``wire_*`` workload."""

    sessions: int
    objects: int
    #: ``within_limit_share`` counts the transactions that committed
    #: within this many milliseconds.  Fixed at twice the workload's
    #: median on the reference box or more (wire_churn's resumed
    #: transactions are the slow ones; an open loop's latencies have a
    #: gap between 5 ms and the 50 ms of a collector pause): far enough
    #: out that the box's speed drift does not move the share, near
    #: enough that a stall does.
    latency_limit_ms: float
    backend: str = "memory"
    #: probability a transaction drops its connection, at a uniformly
    #: chosen op index >= 1 (so after at least one grant).
    drop_prob: float = 0.0
    #: open loop: arrivals per second handed to the session pool;
    #: None = closed loop (each session starts its next transaction
    #: when the previous one finished).
    rate: float | None = None


WIRE_WORKLOADS: dict[str, WireWorkload] = {
    "wire_uniform": WireWorkload(sessions=16, objects=4096,
                                 latency_limit_ms=20.0),
    "wire_open": WireWorkload(sessions=32, objects=4096, rate=400.0,
                              latency_limit_ms=20.0),
    "wire_churn": WireWorkload(sessions=64, objects=48, drop_prob=0.15,
                               latency_limit_ms=250.0),
    "wire_sqlite": WireWorkload(sessions=16, objects=4096,
                                backend="sqlite", latency_limit_ms=40.0),
}


@dataclass(frozen=True)
class EmulationWorkload:
    """Section VI-B in process: one round = one episode per grid point."""

    n_transactions: int = 1000
    #: virtual milliseconds (see WireWorkload.latency_limit_ms).
    latency_limit_ms: float = 10_000.0
    grid: tuple[tuple[float, float], ...] = tuple(
        (alpha, beta) for alpha in (0.1, 0.5, 0.9) for beta in (0.05, 0.3))
    #: rounds whose virtual-time outputs are reported; every run
    #: completes them, so the figures repeat exactly for a seed however
    #: many further rounds fit into the measuring time.
    exact_rounds: int = 5


PAPER_EMULATION = EmulationWorkload()

WORKLOAD_NAMES = ("paper_emulation", *WIRE_WORKLOADS)


def object_name(index: int) -> str:
    return f"o{index:05d}"


def _script(rng: random.Random, spec: WireWorkload) -> TxnScript:
    ops = []
    for index in rng.sample(range(spec.objects), OPS_PER_TXN):
        op = OP_MIX[rng.randrange(len(OP_MIX))]
        operand = None if op == "read" else rng.randrange(1, 10)
        ops.append((op, object_name(index), operand))
    # Both draws are always made, so the scripts of a seed do not
    # depend on drop_prob.
    dropped = rng.random() < spec.drop_prob
    drop_at = rng.randrange(1, OPS_PER_TXN)
    return tuple(ops), (drop_at if dropped else None)


def session_scripts(seed: int, name: str,
                    session: int) -> Iterator[TxnScript]:
    """The endless transaction stream of one closed-loop session."""
    spec = WIRE_WORKLOADS[name]
    rng = random.Random(f"{seed}:{name}:{session}")
    while True:
        yield _script(rng, spec)


def arrival_schedule(seed: int, name: str, warmup_s: float,
                     seconds: float) -> list[tuple[float, TxnScript]]:
    """Open loop: (due offset, script) for every arrival, in due order.

    Arrivals are evenly spaced at the workload's rate.  (Poisson
    arrivals were tried: their queueing multiplies this sandbox's
    speed drift until even the median latency stops repeating.)
    Offsets count from the start of the warm-up; arrivals due at or
    after ``warmup_s`` belong to the measured window, always
    ``rate × seconds`` of them.
    """
    spec = WIRE_WORKLOADS[name]
    rng = random.Random(f"{seed}:{name}:arrivals")
    lead = round(spec.rate * warmup_s)
    count = lead + round(spec.rate * seconds)
    return [(warmup_s + (index - lead) / spec.rate, _script(rng, spec))
            for index in range(count)]


def episode_seed(seed: int, round_index: int, point: int) -> int:
    """Seed of one paper_emulation episode."""
    return seed * 100_000 + round_index * 100 + point
