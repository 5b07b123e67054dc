"""Read/write mixing — Table I's distinctive read semantics, measured.

Under classical 2PL a reader's S lock *blocks writers* (S is
incompatible with X).  Under the GTM's Table I, READ is compatible with
every update class: a reader snapshots the object and never delays a
writer, and vice versa.  This experiment sweeps the read fraction ρ of
an otherwise all-subtraction workload and measures both schemes:

- 2PL's average execution time stays high until the mix is almost all
  reads (any writer serializes against every reader *and* writer);
- the GTM is flat at the uncontended service time for every ρ — reads
  and subtractions never conflict at all.

(The paper's own emulation fixes reads out of the picture by treating
"read operations finalized to update" as writes; this experiment
isolates the pure-read axis instead.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.opclass import read, subtract
from repro.metrics.report import render_table
from repro.mobile.client import ThinkTimeModel
from repro.mobile.session import SessionPlan
from repro.schedulers import (
    GTMScheduler,
    GTMSchedulerConfig,
    two_phase_locking,
)
from repro.sim.rng import RandomStreams
from repro.workload.spec import Workload, single_step_profile


@dataclass(frozen=True)
class ReadMixConfig:
    n_transactions: int = 300
    n_objects: int = 5
    read_fractions: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 0.95)
    interarrival: float = 0.5
    work_time_mean: float = 2.0
    seed: int = 2008


@dataclass
class ReadMixPoint:
    read_fraction: float
    gtm_exec: float
    twopl_exec: float
    gtm_wait: float
    twopl_wait: float


@dataclass
class ReadMixData:
    points: list[ReadMixPoint] = field(default_factory=list)
    config: ReadMixConfig | None = None


def build_workload(config: ReadMixConfig, rho: float) -> Workload:
    streams = RandomStreams(config.seed)
    rng = streams.stream(f"readmix.{rho}")
    think = ThinkTimeModel(base_mean=config.work_time_mean, jitter=0.3)
    names = [f"X{k + 1}" for k in range(config.n_objects)]
    profiles = []
    for index in range(config.n_transactions):
        object_name = names[int(rng.integers(0, config.n_objects))]
        is_read = bool(rng.random() < rho)
        profiles.append(single_step_profile(
            txn_id=f"T{index:04d}",
            arrival_time=index * config.interarrival,
            object_name=object_name,
            invocation=read() if is_read else subtract(1),
            plan=SessionPlan(work_time=think.work_time(rng)),
            kind="read" if is_read else "subtraction",
        ))
    return Workload(profiles,
                    initial_values={name: 100000.0 for name in names})


def _mix_point(config: ReadMixConfig, rho: float) -> ReadMixPoint:
    workload = build_workload(config, rho)
    gtm = GTMScheduler(GTMSchedulerConfig()).run(workload)
    twopl = two_phase_locking().run(workload)
    return ReadMixPoint(
        read_fraction=rho,
        gtm_exec=gtm.stats.avg_execution_time,
        twopl_exec=twopl.stats.avg_execution_time,
        gtm_wait=gtm.stats.avg_wait_time,
        twopl_wait=twopl.stats.avg_wait_time,
    )


def run(config: ReadMixConfig | None = None) -> ReadMixData:
    config = config or ReadMixConfig()
    data = ReadMixData(config=config)
    data.points = [_mix_point(config, rho)
                   for rho in config.read_fractions]
    return data


def render(data: ReadMixData) -> str:
    rows = [[p.read_fraction, round(p.gtm_exec, 3),
             round(p.twopl_exec, 3), round(p.gtm_wait, 3),
             round(p.twopl_wait, 3)] for p in data.points]
    return render_table(
        ["read fraction", "GTM exec (s)", "2PL exec (s)",
         "GTM wait (s)", "2PL wait (s)"],
        rows,
        title="Read/write mixing — Table I read compatibility vs S/X "
              "locking")


def shape_checks(data: ReadMixData) -> dict[str, bool]:
    gtm_waits = [p.gtm_wait for p in data.points]
    twopl_execs = [p.twopl_exec for p in data.points]
    return {
        # READ commutes with subtraction: the GTM never queues anyone.
        "gtm_never_waits": all(wait == 0.0 for wait in gtm_waits),
        # 2PL still pays S/X blocking until the mix is nearly all reads.
        "twopl_waits_under_mixing": all(
            p.twopl_wait > 0 for p in data.points
            if p.read_fraction <= 0.75),
        "twopl_improves_with_reads": twopl_execs[-1] <= twopl_execs[0],
        "gtm_never_slower": all(p.gtm_exec <= p.twopl_exec + 1e-9
                                for p in data.points),
    }


def main() -> str:
    data = run()
    checks = shape_checks(data)
    lines = [render(data), "", "shape checks:"]
    lines.extend(f"  {name}: {'PASS' if ok else 'FAIL'}"
                 for name, ok in checks.items())
    return "\n".join(lines)
