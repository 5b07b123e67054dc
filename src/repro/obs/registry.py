"""Deterministic metrics registry: counters, gauges, histograms.

The registry holds the numbers of the observability layer.  Two design
constraints shape it:

1. **Determinism.**  Instruments are keyed by name and label string;
   snapshots serialize in sorted order and merging two snapshots is
   commutative and associative, so per-episode frames fold into one
   fleet-wide view.
2. **Neutrality.**  Instruments only ever *receive* already-computed
   values from observer hooks; nothing in the protocol reads them back.

Histograms use fixed bucket boundaries chosen at construction (never
derived from the data), so two runs that observe the same values produce
byte-identical snapshots.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable

from repro.errors import GTMError

#: Default histogram boundaries for simulated-seconds durations.  The
#: virtual clock advances in O(0.1..100) ticks, so a coarse exponential
#: ladder covers every profile the fuzzer generates.
DURATION_BUCKETS: tuple[float, ...] = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0)


class Counter:
    """A monotonically increasing sum, optionally split by label."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.series: dict[str, float] = {}

    def inc(self, amount: float = 1.0, label: str = "") -> None:
        if amount < 0:
            raise GTMError(f"counter {self.name!r} cannot decrease")
        self.series[label] = self.series.get(label, 0.0) + amount

    def value(self, label: str = "") -> float:
        return self.series.get(label, 0.0)

    def total(self) -> float:
        return sum(self.series.values())

    def snapshot(self) -> dict:
        return {"kind": self.kind,
                "series": {k: self.series[k] for k in sorted(self.series)}}

    def dump(self) -> dict:
        """Zero-copy snapshot for frame export (the registry is about
        to be discarded; consumers must not mutate it)."""
        return {"kind": self.kind, "series": self.series}


class Gauge:
    """A point-in-time value, optionally split by label."""

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.series: dict[str, float] = {}

    def set(self, value: float, label: str = "") -> None:
        self.series[label] = float(value)

    def value(self, label: str = "") -> float:
        return self.series.get(label, 0.0)

    def snapshot(self) -> dict:
        return {"kind": self.kind,
                "series": {k: self.series[k] for k in sorted(self.series)}}

    def dump(self) -> dict:
        return {"kind": self.kind, "series": self.series}


class Histogram:
    """Fixed-boundary cumulative histogram plus sum/count/min/max.

    Boundaries are upper-inclusive edges; one overflow bucket catches
    everything beyond the last edge.  Because the edges are fixed at
    construction, merging two histograms is plain element-wise addition.
    """

    kind = "histogram"

    def __init__(self, name: str,
                 buckets: Iterable[float] = DURATION_BUCKETS) -> None:
        self.name = name
        self.buckets: tuple[float, ...] = (
            buckets if buckets is DURATION_BUCKETS else tuple(buckets))
        if buckets is not DURATION_BUCKETS and \
                list(self.buckets) != sorted(set(self.buckets)):
            raise GTMError(
                f"histogram {self.name!r} buckets must be strictly "
                f"increasing")
        self.counts: list[int] = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """Estimate the ``q``-quantile from the bucket counts.

        Nearest-rank bucket selection with linear interpolation inside
        the winning bucket, clamped to the observed ``[min, max]`` (so
        a single observation reports itself, not a bucket edge).  The
        estimate is deterministic — a pure function of the snapshot —
        and its error is bounded by the bucket width, which is the
        standard trade for not keeping raw samples.  None when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise GTMError(
                f"histogram {self.name!r} quantile {q} outside [0, 1]")
        if not self.count:
            return None
        if q == 0.0:
            return self.min
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            below = cumulative
            cumulative += bucket_count
            if cumulative < rank:
                continue
            if index == len(self.buckets):
                return self.max  # overflow bucket: only max is known
            lower = self.buckets[index - 1] if index else 0.0
            upper = self.buckets[index]
            fraction = (rank - below) / bucket_count
            value = lower + (upper - lower) * fraction
            return min(max(value, self.min), self.max)
        return self.max  # pragma: no cover — rank <= count always hits

    def snapshot(self) -> dict:
        return {"kind": self.kind, "buckets": list(self.buckets),
                "counts": list(self.counts), "sum": self.sum,
                "count": self.count, "min": self.min, "max": self.max}

    def dump(self) -> dict:
        return self.snapshot()


class MetricsRegistry:
    """Name -> instrument directory with get-or-create semantics."""

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _check_kind(self, instrument, kind: str) -> None:
        if instrument.kind != kind:
            raise GTMError(
                f"metric {instrument.name!r} already registered as "
                f"{instrument.kind}, not {kind}")

    def counter(self, name: str) -> Counter:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = Counter(name)
        else:
            self._check_kind(instrument, "counter")
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = Gauge(name)
        else:
            self._check_kind(instrument, "gauge")
        return instrument

    def histogram(self, name: str,
                  buckets: Iterable[float] = DURATION_BUCKETS) -> Histogram:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = Histogram(name, buckets)
        else:
            self._check_kind(instrument, "histogram")
        return instrument

    def snapshot(self) -> dict[str, dict]:
        """Serializable, deterministically ordered view of every metric."""
        return {name: self._instruments[name].snapshot()
                for name in sorted(self._instruments)}

    def dump(self) -> dict[str, dict]:
        """Frame-export view: shares instrument storage instead of
        copying it.  Only safe when the registry is about to be
        discarded (end of episode) — consumers must treat it as
        frozen.  Key order is instrument-creation order, which is
        deterministic (observers register instruments in fixed order)."""
        return {name: instrument.dump()
                for name, instrument in self._instruments.items()}


def accumulate_snapshot(acc: dict[str, dict],
                        snap: dict[str, dict]) -> None:
    """Fold ``snap`` into ``acc`` in place (``snap`` is untouched).

    Counters and histograms add; gauges take the maximum per label
    (occupancy-style gauges report peaks fleet-wide).  The fold is
    commutative, but campaign aggregation always folds frames in
    episode order anyway so the question never arises."""
    for name, incoming in snap.items():
        current = acc.get(name)
        if current is None:
            acc[name] = _copy_snapshot(incoming)
            continue
        if current["kind"] != incoming["kind"]:
            raise GTMError(
                f"metric {name!r} kind mismatch: {current['kind']} vs "
                f"{incoming['kind']}")
        if current["kind"] == "counter":
            series = current["series"]
            for label, value in incoming["series"].items():
                series[label] = series.get(label, 0.0) + value
        elif current["kind"] == "gauge":
            series = current["series"]
            for label, value in incoming["series"].items():
                series[label] = max(series.get(label, value), value)
        else:
            if current["buckets"] != incoming["buckets"]:
                raise GTMError(f"histogram {name!r} bucket mismatch")
            counts = current["counts"]
            for index, value in enumerate(incoming["counts"]):
                counts[index] += value
            current["sum"] += incoming["sum"]
            current["count"] += incoming["count"]
            mins = [m for m in (current["min"], incoming["min"])
                    if m is not None]
            maxs = [m for m in (current["max"], incoming["max"])
                    if m is not None]
            current["min"] = min(mins) if mins else None
            current["max"] = max(maxs) if maxs else None


def _copy_snapshot(snap: dict) -> dict:
    out = dict(snap)
    for key in ("series", "buckets", "counts"):
        if key in out:
            out[key] = (dict(out[key]) if isinstance(out[key], dict)
                        else list(out[key]))
    return out
