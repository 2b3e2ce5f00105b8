"""Opt-in host-side profiling: where does the wall-clock go?

Everything in this repository is measured in *simulated* seconds; this
module is the one place that deliberately looks at the *host* clock.
It offers two complementary views, both strictly opt-in so the default
experiment path stays bit-for-bit untouched:

* :class:`WallClockSampler` — a telemetry-bus subscriber that stamps
  every record with ``time.perf_counter_ns()`` on arrival and
  attributes the host time between consecutive records to the record
  that just landed.  Because instrumented components emit a record when
  they finish a unit of work (a checkpoint span, a transfer counter),
  the inter-record gap is a cheap, surprisingly sharp estimate of what
  each instrumented region costs the host — no tracing overhead beyond
  one clock read per record.
* :func:`profile_call` — a cProfile harness around any callable,
  returning both its result and the formatted top-N stats.  The
  ``repro profile`` CLI command wraps a chaos or fleet campaign, or a
  serving study, in it.

:func:`throughput` and :func:`throughput_line` turn (events, wall
seconds) pairs into the one-line ``steps/sec`` figures the CLI prints
after campaign runs and the perf smoke benchmark commits to
``BENCH_perf.json``.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple


@dataclass
class HotSpot:
    """Host cost attributed to one telemetry record name."""

    name: str
    records: int
    wall_ns: int

    @property
    def wall_seconds(self) -> float:
        return self.wall_ns / 1e9

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "records": self.records,
            "wall_s": self.wall_seconds,
        }


class WallClockSampler:
    """Attribute host wall-clock time to telemetry record names.

    Subscribe it to a :class:`~repro.telemetry.bus.TelemetryBus` (which
    enables the bus) and run; afterwards :meth:`hotspots` ranks record
    names by attributed host time.  The attribution is *flat*: the gap
    since the previous record (or since :meth:`start`) is charged to
    the arriving record, so dense record streams resolve finely and a
    silent stretch is charged to whatever record ends it.

    ``clock`` is injectable (any ``() -> int`` nanosecond counter) so
    tests can drive the sampler deterministically.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self._clock = clock
        self._last: Optional[int] = None
        self._buckets: dict = {}
        self.records = 0
        self.total_wall_ns = 0

    def start(self) -> "WallClockSampler":
        """Arm the sampler: host time starts accruing from now."""
        self._last = self._clock()
        return self

    def __call__(self, record: Any) -> None:
        now = self._clock()
        if self._last is not None:
            elapsed = now - self._last
            name = getattr(record, "name", None) or type(record).__name__
            bucket = self._buckets.get(name)
            if bucket is None:
                self._buckets[name] = [1, elapsed]
            else:
                bucket[0] += 1
                bucket[1] += elapsed
            self.total_wall_ns += elapsed
        self._last = now
        self.records += 1

    def hotspots(self, limit: Optional[int] = None) -> List[HotSpot]:
        """Record names ranked by attributed host time, hottest first."""
        spots = [
            HotSpot(name=name, records=count, wall_ns=wall)
            for name, (count, wall) in self._buckets.items()
        ]
        spots.sort(key=lambda spot: (-spot.wall_ns, spot.name))
        return spots if limit is None else spots[:limit]


def profile_call(
    fn: Callable[[], Any],
    sort: str = "cumulative",
    limit: int = 25,
) -> Tuple[Any, str]:
    """Run ``fn()`` under cProfile; return ``(result, stats_text)``.

    ``sort`` is any :mod:`pstats` sort key (``cumulative``,
    ``tottime``, ...); ``limit`` caps the printed rows.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats(sort).print_stats(limit)
    return result, buffer.getvalue()


def throughput(events: float, wall_seconds: float) -> float:
    """Events per host second; 0.0 when the wall interval is empty."""
    if wall_seconds <= 0:
        return 0.0
    return events / wall_seconds


def throughput_line(
    events: float,
    wall_seconds: float,
    unit: str = "sim-events",
    rate_unit: str = "steps/sec",
) -> str:
    """The CLI's one-line throughput summary for a finished run."""
    rate = throughput(events, wall_seconds)
    return (
        f"throughput: {events:,.0f} {unit} in {wall_seconds:.2f}s "
        f"wall — {rate:,.0f} {rate_unit}"
    )
