"""Open-loop arrival processes at millions-of-users scale.

The population is parameterized as ``users × req/s/user`` but sampled
in the **aggregate**: a Poisson process with rate ``users * rate``
draws one batch count for the whole window and spreads it with one
sorted-uniform draw, so a million users cost the same as ten — there
are no per-user objects anywhere (this is the "arrival batching" the
roadmap calls for).  Trace-driven arrivals replay recorded per-tick
request counts the same way: one uniform spread per tick.

All randomness flows through a caller-supplied
``numpy.random.Generator``, seeded from the simulation's derived-seed
tree, so the same seed reproduces the same arrival vector bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class PoissonArrivals:
    """A homogeneous Poisson arrival process of ``users`` open-loop users."""

    users: int
    rate_per_user: float

    def __post_init__(self):
        if self.users < 1:
            raise ValueError(f"need at least one user: {self.users}")
        if self.rate_per_user <= 0:
            raise ValueError(
                f"per-user request rate must be positive: {self.rate_per_user}"
            )

    @property
    def aggregate_rate(self) -> float:
        """Total request rate in req/s across the population."""
        return self.users * self.rate_per_user

    def scaled(self, fraction: float) -> "PoissonArrivals":
        """The same process carrying ``fraction`` of the population.

        Used to split one population across the VMs of a trial (or the
        shards of a fleet): thinning a Poisson process is a Poisson
        process.  At least one user always remains.
        """
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1]: {fraction}")
        return PoissonArrivals(
            users=max(1, round(self.users * fraction)),
            rate_per_user=self.rate_per_user,
        )

    def sample(
        self, start: float, end: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Sorted arrival times over ``[start, end)`` — one batch draw."""
        if end <= start:
            raise ValueError(f"empty arrival window: [{start}, {end})")
        count = int(rng.poisson(self.aggregate_rate * (end - start)))
        times = start + rng.random(count) * (end - start)
        times.sort()
        return times


@dataclass(frozen=True)
class TraceArrivals:
    """Trace-driven arrivals: recorded request counts per fixed tick.

    ``counts[i]`` requests land uniformly inside tick ``i`` (width
    ``tick``, offset from the window start).  The trace loops if the
    serving window outlasts it.
    """

    counts: Tuple[int, ...]
    tick: float = 1.0

    def __post_init__(self):
        if not self.counts:
            raise ValueError("an arrival trace needs at least one tick")
        if any(count < 0 for count in self.counts):
            raise ValueError("trace counts must be >= 0")
        if self.tick <= 0:
            raise ValueError(f"tick width must be positive: {self.tick}")

    @property
    def aggregate_rate(self) -> float:
        """Mean request rate over one pass of the trace."""
        return sum(self.counts) / (len(self.counts) * self.tick)

    def scaled(self, fraction: float) -> "TraceArrivals":
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1]: {fraction}")
        return TraceArrivals(
            counts=tuple(
                int(round(count * fraction)) for count in self.counts
            ),
            tick=self.tick,
        )

    def sample(
        self, start: float, end: float, rng: np.random.Generator
    ) -> np.ndarray:
        if end <= start:
            raise ValueError(f"empty arrival window: [{start}, {end})")
        # Tick bounds are ``start + index * tick``, never a running sum
        # (which drifts).  A span within rounding of a whole number of
        # ticks is exactly that many ticks: no sliver tick, no draw.
        span = (end - start) / self.tick
        ticks_in_window = round(span)
        whole = math.isclose(span, ticks_in_window, rel_tol=1e-9)
        if not whole:
            ticks_in_window = math.ceil(span)
        chunks = []
        for index in range(ticks_in_window):
            tick_start = start + index * self.tick
            tick_end = min(start + (index + 1) * self.tick, end)
            count = self.counts[index % len(self.counts)]
            if not whole and index == ticks_in_window - 1:
                # Partial final tick: thin the count proportionally.
                count = int(
                    rng.binomial(count, (end - tick_start) / self.tick)
                )
            if count:
                times = tick_start + rng.random(count) * (
                    tick_end - tick_start
                )
                times.sort()
                chunks.append(times)
        if not chunks:
            return np.empty(0, dtype=np.float64)
        return np.concatenate(chunks)


def parse_trace(text: Sequence[str] | str, tick: float = 1.0) -> TraceArrivals:
    """Build :class:`TraceArrivals` from lines of integer counts.

    Accepts an iterable of lines or one newline/comma-separated string;
    blank lines and ``#`` comments are ignored.
    """
    if isinstance(text, str):
        lines = text.replace(",", "\n").splitlines()
    else:
        lines = list(text)
    counts = []
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        counts.append(int(stripped))
    if not counts:
        raise ValueError("arrival trace is empty")
    return TraceArrivals(counts=tuple(counts), tick=tick)
