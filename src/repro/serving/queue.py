"""Exact processor-sharing queue under a piecewise service capacity.

One protected VM serves its request population as an egalitarian
processor-sharing (PS) server: ``N`` concurrent requests each receive
``C(t)/N`` of the service capacity ``C(t)``.  The capacity profile is
piecewise constant — full speed while the VM runs, zero while a
checkpoint pause or a preserved-guest microreboot stalls it, and
*lost* across a failover blackout (in-flight requests and new arrivals
die with the primary).

With equal per-request demand ``s`` the PS dynamics collapse onto
Kleinrock's virtual time ``V(t)`` with ``dV/dt = C(t)/N(t)``: a
request arriving at ``a`` finishes when ``V`` reaches ``V(a) + s``.
``V`` is non-decreasing, so completion order equals arrival order and
the whole queue reduces to a head pointer over a monotone threshold
list — O(n) overall.  A run of completions between two boundaries is
popped by a scalar loop that accumulates the weighted threshold gaps
one at a time, left to right: the same additions, in the same order,
as the ``np.cumsum`` this loop replaced, so every completion time is
bit-identical to it.  At serving loads the backlog is almost always
0–2, where a per-pop numpy call costs far more than the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

#: The completion-time accumulation restarts from the last popped
#: request every this many pops.  A determinism anchor, not a memory
#: cap: the restart point fixes the rounding of every later time.
_CHUNK = 8192


@dataclass(frozen=True)
class CapacitySegment:
    """One constant-capacity stretch of a VM's service timeline."""

    start: float
    end: float
    #: Service capacity in demand-units per second (1.0 = full speed,
    #: 0.0 = paused: requests queue but nobody is lost).
    capacity: float = 1.0
    #: A blackout: queued and arriving requests are lost, not delayed.
    lost: bool = False

    def __post_init__(self):
        if self.end < self.start:
            raise ValueError(f"segment ends before it starts: {self}")
        if self.capacity < 0:
            raise ValueError(f"negative capacity: {self.capacity}")


def validate_segments(segments: Sequence[CapacitySegment]) -> None:
    """Segments must be contiguous and time-ordered."""
    if not segments:
        raise ValueError("a service timeline needs at least one segment")
    for earlier, later in zip(segments, segments[1:]):
        if not math.isclose(earlier.end, later.start, abs_tol=1e-12):
            raise ValueError(
                f"segments not contiguous: {earlier.end} -> {later.start}"
            )


def segments_from_windows(
    start: float,
    end: float,
    pauses: Sequence[Tuple[float, float]] = (),
    blackouts: Sequence[Tuple[float, float]] = (),
    capacity: float = 1.0,
) -> List[CapacitySegment]:
    """Build a contiguous capacity profile over ``[start, end]``.

    ``pauses`` become capacity-0 segments, ``blackouts`` lost segments;
    blackouts win where the two overlap.  Windows outside the horizon
    are clipped; empty or inverted windows are dropped.
    """
    if end <= start:
        raise ValueError(f"empty horizon: [{start}, {end}]")

    def _clip(windows):
        clipped = []
        for w_start, w_end in windows:
            lo, hi = max(w_start, start), min(w_end, end)
            if hi > lo:
                clipped.append((lo, hi))
        return sorted(clipped)

    cuts = {start, end}
    pause_windows = _clip(pauses)
    blackout_windows = _clip(blackouts)
    for lo, hi in pause_windows + blackout_windows:
        cuts.add(lo)
        cuts.add(hi)
    points = sorted(cuts)

    def _inside(t, windows):
        return any(lo <= t < hi for lo, hi in windows)

    segments = []
    for lo, hi in zip(points, points[1:]):
        midpoint = (lo + hi) / 2.0
        if _inside(midpoint, blackout_windows):
            segments.append(CapacitySegment(lo, hi, capacity=0.0, lost=True))
        elif _inside(midpoint, pause_windows):
            segments.append(CapacitySegment(lo, hi, capacity=0.0))
        else:
            segments.append(CapacitySegment(lo, hi, capacity=capacity))
    return segments


def ps_complete(
    arrivals: np.ndarray,
    demand: float,
    segments: Sequence[CapacitySegment],
) -> np.ndarray:
    """Completion time of each arrival under processor sharing.

    ``arrivals`` must be sorted ascending and lie inside the segment
    span.  Returns one completion time per arrival; ``NaN`` marks a
    request lost to a blackout or still unfinished when the timeline
    ends (both are user-visible failures).
    """
    if demand <= 0:
        raise ValueError(f"per-request demand must be positive: {demand}")
    validate_segments(segments)
    arrivals = np.asarray(arrivals, dtype=np.float64)
    n = arrivals.size
    if n == 0:
        return np.empty(0)
    if np.any(np.diff(arrivals) < 0):
        raise ValueError("arrivals must be sorted ascending")
    if arrivals[0] < segments[0].start or arrivals[-1] > segments[-1].end:
        raise ValueError("arrivals outside the segment span")

    theta = [math.inf] * n  # virtual completion thresholds, set on arrival
    completions = [math.nan] * n
    head = 0  # oldest unfinished request
    tail = 0  # next arrival to admit
    virtual = 0.0
    arrival_list = arrivals.tolist()

    for segment in segments:
        now = segment.start
        end = segment.end
        if segment.lost:
            # Blackout: everything in flight dies, arrivals bounce.
            while tail < n and arrival_list[tail] < end:
                tail += 1
            head = tail
            continue
        capacity = segment.capacity
        while True:
            at_arrival = tail < n and arrival_list[tail] < end
            boundary = arrival_list[tail] if at_arrival else end
            # Pop every completion due by the boundary.  ``acc`` starts
            # at -0.0, the exact identity of IEEE addition, so its
            # first value is the first term itself, as in a cumsum.
            while head < tail and capacity > 0.0:
                weight = tail - head
                stop = tail if weight <= _CHUNK else head + _CHUNK
                prev = virtual
                acc = -0.0
                k = head
                while k < stop:
                    threshold = theta[k]
                    acc += (threshold - prev) * weight
                    due = now + acc / capacity
                    if due > boundary:
                        break
                    completions[k] = due
                    prev = threshold
                    weight -= 1
                    k += 1
                if k == head:
                    break
                now = completions[k - 1]
                virtual = prev
                head = k
            if head < tail and capacity > 0.0:
                virtual += (boundary - now) * capacity / (tail - head)
            now = boundary
            if not at_arrival:
                break
            theta[tail] = virtual + demand
            tail += 1
    return np.array(completions, dtype=np.float64)
