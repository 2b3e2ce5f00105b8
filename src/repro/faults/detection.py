"""Adaptive phi-accrual failure detection.

A drop-in alternative to the fixed-threshold
:class:`~repro.replication.heartbeat.HeartbeatMonitor` (Hayashibara et
al., "The phi accrual failure detector", SRDS 2004): instead of
counting consecutive missed probes, the detector models the
inter-arrival time of *successful* probes as a normal distribution and
declares failure when the suspicion level

    phi(t) = -log10( P(a probe would arrive later than t) )

crosses a threshold.  On a quiet link phi grows quickly after the mean
inter-arrival time, so detection adapts to the observed probe rhythm
rather than a hand-tuned miss count; a noisy (degraded) link widens
the learned distribution and automatically becomes more tolerant.

Both detectors share one probe loop,
:class:`~repro.replication.heartbeat.Prober` — ``failure_detected``,
``start``/``stop``, ``report_attack``, ``detection_latency_bound`` —
so :class:`~repro.replication.failover.FailoverController` accepts
either without modification; this module holds only the phi verdict
and its sample window.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional

from ..hardware.host import Host
from ..hardware.link import LinkPair
from ..hypervisor.base import Hypervisor
from ..replication.heartbeat import Prober

_SQRT2 = math.sqrt(2.0)


def phi_from_normal(elapsed: float, mean: float, std: float) -> float:
    """Suspicion level for ``elapsed`` under Normal(mean, std).

    ``P_later = 1 - CDF(elapsed) = 0.5 * erfc((elapsed - mean) / (std * sqrt(2)))``
    and ``phi = -log10(P_later)``, capped to stay finite when erfc
    underflows to zero.
    """
    p_later = 0.5 * math.erfc((elapsed - mean) / (std * _SQRT2))
    if p_later <= 0.0:
        return float("inf")
    return -math.log10(p_later)


class PhiAccrualDetector(Prober):
    """Secondary-side adaptive prober of the primary host/hypervisor."""

    process_name = "phi-detector"

    def __init__(
        self,
        sim,
        primary_host: Host,
        primary_hypervisor: Hypervisor,
        link: LinkPair,
        interval: float = 0.03,
        threshold: float = 8.0,
        window: int = 32,
        probe_timeout: Optional[float] = None,
        min_std: Optional[float] = None,
    ):
        if threshold <= 0:
            raise ValueError(f"threshold must be positive: {threshold}")
        if window < 2:
            raise ValueError(f"window must hold >= 2 samples: {window}")
        super().__init__(
            sim, primary_host, primary_hypervisor, link, interval,
            probe_timeout, failure_name="phi-failure",
        )
        self.threshold = threshold
        #: Floor on the learned std — a perfectly regular simulated
        #: rhythm would otherwise collapse the distribution and make
        #: phi explode on the first microsecond of jitter.
        self.min_std = min_std if min_std is not None else interval * 0.1
        self._samples: deque = deque(maxlen=window)

    def start(self):
        """Begin probing; silence is measured from this instant."""
        process = super().start()
        self._last_success_at = self.sim.now
        return process

    # -- the distribution ---------------------------------------------------
    @property
    def samples(self) -> deque:
        """The inter-arrival window, elided probes included."""
        self._settle()
        return self._samples

    @property
    def mean(self) -> float:
        samples = self.samples
        if not samples:
            # No history yet: assume the configured rhythm.
            return self.interval + self.link.round_trip_latency()
        return sum(samples) / len(samples)

    @property
    def std(self) -> float:
        samples = self.samples
        if len(samples) < 2:
            return self.min_std
        mean = self.mean
        variance = sum((s - mean) ** 2 for s in samples) / len(samples)
        return max(math.sqrt(variance), self.min_std)

    def phi(self, elapsed: float) -> float:
        """Current suspicion level for a silence of ``elapsed`` seconds."""
        return phi_from_normal(elapsed, self.mean, self.std)

    @property
    def detection_latency_bound(self) -> float:
        """Worst-case failure-to-detection time under the *current*
        distribution: the silence at which phi crosses the threshold,
        plus one full probe cycle (suspicion is only evaluated when a
        probe resolves) and the probe timeout."""
        silence = self._silence_for_threshold()
        return silence + self.interval + self.probe_timeout

    def _silence_for_threshold(self) -> float:
        """Smallest silence with ``phi(silence) >= threshold`` (bisection
        on the monotone phi curve)."""
        low = self.mean
        high = self.mean + self.std
        while phi_from_normal(high, self.mean, self.std) < self.threshold:
            high += self.std * 2
        for _ in range(60):
            mid = (low + high) / 2
            if phi_from_normal(mid, self.mean, self.std) >= self.threshold:
                high = mid
            else:
                low = mid
        return high

    # -- the verdict ----------------------------------------------------------
    def _probe_attrs(self, now: float) -> dict:
        return {"phi": round(self.phi(now - self._last_success_at), 3)}

    def _alive(self, now: float) -> None:
        self._samples.append(now - self._last_success_at)

    def _miss(self, now: float):
        suspicion = self.phi(now - self._last_success_at)
        if suspicion < self.threshold:
            return None
        return f" (phi={suspicion:.1f})", {"phi": round(suspicion, 3)}
