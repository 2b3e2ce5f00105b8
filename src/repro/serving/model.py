"""The user-visible serving model: arrivals x timelines -> percentiles.

This is a post-hoc analytic overlay: the simulation runs exactly as it
always has, and afterwards :func:`overlay_report` replays a seeded
open-loop request population against the service timelines distilled
from the telemetry bus.  The overlay draws from its own derived-seed
numpy streams and enqueues nothing on the simulation calendar, so a
campaign with serving disabled is bit-identical to one that never
imported this module.

Per VM the pipeline is: sample arrivals (batched, aggregate-rate) ->
processor-sharing completion times under the VM's capacity profile ->
output-commit egress mapping (responses wait for the releasing
checkpoint ack) -> optional cloning/hedging: each request is cloned to
the replica with probability ``hedge``, clones run a PS queue over the
replica's committed state (no output commit — reads release
immediately), and the client takes the first response that arrives
(first-response-wins; the loser is simply ignored, a conservative
no-cancellation model).  Lost-on-primary requests answered by their
clone are *rescued* — hedging converts blackout losses into latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..simkernel.random import derive_seed
from ..telemetry.histogram import LatencyHistogram
from .arrivals import PoissonArrivals
from .queue import ps_complete
from .timeline import ServiceTimeline


@dataclass(frozen=True)
class ServingConfig:
    """One serving-population description (users x req/s/user)."""

    users: int = 100_000
    rate_per_user: float = 0.01
    #: Per-request service demand in seconds at full capacity.
    demand: float = 0.0005
    #: Latency SLO; a served request over this (or any lost request)
    #: is a violation.
    slo: float = 0.25
    #: Probability a request is cloned to the replica.
    hedge: float = 0.0

    def __post_init__(self):
        if self.users < 1:
            raise ValueError(f"need at least one user: {self.users}")
        if self.rate_per_user <= 0:
            raise ValueError(
                f"rate_per_user must be positive: {self.rate_per_user}"
            )
        if self.demand <= 0:
            raise ValueError(f"demand must be positive: {self.demand}")
        if self.slo <= 0:
            raise ValueError(f"slo must be positive: {self.slo}")
        if not 0.0 <= self.hedge <= 1.0:
            raise ValueError(f"hedge must be in [0, 1]: {self.hedge}")

    @property
    def aggregate_rate(self) -> float:
        return self.users * self.rate_per_user

    def arrivals(self) -> PoissonArrivals:
        return PoissonArrivals(
            users=self.users, rate_per_user=self.rate_per_user
        )


@dataclass
class ServingReport:
    """Aggregate user experience over one serving window."""

    config: ServingConfig
    requests: int = 0
    served: int = 0
    lost: int = 0
    violations: int = 0
    #: Requests that were cloned to the replica.
    hedged: int = 0
    #: Hedged requests whose clone answered first.
    clone_wins: int = 0
    #: Requests lost on the primary but answered by their clone.
    rescued: int = 0
    histogram: LatencyHistogram = field(default_factory=LatencyHistogram)

    @property
    def p50(self) -> float:
        return self.histogram.percentile(50)

    @property
    def p99(self) -> float:
        return self.histogram.percentile(99)

    @property
    def p999(self) -> float:
        return self.histogram.percentile(99.9)

    @property
    def mean_latency(self) -> float:
        return self.histogram.mean()

    @property
    def violation_rate(self) -> float:
        """SLO violations (lost requests included) per request; NaN
        for a zero-request window — the fingerprint encodes it as a
        string, mirroring the zero-failover MTTR convention."""
        if self.requests == 0:
            return math.nan
        return self.violations / self.requests

    @property
    def loss_rate(self) -> float:
        if self.requests == 0:
            return math.nan
        return self.lost / self.requests

    def merge(self, other: "ServingReport") -> "ServingReport":
        """Fold another shard/VM report into this one (in place)."""
        self.requests += other.requests
        self.served += other.served
        self.lost += other.lost
        self.violations += other.violations
        self.hedged += other.hedged
        self.clone_wins += other.clone_wins
        self.rescued += other.rescued
        self.histogram.merge(other.histogram)
        return self

    def to_metrics(self) -> Dict[str, float]:
        """Flat numeric metrics (NaN-safe: rates may be NaN)."""
        return {
            "requests": float(self.requests),
            "served": float(self.served),
            "lost": float(self.lost),
            "violations": float(self.violations),
            "hedged": float(self.hedged),
            "rescued": float(self.rescued),
            "p50": self.p50,
            "p99": self.p99,
            "p999": self.p999,
            "violation_rate": self.violation_rate,
        }

    def fingerprint(self) -> Dict[str, object]:
        """The ``serving_*`` block chaos and fleet campaign fingerprints
        carry.  A zero-request window's NaN rates are string-encoded
        (NaN != NaN would break the same-seed contract)."""

        def _finite(value: float):
            return round(value, 9) if math.isfinite(value) else str(value)

        return {
            "serving_requests": self.requests,
            "serving_lost": self.lost,
            "serving_violations": self.violations,
            "serving_rescued": self.rescued,
            "serving_p50": _finite(self.p50),
            "serving_p99": _finite(self.p99),
            "serving_p999": _finite(self.p999),
            "serving_violation_rate": _finite(self.violation_rate),
        }

    def summary_rows(self) -> List[dict]:
        return [
            {"metric": "requests", "value": self.requests},
            {"metric": "served / lost", "value": f"{self.served}/{self.lost}"},
            {"metric": "hedged (clone wins)",
             "value": f"{self.hedged} ({self.clone_wins})"},
            {"metric": "rescued by clone", "value": self.rescued},
            {"metric": "mean latency (s)", "value": self.mean_latency},
            {"metric": "p50 (s)", "value": self.p50},
            {"metric": "p99 (s)", "value": self.p99},
            {"metric": "p999 (s)", "value": self.p999},
            {"metric": "SLO violations", "value": self.violations},
            {"metric": "SLO violation rate", "value": self.violation_rate},
        ]

    def publish(self, bus, **attrs) -> None:
        """Put the aggregate numbers on a telemetry bus."""
        bus.counter("serving.requests", float(self.requests), **attrs)
        bus.counter("serving.lost", float(self.lost), **attrs)
        bus.counter("serving.violations", float(self.violations), **attrs)
        bus.counter("serving.rescued", float(self.rescued), **attrs)
        for name, value in (
            ("serving.p50", self.p50),
            ("serving.p99", self.p99),
            ("serving.p999", self.p999),
        ):
            if math.isfinite(value):
                bus.gauge(name, value, **attrs)


def serve_timeline(
    timeline: ServiceTimeline,
    config: ServingConfig,
    seed: int,
    arrivals_process: Optional[PoissonArrivals] = None,
) -> ServingReport:
    """Run one VM's population against its timeline."""
    process = arrivals_process or config.arrivals()
    rng = np.random.default_rng(
        derive_seed(seed, f"serving:{timeline.vm}")
    )
    arrivals = process.sample(timeline.start, timeline.horizon, rng)
    report = ServingReport(config=config)
    report.requests = int(arrivals.size)
    if arrivals.size == 0:
        return report

    completions = ps_complete(arrivals, config.demand, timeline.segments())
    delivered = timeline.deliver(completions)
    latency = delivered - arrivals

    # -- cloning / hedging ---------------------------------------------------
    # The hedge draw happens for every request regardless of replica
    # availability, so turning the replica on or off never shifts the
    # random stream of a later VM.
    hedge_mask = (
        rng.random(arrivals.size) < config.hedge
        if config.hedge > 0
        else np.zeros(arrivals.size, dtype=bool)
    )
    replica_segments = timeline.replica_segments()
    if config.hedge > 0 and replica_segments is not None and hedge_mask.any():
        clone_arrivals = arrivals[hedge_mask]
        clone_completions = ps_complete(
            clone_arrivals, config.demand, replica_segments
        )
        clone_latency = clone_completions - clone_arrivals
        primary_latency = latency[hedge_mask]
        report.hedged = int(hedge_mask.sum())
        first = np.where(
            np.isnan(primary_latency),
            clone_latency,
            np.where(
                np.isnan(clone_latency),
                primary_latency,
                np.minimum(primary_latency, clone_latency),
            ),
        )
        report.clone_wins = int(
            np.count_nonzero(
                ~np.isnan(clone_latency)
                & (np.isnan(primary_latency) | (clone_latency < primary_latency))
            )
        )
        report.rescued = int(
            np.count_nonzero(
                np.isnan(primary_latency) & ~np.isnan(clone_latency)
            )
        )
        latency[hedge_mask] = first
    elif config.hedge > 0:
        report.hedged = int(hedge_mask.sum())

    lost_mask = np.isnan(latency)
    served_latency = latency[~lost_mask]
    report.lost = int(lost_mask.sum())
    report.served = int(served_latency.size)
    report.violations = report.lost + int(
        np.count_nonzero(served_latency > config.slo)
    )
    report.histogram.record_many(served_latency)
    return report


def overlay_report(
    recorder,
    vms: Sequence[str],
    start: float,
    horizon: float,
    config: ServingConfig,
    seed: int,
    engine_names: Optional[Dict[str, Sequence[str]]] = None,
    extra_blackouts: Optional[Dict[str, Sequence[tuple]]] = None,
    bus=None,
) -> ServingReport:
    """The whole-trial serving overlay: one merged report over ``vms``.

    The population splits evenly across the VMs (thinning a Poisson
    process is a Poisson process); per-VM reports merge through the
    shard-mergeable histogram.  ``engine_names`` maps VM name ->
    engine names for mid-campaign harvests; ``extra_blackouts`` adds
    caller-known dark windows (cold restarts) per VM.
    """
    if not vms:
        raise ValueError("the serving overlay needs at least one VM")
    merged = ServingReport(config=config)
    share = config.arrivals().scaled(1.0 / len(vms))
    for vm in sorted(vms):
        timeline = ServiceTimeline.from_recorder(
            recorder,
            vm,
            start,
            horizon,
            extra_blackouts=(extra_blackouts or {}).get(vm, ()),
            engine_names=(engine_names or {}).get(vm, ()),
        )
        merged.merge(
            serve_timeline(timeline, config, seed, arrivals_process=share)
        )
    if bus is not None:
        merged.publish(bus, vms=len(vms))
    return merged
