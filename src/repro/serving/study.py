"""The strategy study: what do users experience under each strategy?

One :class:`ServingStudy` answers the question the source paper never
could: the user-visible latency distribution of the same crash under
every fault-tolerance strategy the repo implements.  Five scenarios,
each a fresh seeded simulation of the paper's two-host testbed with an
identical fault schedule (one primary-hypervisor crash at the same
offset into the serving window):

* ``remus``           — fixed-period checkpoints + ASR failover;
* ``here``            — HERE's dynamic period + ASR failover;
* ``colo``            — lock-step replication (hot standby resumes at
  detection, near-zero activation);
* ``failover``        — no replication: crash means detection plus a
  cold restart, and every in-flight or meanwhile-arriving request
  dies;
* ``hybrid-recovery`` — HERE plus the ReHype-style microreboot gate
  (guests preserved in memory: the outage stalls requests instead of
  killing them), falling back to failover when the rebuild fails.

Each scenario yields two :class:`~repro.serving.model.ServingReport`s
from the *same* recorder and the same arrival stream: hedging off and
hedging on — so a committed bench row shows exactly what request
cloning buys during checkpoint pauses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cluster.deployment import (
    DeploymentSpec,
    ProtectedDeployment,
    unprotected_baseline,
)
from ..faults.injector import FaultInjector
from ..faults.spec import FaultKind, FaultSchedule, FaultSpec
from ..recovery import MicrorebootConfig, RecoveryPolicy
from ..simkernel.random import derive_seed
from ..telemetry import Recorder
from .model import ServingConfig, ServingReport, overlay_report

#: Strategy order of every study table and bench payload.
STRATEGIES = ("remus", "here", "colo", "failover", "hybrid-recovery")


@dataclass(frozen=True)
class StudyConfig:
    """One five-way strategy study (identical fault schedule)."""

    serving: ServingConfig = field(default_factory=ServingConfig)
    seed: int = 0
    #: Open-loop serving window length (seconds, after seeding).
    duration: float = 12.0
    #: The primary hypervisor crashes this far into the window.
    crash_at: float = 6.0
    #: Cold-restart draw bounds for the unreplicated baseline.
    restart_min: float = 2.0
    restart_max: float = 4.0
    #: Remus's fixed checkpoint period / HERE's T_max.
    remus_period: float = 0.05
    here_t_max: float = 0.2
    colo_interval: float = 0.02
    #: The microreboot model of ``hybrid-recovery`` (every fault class
    #: recovers by default, so the strategy shows the stall, not luck).
    microreboot: MicrorebootConfig = field(
        default_factory=lambda: MicrorebootConfig.with_uniform_prob(1.0)
    )
    vm_memory_bytes: int = 1 << 30
    vcpus: int = 2

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError(f"duration must be positive: {self.duration}")
        if not 0 <= self.crash_at < self.duration:
            raise ValueError(
                f"crash_at must lie inside the window: {self.crash_at}"
            )
        if not 0 < self.restart_min <= self.restart_max:
            raise ValueError(
                "need 0 < restart_min <= restart_max: "
                f"{self.restart_min}, {self.restart_max}"
            )


@dataclass
class StrategyOutcome:
    """One strategy's user-visible numbers (hedged and unhedged)."""

    strategy: str
    report: ServingReport
    hedged_report: Optional[ServingReport]
    crash_time: float = math.nan
    detection_time: float = math.nan
    #: Service blackout the timeline charged (NaN = none, e.g. a
    #: successful microreboot that only stalls).
    blackout: float = math.nan

    def fingerprint(self) -> dict:
        """Deterministic same-seed contract for one strategy."""

        def _finite(value: float):
            return round(value, 9) if math.isfinite(value) else str(value)

        payload = {
            "requests": self.report.requests,
            "served": self.report.served,
            "lost": self.report.lost,
            "violations": self.report.violations,
            "p50": _finite(self.report.p50),
            "p99": _finite(self.report.p99),
            "p999": _finite(self.report.p999),
            "violation_rate": _finite(self.report.violation_rate),
        }
        if self.hedged_report is not None:
            payload["hedged_lost"] = self.hedged_report.lost
            payload["hedged_rescued"] = self.hedged_report.rescued
            payload["hedged_p999"] = _finite(self.hedged_report.p999)
        return payload


class ServingStudy:
    """Runs the five-way strategy comparison."""

    def __init__(self, config: Optional[StudyConfig] = None):
        self.config = config or StudyConfig()

    def run(self) -> Dict[str, StrategyOutcome]:
        return {
            strategy: self.run_strategy(strategy)
            for strategy in STRATEGIES
        }

    # -- one scenario --------------------------------------------------------
    def _deployment_spec(self, strategy: str) -> DeploymentSpec:
        config = self.config
        common = dict(
            vm_name="protected",
            vcpus=config.vcpus,
            memory_bytes=config.vm_memory_bytes,
            seed=derive_seed(config.seed, f"serving-study:{strategy}"),
        )
        if strategy == "remus":
            # Remus predates heterogeneous replication: Xen -> Xen.
            return DeploymentSpec(
                engine="remus",
                period=config.remus_period,
                secondary_flavor="xen",
                **common,
            )
        if strategy == "colo":
            # Lock-stepping needs matching device models: KVM -> KVM.
            return DeploymentSpec(
                engine="colo",
                comparison_interval=config.colo_interval,
                primary_flavor="kvm",
                secondary_flavor="kvm",
                **common,
            )
        # here / failover / hybrid-recovery all run (or idle) HERE.
        return DeploymentSpec(
            engine="here", period=config.here_t_max, **common
        )

    def run_strategy(self, strategy: str) -> StrategyOutcome:
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        config = self.config
        spec = self._deployment_spec(strategy)
        unreplicated = strategy == "failover"
        if unreplicated:
            deployment = unprotected_baseline(spec)
        elif strategy == "hybrid-recovery":
            deployment = ProtectedDeployment(
                spec,
                policy=RecoveryPolicy.HYBRID,
                microreboot=config.microreboot,
            )
        else:
            deployment = ProtectedDeployment(spec)
        sim = deployment.sim
        recorder = Recorder.attach(sim.telemetry)

        if unreplicated:
            # No engine, no seeding: just watch the primary.
            deployment.monitor.start()
        else:
            deployment.start_protection(wait_ready=True)

        serve_start = sim.now
        horizon = serve_start + config.duration
        injector = FaultInjector(
            sim,
            hosts=[deployment.testbed.primary, deployment.testbed.secondary],
        )
        injector.schedule(
            FaultSchedule.single(
                FaultSpec(
                    kind=FaultKind.HYPERVISOR_CRASH,
                    target=deployment.testbed.primary.name,
                    at=config.crash_at,
                    reason="serving study crash",
                )
            )
        )
        sim.run(until=horizon)
        # Close out so session spans land on the bus before harvest.
        deployment.stack.stop()
        if not unreplicated:
            deployment.engine.halt("study over")
        sim.run(until=sim.now + 0.5)

        return self._harvest(strategy, deployment, recorder, serve_start, horizon)

    # -- harvest -------------------------------------------------------------
    def _harvest(
        self, strategy, deployment, recorder, serve_start, horizon
    ) -> StrategyOutcome:
        config = self.config
        spec = deployment.spec
        crash_records = recorder.counters("fault.injected")
        crash_time = crash_records[0].time if crash_records else math.nan
        declared = recorder.counters("heartbeat.failure_declared")
        detection_time = declared[0].time if declared else math.nan

        extra: List[Tuple[float, float]] = []
        blackout = math.nan
        if strategy == "failover" and math.isfinite(crash_time):
            # Cold restart: detection, then a seeded provisioning draw.
            rng = np.random.default_rng(
                derive_seed(config.seed, "serving-study:restart")
            )
            restart = float(
                rng.uniform(config.restart_min, config.restart_max)
            )
            detected = (
                detection_time if math.isfinite(detection_time) else horizon
            )
            extra.append((crash_time, detected + restart))
            blackout = detected + restart - crash_time
        elif strategy == "colo" and math.isfinite(crash_time):
            # Lock-step hot standby: the replica is already executing;
            # users are dark only until the failure is declared.
            detected = (
                detection_time if math.isfinite(detection_time) else horizon
            )
            extra.append((crash_time, detected))
            blackout = detected - crash_time

        engine_names = {spec.vm_name: (deployment.engine.name,)}

        def _report(hedge: float) -> ServingReport:
            serving = replace(config.serving, hedge=hedge)
            return overlay_report(
                recorder,
                vms=[spec.vm_name],
                start=serve_start,
                horizon=horizon,
                config=serving,
                seed=derive_seed(config.seed, f"serving-study:{strategy}"),
                engine_names=engine_names,
                extra_blackouts={spec.vm_name: extra},
            )

        report = _report(0.0)
        hedged = (
            _report(config.serving.hedge)
            if config.serving.hedge > 0
            else None
        )
        outcome = StrategyOutcome(
            strategy=strategy,
            report=report,
            hedged_report=hedged,
            crash_time=crash_time,
            detection_time=detection_time,
            blackout=blackout,
        )
        # Failover / recovery blackouts measured by the timeline spans.
        if math.isnan(outcome.blackout) and math.isfinite(crash_time):
            spans = [
                span
                for span in recorder.spans("failover")
                if not span.attrs.get("failed")
            ]
            if spans:
                outcome.blackout = spans[0].ended_at - crash_time
        return outcome


def study_fingerprint(outcomes: Dict[str, StrategyOutcome]) -> dict:
    """One deterministic dict across all strategies (bench contract)."""
    return {
        strategy: outcomes[strategy].fingerprint()
        for strategy in sorted(outcomes)
    }
