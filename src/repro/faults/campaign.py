"""Seeded chaos campaigns over a protected fleet.

One campaign executes N independent trials.  Each trial stands up a
heterogeneous fleet (Xen primaries, KVM secondaries, one spare Xen
host), protects every VM through the planner +
:class:`~repro.cluster.deployment.ProtectedFleet`, arms one
:class:`~repro.cluster.protection.ProtectionStack` per engine, draws a
randomized :class:`~repro.faults.spec.FaultSchedule` from the trial's
seeded random stream, and lets detection -> failover -> re-protection
play out.  Metrics are aggregated *from the telemetry bus* (a
:class:`~repro.telemetry.recorder.Recorder` per trial), so exactly the
numbers a trace file carries: MTTR, unprotected windows, dropped VMs
and availability nines.

Determinism: every random draw comes from the trial simulation's named
streams, themselves derived from the campaign seed — the same seed
reproduces the same faults, the same detection times and the same
aggregate numbers, which is what the regression suite pins.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..analysis.availability import observed_availability_nines
from ..cluster.deployment import ProtectedFleet
from ..cluster.planner import PlacementRequest, ReplicationPlanner
from ..cluster.protection import ProtectionStack
from ..hardware.host import Host
from ..hardware.memory import MemorySpec
from ..hardware.units import GIB
from ..hypervisor import KvmHypervisor, XenHypervisor
from ..integrity import CorruptionTally, IntegrityConfig
from ..recovery import MicrorebootConfig, RecoveryPolicy
from ..replication.transport import TransportConfig
from ..simkernel.core import Simulation
from ..simkernel.random import derive_seed
from ..telemetry import Recorder
from .injector import FaultInjector
from .spec import CORRUPTION_KINDS, FaultKind, FaultSchedule

if TYPE_CHECKING:  # the serving overlay is imported only when a trial serves
    from ..serving import ServingConfig


@dataclass(frozen=True)
class CampaignConfig:
    """Declarative description of one chaos campaign."""

    trials: int = 3
    seed: int = 0
    #: Protected VMs per trial (all primaried on the Xen host).
    vms: int = 2
    vm_memory_bytes: int = GIB
    #: vCPUs per protected VM.  The historical value is 2; the perf
    #: benchmark raises it to stress per-vCPU dirty accumulation.
    vm_vcpus: int = 2
    host_memory_bytes: int = 64 * GIB
    #: KVM secondary hosts; the planner spreads replicas across them.
    kvm_hosts: int = 2
    #: Replication runs this long before the fault window opens.
    settle_time: float = 5.0
    #: Injections land uniformly inside ``[settle, settle + window]``.
    fault_window: float = 5.0
    #: How long the trial keeps running after the window closes, so
    #: detection, failover and re-seeding can complete.
    recovery_time: float = 60.0
    faults_per_trial: int = 1
    kinds: Tuple[FaultKind, ...] = (
        FaultKind.HOST_CRASH,
        FaultKind.HYPERVISOR_CRASH,
        FaultKind.HYPERVISOR_HANG,
        FaultKind.LINK_PARTITION,
    )
    #: "heartbeat" (fixed miss threshold) or "phi" (adaptive accrual).
    detector: str = "heartbeat"
    heartbeat_interval: float = 0.03
    miss_threshold: int = 3
    t_max: float = 2.0
    target_degradation: float = 0.0
    #: Run every engine over the hardened transport (two-phase commit,
    #: retransmission, fencing) — required for the lossy fault kinds to
    #: be survivable rather than just degrade throughput.
    reliable_transport: bool = False
    #: Tolerated consecutive heartbeat misses while the transport says
    #: "link degraded but alive"; None keeps the plain threshold.
    degraded_miss_threshold: Optional[int] = None
    #: Optional guest workload attached to every protected VM:
    #: ``None`` (the historical default — trials run idle guests and
    #: existing campaign fingerprints are unchanged), ``"idle"``
    #: (kernel background writes) or ``"membench"`` (the Table-4
    #: memory microbenchmark at :attr:`workload_load`).  The perf
    #: benchmark uses ``"membench"`` so the dirty-page hot path is
    #: actually exercised under chaos.
    workload: Optional[str] = None
    #: MemoryMicrobenchmark load factor when ``workload="membench"``.
    workload_load: float = 0.3
    #: What a detected primary-hypervisor failure triggers:
    #: ``"failover"`` (the historical default — replica activation +
    #: re-seed, fingerprints unchanged), ``"recover-in-place"``
    #: (ReHype-style microreboot, no fallback) or ``"hybrid"``
    #: (microreboot first, failover when it fails or runs overdue).
    recovery_policy: str = "failover"
    #: The microreboot model the recovery gates draw from (consulted
    #: only when ``recovery_policy`` is not ``failover``).
    microreboot: MicrorebootConfig = field(default_factory=MicrorebootConfig)
    #: Serving overlay: open-loop users whose tail latency the trial
    #: measures post hoc from the bus (None — the historical default —
    #: disables the overlay entirely; it adds no events and no draws,
    #: so disabled-campaign fingerprints and traces are bit-identical).
    serving: Optional["ServingConfig"] = None
    #: Checkpoint-integrity overlay: epoch attestation, background
    #: replica scrubbing and the repair escalation ladder on every
    #: engine (None — the historical default — adds no pipeline
    #: stages, no processes and no draws, so disabled-campaign
    #: fingerprints and traces are bit-identical).  Required for the
    #: silent-corruption fault kinds.  ``True``/``False`` are accepted
    #: as shorthand for ``IntegrityConfig()``/``None``.
    integrity: Optional[IntegrityConfig] = None

    def __post_init__(self):
        if isinstance(self.integrity, bool):
            object.__setattr__(
                self, "integrity", IntegrityConfig() if self.integrity else None
            )
        if self.trials < 1:
            raise ValueError(f"a campaign needs >= 1 trial: {self.trials}")
        if self.vms < 1:
            raise ValueError(f"a trial needs >= 1 VM: {self.vms}")
        if self.vm_vcpus < 1:
            raise ValueError(f"a VM needs >= 1 vCPU: {self.vm_vcpus}")
        if self.kvm_hosts < 1:
            raise ValueError("a trial needs >= 1 KVM secondary host")
        for name in ("settle_time", "fault_window", "recovery_time"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0: {getattr(self, name)}")
        if self.detector not in ("heartbeat", "phi"):
            raise ValueError(f"unknown detector {self.detector!r}")
        if self.faults_per_trial < 1:
            raise ValueError("a trial needs >= 1 fault")
        if (
            self.degraded_miss_threshold is not None
            and self.degraded_miss_threshold < self.miss_threshold
        ):
            raise ValueError(
                "degraded_miss_threshold must be >= miss_threshold: "
                f"{self.degraded_miss_threshold} < {self.miss_threshold}"
            )
        if self.workload not in (None, "idle", "membench"):
            raise ValueError(
                f"unknown trial workload {self.workload!r}; "
                "expected None, 'idle' or 'membench'"
            )
        if not 0.0 <= self.workload_load <= 1.0:
            raise ValueError(
                f"workload_load must be in [0, 1]: {self.workload_load}"
            )
        RecoveryPolicy.parse(self.recovery_policy)
        if self.integrity is None and any(
            kind in CORRUPTION_KINDS for kind in self.kinds
        ):
            corrupt = [
                k.value for k in self.kinds if k in CORRUPTION_KINDS
            ]
            raise ValueError(
                f"fault kinds {corrupt} need the integrity overlay: "
                "set integrity=IntegrityConfig() (CLI: --integrity)"
            )


@dataclass
class TrialResult:
    """Telemetry-derived outcome of one trial."""

    index: int
    seed: int
    #: Human-readable descriptions of the injected faults.
    faults: List[str] = field(default_factory=list)
    fault_times: List[float] = field(default_factory=list)
    #: Per-VM service MTTR: fault injection -> replica serving again.
    mttr: Dict[str, float] = field(default_factory=dict)
    #: Per-VM resumption time (the Fig. 7 metric, detection excluded).
    resumption_times: Dict[str, float] = field(default_factory=dict)
    #: Per-VM unprotected window: detection -> redundancy restored.
    unprotected_windows: Dict[str, float] = field(default_factory=dict)
    failovers: int = 0
    failed_failovers: int = 0
    reprotections: int = 0
    failed_reprotections: int = 0
    #: In-place recovery accounting (all zero under the default
    #: ``failover`` policy, so historical trial payloads round-trip).
    recovery_attempts: int = 0
    recoveries: int = 0
    failed_recoveries: int = 0
    #: Per-VM blackout of an in-place recovery: detection -> guests
    #: running again on the microrebooted hypervisor.
    recovery_blackouts: Dict[str, float] = field(default_factory=dict)
    #: VMs that ended the trial with neither primary nor replica alive.
    dropped_vms: int = 0
    observed_seconds: float = 0.0
    downtime_seconds: float = 0.0
    #: Availability nines over the observed window (all VMs pooled).
    nines: float = math.inf
    #: Hardened-transport telemetry: chunk/commit retransmissions and
    #: stale-generation rejections across all engines (0 when the
    #: campaign runs the classic protocol).
    retransmits: int = 0
    fencing_rejections: int = 0
    #: Kernel events the trial simulation processed and checkpoints the
    #: trial's engines committed — the numerators of the perf
    #: benchmark's steps/sec and checkpoints/sec (not part of the
    #: campaign fingerprint: they are throughput bookkeeping, and the
    #: event count is pinned separately by the perf gate).
    events_processed: int = 0
    checkpoints: int = 0
    #: Serving-overlay accounting (all zero / None when the overlay is
    #: off, so historical trial payloads round-trip unchanged).
    serving_requests: int = 0
    serving_served: int = 0
    serving_lost: int = 0
    serving_violations: int = 0
    serving_hedged: int = 0
    serving_clone_wins: int = 0
    serving_rescued: int = 0
    #: :meth:`~repro.telemetry.LatencyHistogram.to_dict` payload of the
    #: trial's served-latency histogram (mergeable across trials and
    #: fleet shards); None when the overlay is off.
    serving_histogram: Optional[dict] = None
    #: Checkpoint-integrity accounting (all zero / empty when the
    #: overlay is off, so historical trial payloads round-trip).
    corruptions_injected: int = 0
    corruptions_detected: int = 0
    corruptions_repaired: int = 0
    #: Corruptions a later clean epoch displaced before the scrubber
    #: saw them — the overlay's misses.
    corruptions_healed: int = 0
    repair_page_refetches: int = 0
    repair_resyncs: int = 0
    repair_reseeds: int = 0
    integrity_alarms: int = 0
    failover_refusals: int = 0
    scrub_audits: int = 0
    #: Per-corruption latent windows: seconds during which a failover
    #: would have promoted the corrupt replica state.
    latent_windows: List[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        """A JSON-serializable snapshot (``from_dict`` round-trips it)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "TrialResult":
        return cls(**payload)


@dataclass
class CampaignResult:
    """All trials plus the aggregates the CLI prints."""

    config: CampaignConfig
    trials: List[TrialResult] = field(default_factory=list)

    # -- aggregates ---------------------------------------------------------
    def _all(self, attribute: str) -> List[float]:
        values: List[float] = []
        for trial in self.trials:
            values.extend(getattr(trial, attribute).values())
        return values

    @property
    def mean_mttr(self) -> float:
        values = self._all("mttr")
        return sum(values) / len(values) if values else math.nan

    @property
    def max_mttr(self) -> float:
        values = self._all("mttr")
        return max(values) if values else math.nan

    @property
    def mean_unprotected_window(self) -> float:
        values = self._all("unprotected_windows")
        return sum(values) / len(values) if values else math.nan

    @property
    def max_unprotected_window(self) -> float:
        values = self._all("unprotected_windows")
        return max(values) if values else math.nan

    @property
    def total_dropped_vms(self) -> int:
        return sum(trial.dropped_vms for trial in self.trials)

    @property
    def total_failovers(self) -> int:
        return sum(trial.failovers for trial in self.trials)

    @property
    def total_reprotections(self) -> int:
        return sum(trial.reprotections for trial in self.trials)

    @property
    def pooled_nines(self) -> float:
        """Nines over every trial's pooled VM-seconds."""
        downtime = sum(trial.downtime_seconds for trial in self.trials)
        observed = sum(trial.observed_seconds for trial in self.trials)
        if observed <= 0:
            return math.inf
        return observed_availability_nines(downtime, observed)

    @property
    def total_recovery_attempts(self) -> int:
        return sum(trial.recovery_attempts for trial in self.trials)

    @property
    def total_recoveries(self) -> int:
        return sum(trial.recoveries for trial in self.trials)

    @property
    def total_failed_recoveries(self) -> int:
        return sum(trial.failed_recoveries for trial in self.trials)

    @property
    def recovery_success_rate(self) -> float:
        """Fraction of microreboot attempts that restored the VM."""
        attempts = self.total_recovery_attempts
        return self.total_recoveries / attempts if attempts else math.nan

    @property
    def mean_recovery_blackout(self) -> float:
        values = self._all("recovery_blackouts")
        return sum(values) / len(values) if values else math.nan

    @property
    def total_retransmits(self) -> int:
        return sum(trial.retransmits for trial in self.trials)

    @property
    def total_fencing_rejections(self) -> int:
        return sum(trial.fencing_rejections for trial in self.trials)

    @property
    def total_events_processed(self) -> int:
        return sum(trial.events_processed for trial in self.trials)

    @property
    def total_corruptions(self) -> int:
        return sum(trial.corruptions_injected for trial in self.trials)

    @property
    def total_corruptions_detected(self) -> int:
        return sum(trial.corruptions_detected for trial in self.trials)

    @property
    def total_corruptions_repaired(self) -> int:
        return sum(trial.corruptions_repaired for trial in self.trials)

    @property
    def total_integrity_alarms(self) -> int:
        return sum(trial.integrity_alarms for trial in self.trials)

    @property
    def total_failover_refusals(self) -> int:
        return sum(trial.failover_refusals for trial in self.trials)

    @property
    def detection_rate(self) -> float:
        """Fraction of injected corruptions the scrubber caught."""
        injected = self.total_corruptions
        if not injected:
            return math.nan
        return self.total_corruptions_detected / injected

    def _latent_windows(self) -> List[float]:
        values: List[float] = []
        for trial in self.trials:
            values.extend(trial.latent_windows)
        return values

    @property
    def mean_latent_window(self) -> float:
        values = self._latent_windows()
        return sum(values) / len(values) if values else math.nan

    @property
    def max_latent_window(self) -> float:
        values = self._latent_windows()
        return max(values) if values else math.nan

    @property
    def total_checkpoints(self) -> int:
        return sum(trial.checkpoints for trial in self.trials)

    def serving_report(self):
        """Campaign-wide serving overlay; None when the overlay is off.

        Per-trial histograms merge exactly (the histogram is the
        mergeable kind), so campaign percentiles are computed over the
        pooled served-latency distribution, not averaged per trial.
        """
        if self.config.serving is None:
            return None
        from ..serving import ServingReport
        from ..telemetry import LatencyHistogram

        report = ServingReport(config=self.config.serving)
        for trial in self.trials:
            report.requests += trial.serving_requests
            report.served += trial.serving_served
            report.lost += trial.serving_lost
            report.violations += trial.serving_violations
            report.hedged += trial.serving_hedged
            report.clone_wins += trial.serving_clone_wins
            report.rescued += trial.serving_rescued
            if trial.serving_histogram:
                report.histogram.merge(
                    LatencyHistogram.from_dict(trial.serving_histogram)
                )
        return report

    def fingerprint(self) -> dict:
        """The determinism contract: same seed => identical dict."""
        def _finite(value: float):
            # A zero-failover campaign has no MTTR: NaN would poison
            # the contract (NaN != NaN), so encode it as a string.
            return round(value, 9) if math.isfinite(value) else str(value)

        payload = {
            "mean_mttr": _finite(self.mean_mttr),
            "max_mttr": _finite(self.max_mttr),
            "mean_unprotected_window": _finite(self.mean_unprotected_window),
            "dropped_vms": self.total_dropped_vms,
            "failovers": self.total_failovers,
            "reprotections": self.total_reprotections,
            "retransmits": self.total_retransmits,
            "fencing_rejections": self.total_fencing_rejections,
            "recoveries": self.total_recoveries,
            "failed_recoveries": self.total_failed_recoveries,
            "mean_recovery_blackout": _finite(self.mean_recovery_blackout),
            "pooled_nines": round(self.pooled_nines, 6)
            if math.isfinite(self.pooled_nines)
            else "inf",
        }
        serving = self.serving_report()
        if serving is not None:
            # Present only when the overlay is on: a default campaign's
            # fingerprint stays byte-identical to the pre-serving era.
            payload.update(serving.fingerprint())
        if self.config.integrity is not None:
            # Present only when the overlay is armed, same contract as
            # the serving block above.
            payload.update({
                "corruptions": self.total_corruptions,
                "corruptions_detected": self.total_corruptions_detected,
                "corruptions_repaired": self.total_corruptions_repaired,
                "repair_page_refetches": sum(
                    t.repair_page_refetches for t in self.trials
                ),
                "repair_resyncs": sum(
                    t.repair_resyncs for t in self.trials
                ),
                "repair_reseeds": sum(
                    t.repair_reseeds for t in self.trials
                ),
                "integrity_alarms": self.total_integrity_alarms,
                "failover_refusals": self.total_failover_refusals,
                "detection_rate": _finite(self.detection_rate),
                "mean_latent_window": _finite(self.mean_latent_window),
                "max_latent_window": _finite(self.max_latent_window),
            })
        return payload

    def summary_rows(self) -> List[dict]:
        recovery_rows = []
        if self.config.recovery_policy != RecoveryPolicy.FAILOVER.value:
            recovery_rows = [
                {"metric": "in-place recoveries (ok/failed)",
                 "value": f"{self.total_recoveries}/"
                          f"{self.total_failed_recoveries}"},
                {"metric": "recovery success rate",
                 "value": self.recovery_success_rate},
                {"metric": "mean recovery blackout (s)",
                 "value": self.mean_recovery_blackout},
            ]
        transport_rows = []
        if self.config.reliable_transport:
            transport_rows = [
                {"metric": "transport retransmits",
                 "value": self.total_retransmits},
                {"metric": "fencing rejections",
                 "value": self.total_fencing_rejections},
            ]
        serving_rows = []
        serving = self.serving_report()
        if serving is not None:
            serving_rows = [
                {"metric": f"serving {row['metric']}", "value": row["value"]}
                for row in serving.summary_rows()
            ]
        integrity_rows = []
        if self.config.integrity is not None:
            integrity_rows = [
                {"metric": "corruptions (injected/detected/repaired)",
                 "value": f"{self.total_corruptions}/"
                          f"{self.total_corruptions_detected}/"
                          f"{self.total_corruptions_repaired}"},
                {"metric": "corruption detection rate",
                 "value": self.detection_rate},
                {"metric": "repairs (refetch/resync/reseed)",
                 "value": "/".join(str(sum(getattr(t, name)
                                           for t in self.trials))
                          for name in ("repair_page_refetches",
                                       "repair_resyncs",
                                       "repair_reseeds"))},
                {"metric": "integrity alarms",
                 "value": self.total_integrity_alarms},
                {"metric": "failovers refused (suspect replica)",
                 "value": self.total_failover_refusals},
                {"metric": "mean latent corruption window (s)",
                 "value": self.mean_latent_window},
                {"metric": "max latent corruption window (s)",
                 "value": self.max_latent_window},
            ]
        return [
            {"metric": "trials", "value": len(self.trials)},
            {"metric": "faults injected",
             "value": sum(len(t.faults) for t in self.trials)},
            {"metric": "failovers (ok/failed)",
             "value": f"{self.total_failovers}/"
                      f"{sum(t.failed_failovers for t in self.trials)}"},
            {"metric": "re-protections (ok/failed)",
             "value": f"{self.total_reprotections}/"
                      f"{sum(t.failed_reprotections for t in self.trials)}"},
            {"metric": "dropped VMs", "value": self.total_dropped_vms},
            {"metric": "mean MTTR (s)", "value": self.mean_mttr},
            {"metric": "max MTTR (s)", "value": self.max_mttr},
            {"metric": "mean unprotected window (s)",
             "value": self.mean_unprotected_window},
            {"metric": "max unprotected window (s)",
             "value": self.max_unprotected_window},
            {"metric": "availability (nines)", "value": self.pooled_nines},
        ] + recovery_rows + transport_rows + serving_rows + integrity_rows


class ChaosCampaign:
    """Runs seeded chaos trials and aggregates bus telemetry."""

    def __init__(
        self,
        config: Optional[CampaignConfig] = None,
        subscribers: Sequence = (),
        runner=None,
    ):
        self.config = config or CampaignConfig()
        #: Extra telemetry subscribers (e.g. a TraceWriter) attached to
        #: every trial's bus, so one JSONL file carries the campaign.
        self.subscribers = list(subscribers)
        #: Optional :class:`~repro.experiments.runner.SweepRunner`;
        #: when set, trials execute through it (parallel, cached,
        #: crash-isolated) instead of the in-process loop.  Per-trial
        #: seeds are derived identically on both paths, so the same
        #: seed yields the same :meth:`CampaignResult.fingerprint`.
        self.runner = runner

    def run(self) -> CampaignResult:
        if self.runner is not None:
            return self._run_through(self.runner)
        result = CampaignResult(config=self.config)
        for index in range(self.config.trials):
            result.trials.append(self.run_trial(index))
        return result

    def _run_through(self, runner) -> CampaignResult:
        """Execute every trial as a sweep spec through ``runner``."""
        if self.subscribers:
            raise ValueError(
                "live telemetry subscribers cannot cross worker processes; "
                "run the campaign serially (runner=None) to stream a trace"
            )
        from ..experiments.presets import chaos_sweep

        # Shallow on purpose: asdict would flatten the overlay configs.
        overrides = {
            f.name: getattr(self.config, f.name)
            for f in fields(self.config)
            if f.name not in ("trials", "seed")
        }
        specs = chaos_sweep(
            trials=self.config.trials, seed=self.config.seed, **overrides
        )
        sweep = runner.run(specs)
        result = CampaignResult(config=self.config)
        for outcome in sweep.outcomes:  # spec order == trial index order
            if not outcome.ok:
                raise RuntimeError(
                    f"chaos trial {outcome.spec.name!r} {outcome.status}: "
                    f"{outcome.error}"
                )
            result.trials.append(TrialResult.from_dict(outcome.metrics["trial"]))
        return result

    # -- one trial ----------------------------------------------------------
    def run_trial(self, index: int) -> TrialResult:
        config = self.config
        trial_seed = derive_seed(config.seed, f"chaos-trial-{index}")
        sim = Simulation(seed=trial_seed)
        recorder = Recorder.attach(sim.telemetry)
        for subscriber in self.subscribers:
            sim.telemetry.subscribe(subscriber)
        sim.telemetry.counter("chaos.trial", 1.0, trial=index, seed=trial_seed)

        memory = MemorySpec(total_bytes=config.host_memory_bytes)
        xen_primary = XenHypervisor(
            sim, Host(sim, "xen-0", memory=memory), here_patches=True
        )
        xen_spare = XenHypervisor(
            sim, Host(sim, "xen-1", memory=memory), here_patches=True
        )
        kvms = [
            KvmHypervisor(sim, Host(sim, f"kvm-{i}", memory=memory))
            for i in range(config.kvm_hosts)
        ]
        fleet_hypervisors = [xen_primary, xen_spare] + kvms
        requests = []
        for number in range(config.vms):
            vm = xen_primary.create_vm(
                f"vm-{number}",
                vcpus=config.vm_vcpus,
                memory_bytes=config.vm_memory_bytes,
                seed=trial_seed,
            )
            vm.start()
            self._attach_workload(sim, vm)
            requests.append(
                PlacementRequest(vm.name, xen_primary, config.vm_memory_bytes)
            )
        plan = ReplicationPlanner(fleet_hypervisors).plan(requests)
        if not plan.fully_placed:
            raise RuntimeError(f"chaos fleet does not fit: {plan.unplaced}")
        fleet = ProtectedFleet(
            sim,
            plan,
            target_degradation=config.target_degradation,
            t_max=config.t_max,
            transport=TransportConfig() if config.reliable_transport else None,
            integrity=config.integrity,
        )
        fleet.start_protection(wait_ready=True)

        stacks = {
            vm_name: ProtectionStack(
                sim,
                engine,
                interval=config.heartbeat_interval,
                miss_threshold=config.miss_threshold,
                detector=config.detector,
                degraded_miss_threshold=config.degraded_miss_threshold,
                policy=config.recovery_policy,
                microreboot=config.microreboot,
                spares=fleet_hypervisors,
                target_degradation=config.target_degradation,
                t_max=config.t_max,
            )
            for vm_name, engine in fleet.engines.items()
        }
        for stack in stacks.values():
            stack.start()

        injector = FaultInjector(
            sim,
            hosts=[h.host for h in fleet_hypervisors],
            links=list(fleet.links.values()),
            vms=list(xen_primary.vms.values()),
        )
        for vm_name, engine in fleet.engines.items():
            if engine.integrity_monitor is not None:
                injector.register_integrity(vm_name, engine.integrity_monitor)
        # VM names feed the schedule only when a corruption kind asked
        # for them: the extra argument never perturbs the draw sequence
        # of a historical kind list, so default fingerprints hold.
        wants_corruption = any(k in CORRUPTION_KINDS for k in config.kinds)
        schedule = FaultSchedule.random(
            sim.random.stream("chaos.schedule"),
            hosts=[xen_primary.host.name],
            links=[link.name for link in fleet.links.values()],
            vms=sorted(fleet.engines) if wants_corruption else (),
            kinds=config.kinds,
            count=config.faults_per_trial,
            window=(config.settle_time, config.settle_time + config.fault_window),
        )
        trial_start = sim.now
        injector.schedule(schedule)
        sim.run(
            until=trial_start
            + config.settle_time
            + config.fault_window
            + config.recovery_time
        )
        trial = self._harvest(
            index, trial_seed, sim, recorder, stacks, trial_start
        )
        # The serving overlay replays a seeded arrival population
        # against the telemetry above.  It runs before close-out (the
        # engines are still live, so spans are attributed by engine
        # name) and draws only from its own derived-seed numpy streams
        # — nothing below perturbs the simulation.
        if config.serving is not None:
            self._serve_overlay(trial, sim, recorder, stacks, trial_start)
        # Close the trial out cleanly so session spans end inside this
        # trial's bus (and a --trace file), not at garbage collection.
        for stack in stacks.values():
            stack.stop("trial over")
        fleet.halt("trial over")
        sim.run(until=sim.now + 1.0)
        # Throughput bookkeeping, measured after close-out so the perf
        # benchmark's steps/sec covers everything the trial cost.  The
        # checkpoint count comes off the bus (every engine's epochs,
        # including the re-protection engines fleet.engines never saw);
        # the counters put both numbers back on it for traces and CLI
        # aggregators.
        trial.events_processed = sim.events_processed
        trial.checkpoints = sum(
            1
            for span in recorder.spans("replication.checkpoint")
            if not span.attrs.get("discarded")
        )
        sim.telemetry.counter("sim.events", float(trial.events_processed))
        sim.telemetry.counter("sim.checkpoints", float(trial.checkpoints))
        return trial

    def _serve_overlay(self, trial, sim, recorder, stacks, trial_start) -> None:
        """Measure user-visible latency for this trial, post hoc."""
        from ..serving import overlay_report

        horizon = sim.now
        engine_names = {}
        extra: Dict[str, list] = {}
        for vm_name, stack in stacks.items():
            engine_names[vm_name] = (stack.engine.name,)
            if stack.failover.report is not None:
                continue  # its failover span prices the darkness
            if stack.primary_alive:
                continue
            # Dark with no failover span at all (e.g. an undetected
            # partition-then-crash): dead from the last fault onward.
            earlier = [t for t in trial.fault_times if t <= horizon]
            dark_from = max(earlier) if earlier else trial_start
            extra[vm_name] = [(dark_from, horizon)]
        report = overlay_report(
            recorder,
            vms=list(stacks),
            start=trial_start,
            horizon=horizon,
            config=self.config.serving,
            seed=derive_seed(trial.seed, "serving"),
            engine_names=engine_names,
            extra_blackouts=extra,
            bus=sim.telemetry,
        )
        trial.serving_requests = report.requests
        trial.serving_served = report.served
        trial.serving_lost = report.lost
        trial.serving_violations = report.violations
        trial.serving_hedged = report.hedged
        trial.serving_clone_wins = report.clone_wins
        trial.serving_rescued = report.rescued
        trial.serving_histogram = report.histogram.to_dict()

    def _attach_workload(self, sim, vm) -> None:
        """Start the configured guest workload inside one trial VM."""
        config = self.config
        if config.workload is None:
            return
        from ..workloads import IdleWorkload, MemoryMicrobenchmark

        if config.workload == "membench":
            MemoryMicrobenchmark(sim, vm, load=config.workload_load).start()
        else:
            IdleWorkload(sim, vm).start()

    def _harvest(
        self, index, trial_seed, sim, recorder, stacks, trial_start
    ) -> TrialResult:
        """Build the TrialResult from the telemetry the bus recorded."""
        trial = TrialResult(index=index, seed=trial_seed)
        trial.observed_seconds = (sim.now - trial_start) * len(stacks)

        fault_counters = recorder.counters("fault.injected")
        trial.fault_times = [record.time for record in fault_counters]
        trial.faults = [
            f"{record.attrs.get('kind')} on {record.attrs.get('target')}"
            for record in fault_counters
        ]

        def fault_before(when: float) -> Optional[float]:
            earlier = [t for t in trial.fault_times if t <= when]
            return max(earlier) if earlier else None

        for span in recorder.spans("failover"):
            if span.attrs.get("failed"):
                trial.failed_failovers += 1
                continue
            trial.failovers += 1
            vm_name = span.attrs.get("vm", "")
            trial.resumption_times[vm_name] = span.attrs.get(
                "resumption_time", span.duration
            )
            caused_by = fault_before(span.started_at)
            if caused_by is not None:
                trial.mttr[vm_name] = span.ended_at - caused_by
        for span in recorder.spans("reprotection"):
            if span.attrs.get("failed"):
                trial.failed_reprotections += 1
                continue
            trial.reprotections += 1
            vm_name = span.attrs.get("vm", "")
            trial.unprotected_windows[vm_name] = span.attrs.get(
                "unprotected_window", span.duration
            )
        # In-place recovery incidents (one span per VM per detection;
        # co-located VMs share the microreboot but are priced apart,
        # exactly like failovers).  A recovered VM was dark from the
        # fault until its guests resumed on the rebuilt hypervisor; the
        # escalated/abandoned outcomes are priced by the failover and
        # dropped-VM paths below.
        for span in recorder.spans("recovery"):
            if not span.attrs.get("attempted"):
                continue
            trial.recovery_attempts += 1
            vm_name = span.attrs.get("vm", "")
            if span.attrs.get("outcome") == "recovered":
                trial.recoveries += 1
                blackout = span.attrs.get("blackout", span.duration)
                trial.recovery_blackouts[vm_name] = blackout
                caused_by = fault_before(span.started_at)
                outage = (
                    span.ended_at - caused_by
                    if caused_by is not None
                    else blackout
                )
                trial.mttr[vm_name] = outage
                trial.downtime_seconds += outage
            else:
                trial.failed_recoveries += 1

        # Downtime accounting: a failed-over VM was dark from the fault
        # until replica activation; a dropped VM stays dark to the end.
        trial_end = sim.now
        for vm_name, stack in stacks.items():
            report = stack.failover.report
            if report is not None and not report.failed:
                trial.downtime_seconds += trial.mttr.get(
                    vm_name, report.resumption_time
                )
                continue
            if stack.primary_alive:
                continue  # fault never touched this VM's primary path
            trial.dropped_vms += 1
            failed_at = fault_before(trial_end)
            trial.downtime_seconds += trial_end - (
                failed_at if failed_at is not None else trial_end
            )
        trial.retransmits = int(
            sum(r.value for r in recorder.counters("transport.retransmits"))
            + sum(r.value for r in recorder.counters("transport.commit_resend"))
        )
        trial.fencing_rejections = int(
            sum(r.value for r in recorder.counters("transport.fencing_rejected"))
        )
        # Integrity accounting comes from the monitors' event ledgers
        # plus the bus (audit and refusal counters).
        tally = CorruptionTally().add(
            (stack.engine for stack in stacks.values()), sim.now
        )
        trial.corruptions_injected = tally.injected
        trial.corruptions_detected = tally.detected
        trial.corruptions_healed = tally.healed
        trial.corruptions_repaired = tally.repaired
        trial.repair_page_refetches = tally.repaired_by["page-refetch"]
        trial.repair_resyncs = tally.repaired_by["incremental-resync"]
        trial.repair_reseeds = tally.repaired_by["full-reseed"]
        trial.integrity_alarms = tally.alarms
        trial.latent_windows = tally.latent_windows
        if self.config.integrity is not None:
            trial.scrub_audits = int(sum(
                r.value for r in recorder.counters("integrity.scrub.audit")
            ))
            trial.failover_refusals = int(sum(
                r.value
                for r in recorder.counters("integrity.failover_refused")
            ))
        trial.nines = observed_availability_nines(
            max(trial.downtime_seconds, 0.0), trial.observed_seconds
        )
        return trial
