"""The recovery gate: policy between failure detection and failover.

A :class:`RecoveryController` sits between a failure detector (either
:class:`~repro.replication.heartbeat.HeartbeatMonitor` or
:class:`~repro.faults.detection.PhiAccrualDetector`) and the
:class:`~repro.replication.failover.FailoverController`.  It exposes
the same ``failure_detected`` surface a monitor does, so the failover
controller wires to the gate unchanged; the gate consumes the *real*
detector's suspicion and decides, per
:class:`~repro.recovery.spec.RecoveryPolicy`, what to do with it:

* ``failover`` — propagate immediately (bit-for-bit the old behavior);
* ``recover-in-place`` — run the microreboot; never propagate.  A
  failed or overdue microreboot means the VM is lost: that is the
  price of the pure ReHype policy, and exactly what the three-way
  comparison measures;
* ``hybrid`` — run the microreboot, but propagate to failover when it
  fails, reports latent corruption, or exceeds its deadline.  While
  the microreboot is in flight the gate *withholds* the suspicion, so
  a silent mid-recovery hypervisor cannot trigger a spurious failover.

On microreboot success the gate re-arms the halted replication engine
on the same primary/secondary pair: the replica still holds the last
acknowledged epoch, so re-protection is one incremental checkpoint
stream rather than a full re-seed — this is why recover-in-place
windows are an order of magnitude below failover + re-protection.

The gate emits one ``recovery`` span per incident (opened at
detection, ended at resolution) and — when redundancy was restored in
place — a ``reprotection`` span carrying the measured
``unprotected_window``, so a trace shows both policies' windows the
same way.  Campaigns read the outcome from the gate's report through
:mod:`repro.cluster.incidents`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..simkernel.errors import Interrupt
from ..telemetry.bus import NULL_SPAN
from .microreboot import MicrorebootEngine, MicrorebootReport
from .spec import RecoveryPolicy


@dataclass
class RecoveryReport:
    """How one detected failure was resolved under the policy."""

    vm_name: str
    policy: RecoveryPolicy
    reason: str
    detected_at: float
    resolved_at: float
    fault_class: str = ""
    #: Whether a microreboot was actually attempted.
    attempted: bool = False
    #: True when the VM kept running on the recovered hypervisor.
    recovered: bool = False
    #: True when the suspicion was propagated to the failover path.
    escalated: bool = False
    #: Detection -> guests running again (recovered incidents only).
    blackout: float = math.nan
    #: Detection -> redundancy restored (recovered incidents only).
    unprotected_window: float = math.nan
    failure_reason: str = ""
    microreboot: Optional[MicrorebootReport] = field(default=None, repr=False)


class RecoveryController:
    """Monitor-compatible recovery gate for one protected VM."""

    def __init__(
        self,
        sim,
        engine,
        monitor,
        microreboot: MicrorebootEngine,
        policy: RecoveryPolicy = RecoveryPolicy.HYBRID,
    ):
        self.sim = sim
        self.engine = engine
        self.monitor = monitor
        self.microreboot = microreboot
        self.policy = RecoveryPolicy.parse(policy)
        #: What the failover controller watches instead of the real
        #: detector's event.
        self.failure_detected = sim.event(
            name=f"recovery-gate:{engine.name}"
        )
        #: Succeeds with the RecoveryReport once the incident resolves.
        self.completed = sim.event(name=f"recovery-done:{engine.name}")
        self.completed.callbacks.append(lambda _evt: None)
        self.report: Optional[RecoveryReport] = None
        self.process = None

    # -- monitor-compatible surface -----------------------------------------
    def start(self):
        """Arm the gate; returns its process."""
        if self.process is not None:
            raise RuntimeError("recovery controller already started")
        self.process = self.sim.process(
            self._run(), name=f"recovery:{self.engine.name}"
        )
        return self.process

    def stop(self) -> None:
        if self.process is not None and self.process.is_alive:
            self.process.interrupt("recovery controller stopped")

    def report_attack(self, description: str) -> None:
        """External detection path, forwarded to the real detector."""
        self.monitor.report_attack(description)

    @property
    def detection_latency_bound(self) -> float:
        """The inner detector's bound plus the recovery deadline the
        gate may spend before escalating."""
        bound = self.monitor.detection_latency_bound
        if self.policy is RecoveryPolicy.FAILOVER:
            return bound
        return bound + self.microreboot.config.deadline

    # -- the gate process ----------------------------------------------------
    def _propagate(self, reason: str) -> None:
        if not self.failure_detected.triggered:
            self.failure_detected.succeed(str(reason))

    def _resolve(self, span, **fields) -> RecoveryReport:
        report = RecoveryReport(
            vm_name=self.engine.vm.name if self.engine.vm is not None else "",
            policy=self.policy,
            resolved_at=self.sim.now,
            **fields,
        )
        self.report = report
        outcome = (
            "recovered" if report.recovered
            else "failover" if report.escalated
            else "abandoned"
        )
        span.end(
            outcome=outcome,
            attempted=report.attempted,
            recovered=report.recovered,
            fault_class=report.fault_class,
            blackout=report.blackout,
            failure_reason=report.failure_reason,
        )
        bus = self.sim.telemetry
        bus.counter(
            f"recovery.{outcome}", 1.0,
            vm=report.vm_name, policy=self.policy.value,
        )
        if not self.completed.triggered:
            self.completed.succeed(report)
        return report

    def _run(self):
        try:
            reason = yield self.monitor.failure_detected
        except Interrupt:
            return
        detected_at = self.sim.now
        vm_name = self.engine.vm.name if self.engine.vm is not None else ""
        if self.policy is RecoveryPolicy.FAILOVER:
            # Pass-through: identical wiring to the classic campaign.
            self._propagate(reason)
            self._resolve(
                NULL_SPAN, reason=str(reason), detected_at=detected_at,
                escalated=True,
            )
            return
        bus = self.sim.telemetry
        span = bus.span(
            "recovery", vm=vm_name, policy=self.policy.value,
            reason=str(reason), host=self.engine.primary.host.name,
        )
        hypervisor = self.engine.primary
        # In-place recovery needs a dead hypervisor on a live host: a
        # dead host has no RAM to preserve, and a responsive hypervisor
        # means the suspicion is link-level (partition).
        if not hypervisor.host.is_up or hypervisor.is_running_normally:
            why = (
                "primary host is down — nothing to microreboot in place"
                if not hypervisor.host.is_up
                else "hypervisor is responsive — suspicion is link-level"
            )
            escalate = self.policy is RecoveryPolicy.HYBRID
            if escalate:
                self._propagate(reason)
            self._resolve(
                span, reason=str(reason), detected_at=detected_at,
                escalated=escalate, failure_reason=why,
            )
            return
        # Freeze the (possibly still-parked) engine process so a
        # half-dead checkpoint loop cannot race the rebuilt hypervisor.
        self.engine.halt("recovery in flight")
        outcome_event = self.microreboot.request(reason)
        deadline = self.microreboot.config.deadline
        try:
            yield self.sim.any_of(
                [outcome_event, self.sim.timeout(deadline)]
            )
        except Interrupt:
            return
        if not outcome_event.triggered:
            # Overdue: escalate without waiting for the attempt.
            self.microreboot.cancel(
                f"recovery deadline ({deadline:g}s) exceeded"
            )
            why = f"microreboot exceeded its {deadline:g}s deadline"
            escalate = self.policy is RecoveryPolicy.HYBRID
            if escalate:
                self._propagate(f"{reason} [{why}]")
            self._resolve(
                span, reason=str(reason), detected_at=detected_at,
                attempted=True, escalated=escalate, failure_reason=why,
            )
            return
        result: MicrorebootReport = outcome_event.value
        if result.success:
            # Redundancy is one incremental checkpoint away: resume the
            # same engine against the replica's last acked epoch.
            self.engine.re_arm()
            now = self.sim.now
            window = now - detected_at
            reprotect_span = bus.span(
                "reprotection", vm=vm_name, mode="recover-in-place",
                host=hypervisor.host.name,
            )
            reprotect_span.end(
                detected_at=detected_at,
                ready_at=now,
                unprotected_window=window,
            )
            self._resolve(
                span, reason=str(reason), detected_at=detected_at,
                fault_class=result.fault_class, attempted=True,
                recovered=True, blackout=now - detected_at,
                unprotected_window=window, microreboot=result,
            )
            return
        why = result.failure_reason or "microreboot failed"
        escalate = self.policy is RecoveryPolicy.HYBRID
        if escalate:
            self._propagate(f"{reason} [microreboot failed: {why}]")
        self._resolve(
            span, reason=str(reason), detected_at=detected_at,
            fault_class=result.fault_class, attempted=True,
            escalated=escalate, failure_reason=why, microreboot=result,
        )
