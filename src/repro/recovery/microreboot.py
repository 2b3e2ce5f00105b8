"""The seeded in-place microreboot of a failed hypervisor.

A :class:`MicrorebootEngine` is armed on one hypervisor (arming turns
on :attr:`~repro.hypervisor.base.Hypervisor.guest_preservation`, so a
later crash pauses guests instead of destroying them).  When the
hypervisor fails, :meth:`MicrorebootEngine.request` runs — once per
outage, shared by every controller watching a VM on that hypervisor —
the ReHype sequence:

1. **preserve**: pin guest pages, snapshot ``VcpuArchState``
   (``preserve_time``);
2. **rebuild**: tear down and reinitialise the hypervisor's own
   structures over a seeded rebuild-time draw;
3. **outcome**: a seeded Bernoulli draw decides whether the rebuilt
   hypervisor is consistent.  Success reboots the hypervisor with
   ``preserve_guests=True`` (guests resume where they paused); failure
   abandons the preserved guests — latent corruption survived the
   rebuild, only failover (if the policy allows one) can help.

Every attempt emits a ``recovery.microreboot`` span.  All randomness
comes from the simulation's named stream
``recovery.microreboot:<host>``, so arming recovery never perturbs any
other stream and same-seed campaigns reproduce identical outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..hypervisor.base import Hypervisor
from ..simkernel.errors import Interrupt
from .spec import MicrorebootConfig, classify_failure


@dataclass
class MicrorebootReport:
    """Outcome of one in-place recovery attempt."""

    host: str
    fault_class: str
    requested_at: float
    completed_at: float
    rebuild_time: float
    preserved_vms: int
    success: bool
    failure_reason: str = ""


class MicrorebootEngine:
    """Recovers one hypervisor in place, outage by outage."""

    def __init__(
        self,
        sim,
        hypervisor: Hypervisor,
        config: Optional[MicrorebootConfig] = None,
        name: Optional[str] = None,
    ):
        self.sim = sim
        self.hypervisor = hypervisor
        self.config = config or MicrorebootConfig()
        self.name = name or f"microreboot:{hypervisor.host.name}"
        #: Dedicated stream: arming recovery must not shift any draw an
        #: existing campaign fingerprint depends on.
        self.rng = sim.random.stream(
            f"recovery.microreboot:{hypervisor.host.name}"
        )
        self.attempts = 0
        self.successes = 0
        self.failures = 0
        self.last_report: Optional[MicrorebootReport] = None
        self._inflight = None
        self._process = None
        # Arm preservation: from now on a crash pauses guests in place.
        hypervisor.guest_preservation = True
        hypervisor.microreboot = self

    def request(self, reason: str = ""):
        """An event firing with the :class:`MicrorebootReport` for the
        current outage.

        Multiple controllers (one per protected VM on the hypervisor)
        share one attempt: the first request starts it, later requests
        join the same event.  A request arriving after the hypervisor
        already recovered resolves immediately with the last report.
        """
        if self._inflight is not None and not self._inflight.triggered:
            return self._inflight
        if (
            self.hypervisor.is_responsive
            and self.last_report is not None
            and self.last_report.success
        ):
            done = self.sim.event(name=f"{self.name}:already-recovered")
            done.succeed(self.last_report)
            return done
        self._inflight = self.sim.event(name=f"{self.name}:outcome")
        self._process = self.sim.process(
            self._attempt(str(reason), self._inflight), name=self.name
        )
        return self._inflight

    def cancel(self, reason: str) -> None:
        """Abort the in-flight attempt (deadline escalation)."""
        if self._process is not None and self._process.is_alive:
            self._process.interrupt(reason)

    def _attempt(self, reason, outcome):
        hypervisor = self.hypervisor
        config = self.config
        fault_class = classify_failure(hypervisor)
        requested_at = self.sim.now
        preserved = sum(
            1 for vm in hypervisor.vms.values() if not vm.is_destroyed
        )
        self.attempts += 1
        bus = self.sim.telemetry
        if fault_class == "none":
            # Nothing to recover: the hypervisor answers probes — the
            # suspicion that got us here was link-level.
            span = bus.span(
                "recovery.microreboot", host=hypervisor.host.name,
                flavor=hypervisor.flavor, fault_class=fault_class,
                reason=reason,
            )
            return self._finish(
                span, outcome, fault_class, requested_at, math.nan,
                preserved, success=False,
                failure_reason="hypervisor is responsive — nothing to "
                               "microreboot",
            )
        span = bus.span(
            "recovery.microreboot",
            host=hypervisor.host.name,
            flavor=hypervisor.flavor,
            fault_class=fault_class,
            reason=reason,
        )
        bus.counter(
            "recovery.attempt", 1.0,
            host=hypervisor.host.name, fault_class=fault_class,
        )
        rebuild = math.nan
        try:
            # Preserve: pin pages + snapshot vCPU state.
            yield self.sim.timeout(config.preserve_time)
            # Rebuild hypervisor structures under the preserved guests.
            rebuild = self.rng.uniform(
                config.rebuild_time_min, config.rebuild_time_max
            )
            yield self.sim.timeout(rebuild)
        except Interrupt as interrupt:
            report = self._finish(
                span, outcome, fault_class, requested_at, rebuild,
                preserved, success=False,
                failure_reason=f"microreboot aborted: {interrupt.cause}",
            )
            return report
        draw = self.rng.random()
        success = (
            draw < config.success_prob(fault_class)
            and hypervisor.host.is_up
            and not hypervisor.is_running_normally
        )
        if success:
            hypervisor.reboot(
                reason=f"microreboot: {reason or fault_class}",
                preserve_guests=True,
            )
            report = self._finish(
                span, outcome, fault_class, requested_at, rebuild,
                preserved, success=True,
            )
        else:
            if not hypervisor.host.is_up:
                why = "host died during the rebuild"
            elif hypervisor.is_running_normally:
                why = "hypervisor recovered by other means mid-rebuild"
            else:
                why = (
                    "latent corruption survived the rebuild "
                    f"({fault_class} class)"
                )
                hypervisor.abandon_preserved_guests(why)
            report = self._finish(
                span, outcome, fault_class, requested_at, rebuild,
                preserved, success=False, failure_reason=why,
            )
        return report

    def _finish(
        self, span, outcome, fault_class, requested_at, rebuild,
        preserved, success, failure_reason="",
    ) -> MicrorebootReport:
        report = MicrorebootReport(
            host=self.hypervisor.host.name,
            fault_class=fault_class,
            requested_at=requested_at,
            completed_at=self.sim.now,
            rebuild_time=rebuild,
            preserved_vms=preserved,
            success=success,
            failure_reason=failure_reason,
        )
        self.last_report = report
        bus = self.sim.telemetry
        if success:
            self.successes += 1
            bus.counter(
                "recovery.succeeded", 1.0,
                host=report.host, fault_class=fault_class,
            )
            if bus.enabled:
                bus.gauge(
                    "recovery.rebuild_time", rebuild,
                    host=report.host, fault_class=fault_class,
                )
        else:
            self.failures += 1
            bus.counter(
                "recovery.failed", 1.0,
                host=report.host, fault_class=fault_class,
                reason=failure_reason,
            )
        span.end(
            success=success,
            rebuild_time=rebuild,
            preserved_vms=preserved,
            failure_reason=failure_reason,
        )
        if not outcome.triggered:
            outcome.succeed(report)
        return report
