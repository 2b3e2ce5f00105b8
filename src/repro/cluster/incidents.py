"""One incident ledger: what became of each protected VM (DESIGN §22).

The one place that reads a ``ProtectionStack``'s failover, recovery
gate and re-protection reports for accounting.  Each availability rule
lists dark intervals in the order its campaign sums them; the order is
part of the fingerprint (DESIGN §15).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from ..recovery.policy import RecoveryReport
    from ..replication.failover import FailoverReport


class Outcome(str, Enum):
    """How a protected VM's incident was resolved."""

    RECOVERED = "recovered-in-place"
    FAILED_OVER = "failed-over"
    FAILOVER_FAILED = "failover-failed"
    #: Recover-in-place without recovering, and no failover behind it.
    LOST_IN_PLACE = "lost-in-place"
    #: The gate handed the incident to failover, which has not reported.
    ESCALATED = "escalated"


def classify(
    failover: Optional[FailoverReport], recovery: Optional[RecoveryReport]
) -> Optional[Outcome]:
    """What a failover report and a gate report add up to (None while
    neither has been filed)."""
    if recovery is not None and recovery.recovered:
        return Outcome.RECOVERED
    if recovery is not None and not recovery.escalated:
        return Outcome.LOST_IN_PLACE
    if failover is not None:
        return Outcome.FAILOVER_FAILED if failover.failed else Outcome.FAILED_OVER
    return None if recovery is None else Outcome.ESCALATED


@dataclass
class ReprotectionRecord:
    """One re-protection attempt: a re-seed onto a spare (a stack's or
    the fleet's), or an in-place recovery's incremental re-arm."""

    vm_name: str
    #: The fleet shard the VM is accounted in ("" outside a fleet).
    shard_name: str = ""
    spare_host: str = ""
    spare_hypervisor: str = ""
    detected_at: float = math.nan
    #: When re-seeding began, and when the fresh backup was consistent.
    started_at: float = math.nan
    ready_at: float = math.nan
    #: The measured metric: detection -> redundancy restored.
    unprotected_window: float = math.nan
    failed: bool = False
    failure_reason: str = ""
    #: The engine protecting the VM again (a stack's re-seed only).
    engine: Optional[object] = field(default=None, repr=False, compare=False)


@dataclass
class Incident:
    """One protected VM's reports, as its stack held them."""

    vm: str
    failover: Optional[FailoverReport] = None
    recovery: Optional[RecoveryReport] = None
    reprotection: Optional[ReprotectionRecord] = None
    primary_alive: bool = True
    shard: str = ""

    @classmethod
    def of(cls, vm: str, stack, shard: str = "") -> "Incident":
        """What ``stack`` has filed for ``vm`` so far."""
        failover = stack.failover.report if stack.failover is not None else None
        recovery = stack.gate.report if stack.gate is not None else None
        reprotection = None
        if recovery is not None and recovery.recovered:
            reprotection = ReprotectionRecord(
                vm, shard, spare_host="(in-place)",
                detected_at=recovery.detected_at,
                ready_at=recovery.resolved_at,
                unprotected_window=recovery.unprotected_window,
            )
        elif stack.reprotection is not None and stack.reprotection.report:
            # Without its engine: a ledger must not keep a trial alive.
            reprotection = replace(stack.reprotection.report, engine=None)
        return cls(vm, failover, recovery, reprotection, stack.primary_alive, shard)

    @property
    def outcome(self) -> Optional[Outcome]:
        return classify(self.failover, self.recovery)

    @property
    def resolution(self):
        """The report of a RECOVERED (gate) or FAILED_OVER incident."""
        return self.recovery if self.outcome is Outcome.RECOVERED else self.failover

    @property
    def resumed_at(self) -> float:
        """When a RECOVERED or FAILED_OVER VM served again."""
        if self.outcome is Outcome.RECOVERED:
            return self.recovery.resolved_at
        return self.failover.activated_at


class DarkInterval(NamedTuple):
    """A window during which one VM served nothing."""

    vm: str
    start: float
    end: float
    #: "failover" or "recovery" when service resumed at ``end``; None
    #: when the VM was still dark when the ledger was read.
    resumed_by: Optional[str] = None


class IncidentLedger:
    """Every protected VM's incident, read once at harvest time.

    ``incidents`` come in the order the campaign holds its stacks;
    ``reprotections`` defaults to their records, the successes in
    completion order and the failures after them.
    """

    def __init__(
        self,
        incidents: Sequence[Incident],
        *,
        end: float,
        fault_times: Sequence[float] = (),
        reprotections: Optional[Sequence[ReprotectionRecord]] = None,
    ):
        self.incidents = list(incidents)
        self.end = end
        self.fault_times = list(fault_times)
        self._by_vm = {incident.vm: incident for incident in self.incidents}
        if reprotections is None:
            records = [i.reprotection for i in self.incidents if i.reprotection]
            reprotections = sorted(
                (r for r in records if not r.failed), key=lambda r: r.ready_at
            ) + [r for r in records if r.failed]
        self.reprotections = list(reprotections)

    def __iter__(self):
        return iter(self.incidents)

    def __getitem__(self, vm: str) -> Incident:
        return self._by_vm[vm]

    def last_fault_before(self, when: float) -> Optional[float]:
        earlier = [t for t in self.fault_times if t <= when]
        return max(earlier) if earlier else None

    def resolved(self, outcome: Outcome) -> List[Incident]:
        """RECOVERED or FAILED_OVER incidents in completion order: the
        order their spans ended (ties keep stack order)."""
        incidents = [i for i in self if i.outcome is outcome]
        return sorted(incidents, key=lambda incident: incident.resumed_at)

    # -- counts --------------------------------------------------------------
    def count(self, outcome: Outcome) -> int:
        return sum(1 for incident in self if incident.outcome is outcome)

    @property
    def recovery_attempts(self) -> int:
        return sum(1 for i in self if i.recovery is not None and i.recovery.attempted)

    @property
    def failed_recoveries(self) -> int:
        return self.recovery_attempts - self.count(Outcome.RECOVERED)

    @property
    def reprotected(self) -> int:
        return sum(1 for record in self.reprotections if not record.failed)

    @property
    def failed_reprotections(self) -> int:
        return len(self.reprotections) - self.reprotected

    # -- per-VM figures ------------------------------------------------------
    def unprotected_windows(self) -> Dict[str, float]:
        """Detection -> redundancy restored, per re-protected VM."""
        return {
            r.vm_name: r.unprotected_window for r in self.reprotections if not r.failed
        }

    def resumption_times(self) -> Dict[str, float]:
        """Detection -> replica running (Fig. 7), per failed-over VM."""
        failed_over = self.resolved(Outcome.FAILED_OVER)
        return {i.vm: i.failover.resumption_time for i in failed_over}

    def recovery_blackouts(self) -> Dict[str, float]:
        """Detection -> guests running again, per VM recovered in place."""
        recovered = self.resolved(Outcome.RECOVERED)
        return {i.vm: i.recovery.blackout for i in recovered}

    def mttr(self) -> Dict[str, float]:
        """Fault -> service back: failovers, then in-place recoveries.

        A failover with no fault before its detection has no entry; a
        recovery without one counts from detection (its blackout).
        """
        mttr: Dict[str, float] = {}
        for outcome in (Outcome.FAILED_OVER, Outcome.RECOVERED):
            for incident in self.resolved(outcome):
                cause = self.last_fault_before(incident.resolution.detected_at)
                if cause is not None:
                    mttr[incident.vm] = incident.resumed_at - cause
                elif outcome is Outcome.RECOVERED:
                    mttr[incident.vm] = incident.recovery.blackout
        return mttr


def dark_from_last_fault(ledger: IncidentLedger) -> List[DarkInterval]:
    """The chaos rule: dark from the last fault before the incident.

    In-place recoveries first (completion order); then, in stack order,
    a failed-over VM until its replica ran, and any other VM whose
    primary is down until the end, from the trial's last fault.
    """

    def restored(incident: Incident, resumed_by: str) -> DarkInterval:
        detected = incident.resolution.detected_at
        cause = ledger.last_fault_before(detected)
        start = detected if cause is None else cause
        return DarkInterval(incident.vm, start, incident.resumed_at, resumed_by)

    dark = [restored(i, "recovery") for i in ledger.resolved(Outcome.RECOVERED)]
    end = ledger.end
    for incident in ledger:
        if incident.outcome is Outcome.FAILED_OVER:
            dark.append(restored(incident, "failover"))
        elif not incident.primary_alive:
            cause = ledger.last_fault_before(end)
            dark.append(DarkInterval(incident.vm, end if cause is None else cause, end))
    return dark


def dark_from_detection(ledger: IncidentLedger) -> List[DarkInterval]:
    """The fleet rule: dark from detection.

    Per shard, failovers first (a failed one until the end), then gates
    (an in-place recovery until the guests resumed, a pure
    recover-in-place loss until the end), each in stack order.
    """
    dark = []
    end = ledger.end
    for _shard, group in itertools.groupby(ledger, key=lambda i: i.shard):
        group = list(group)
        for incident in group:
            report = incident.failover
            if report is not None:
                dark.append(DarkInterval(
                    incident.vm, report.detected_at,
                    end if report.failed else report.activated_at,
                    None if report.failed else "failover",
                ))
        for incident in group:
            report = incident.recovery
            if report is not None and (report.recovered or not report.escalated):
                dark.append(DarkInterval(
                    incident.vm, report.detected_at,
                    report.resolved_at if report.recovered else end,
                    "recovery" if report.recovered else None,
                ))
    return dark


def downtime(dark: Sequence[DarkInterval]) -> float:
    """Dark seconds, added up in the order the rule listed them."""
    # A plain loop: Python 3.12's sum() compensates float rounding and
    # would move every fingerprint that carries nines.
    total = 0.0
    for interval in dark:
        total += interval.end - interval.start
    return total


def unpriced_blackouts(
    ledger: IncidentLedger, dark: Sequence[DarkInterval]
) -> Dict[str, List[Tuple[float, float]]]:
    """Dark-to-the-end intervals of VMs with no failover report: what a
    serving timeline, which prices failover and recovery spans itself,
    would otherwise miss."""
    extra: Dict[str, List[Tuple[float, float]]] = {}
    for interval in dark:
        if interval.resumed_by is None and ledger[interval.vm].failover is None:
            extra.setdefault(interval.vm, []).append((interval.start, interval.end))
    return extra
