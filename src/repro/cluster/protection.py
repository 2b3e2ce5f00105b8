"""One protection stack: the chain that keeps one replicated VM alive.

Detector -> recovery gate -> failover -> re-protection, built here and
nowhere else (DESIGN §20).  The :mod:`repro.faults` parts are imported
on use: ``repro.faults`` imports the chaos campaign, which imports
:mod:`repro.cluster.deployment`, which builds its chain here.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..hardware.link import Link
from ..hypervisor.base import Hypervisor
from ..recovery import (
    MicrorebootConfig,
    MicrorebootEngine,
    RecoveryController,
    RecoveryPolicy,
)
from ..replication.colo import ColoEngine
from ..replication.failover import FailoverController
from ..replication.heartbeat import HeartbeatMonitor
from ..replication.transport import DegradationController


def _microreboot_for(
    sim, hypervisor: Hypervisor, config: Optional[MicrorebootConfig]
) -> MicrorebootEngine:
    """The one engine every gate on ``hypervisor`` shares, so co-located
    VMs join one attempt per outage; created on first use."""
    config = config or MicrorebootConfig()
    engine = hypervisor.microreboot
    if engine is None:
        return MicrorebootEngine(sim, hypervisor, config=config)
    if engine.config != config:
        raise ValueError(
            f"hypervisor {hypervisor.host.name!r} already has a microreboot "
            f"engine with a different config: {engine.config}"
        )
    return engine


class ProtectionStack:
    """Detector -> recovery gate -> failover -> re-protection for one VM.

    ``detector`` picks heartbeat or phi-accrual; the engine's hardened
    transport adds its loss signal to the heartbeat and the degradation
    ladder (the transport exists once the engine has started, so a
    stack built earlier has neither); a ``policy`` other than failover
    adds the recovery gate; a COLO engine gets no failover; ``spares``
    add re-protection.
    """

    def __init__(
        self,
        sim,
        engine,
        *,
        interval: float = 0.03,
        miss_threshold: int = 3,
        detector: str = "heartbeat",
        degraded_miss_threshold: Optional[int] = None,
        policy=RecoveryPolicy.FAILOVER,
        microreboot: Optional[MicrorebootConfig] = None,
        replica_service_link: Optional[Link] = None,
        spares: Sequence[Hypervisor] = (),
        target_degradation: float = 0.3,
        t_max: float = 5.0,
    ):
        self.engine = engine
        transport = getattr(engine, "transport", None)
        lossy = transport.link_appears_lossy if transport is not None else None
        probed = (sim, engine.primary.host, engine.primary, engine.link)
        if detector == "heartbeat":
            self.monitor = HeartbeatMonitor(
                *probed,
                interval=interval,
                miss_threshold=miss_threshold,
                degraded_miss_threshold=degraded_miss_threshold,
                loss_signal=lossy,
            )
        elif detector == "phi":
            from ..faults.detection import PhiAccrualDetector

            self.monitor = PhiAccrualDetector(*probed, interval=interval)
        else:
            raise ValueError(
                f"unknown detector {detector!r}; expected 'heartbeat' or 'phi'"
            )
        self.degradation: Optional[DegradationController] = None
        if transport is not None:
            self.degradation = DegradationController(sim, engine)
        self.gate: Optional[RecoveryController] = None
        policy = RecoveryPolicy.parse(policy)
        if policy is not RecoveryPolicy.FAILOVER:
            self.gate = RecoveryController(
                sim,
                engine,
                self.monitor,
                _microreboot_for(sim, engine.primary, microreboot),
                policy=policy,
            )
        self.failover: Optional[FailoverController] = None
        if not isinstance(engine, ColoEngine):
            self.failover = FailoverController(
                sim,
                engine,
                self.gate if self.gate is not None else self.monitor,
                replica_service_link=replica_service_link,
            )
        self.reprotection = None
        if spares:
            from ..faults.reprotect import ReprotectionController

            self.reprotection = ReprotectionController(
                sim,
                self.failover,
                spares=spares,
                target_degradation=target_degradation,
                t_max=t_max,
            )

    @property
    def primary_alive(self) -> bool:
        """True while the primary VM runs on an up, responsive host."""
        engine = self.engine
        return (
            engine.vm is not None
            and not engine.vm.is_destroyed
            and engine.primary.host.is_up
            and engine.primary.is_responsive
        )

    def start(self) -> None:
        """Monitor -> degradation -> gate -> failover -> re-protection."""
        self.monitor.start()
        for part in (self.degradation, self.gate):
            if part is not None:
                part.start()
        for part in (self.failover, self.reprotection):
            if part is not None:
                part.arm()

    def stop(self, reason: str = "protection stopped") -> None:
        """Stop degradation -> gate -> monitor; halt a re-seeded engine.

        The protected engine belongs to the caller and keeps running.
        """
        for part in (self.degradation, self.gate, self.monitor):
            if part is not None:
                part.stop()
        reprotection = self.reprotection
        if reprotection is not None and reprotection.engine is not None:
            reprotection.engine.halt(reason)
