"""Declarative description of a fleet-scale protection run.

A :class:`FleetSpec` describes the datacenter the
:class:`~repro.fleet.orchestrator.FleetOrchestrator` materializes: a
zone/rack grid of alternating Xen and KVM hosts, a spare pool spread
across zones, the protected VM population, and the knobs the control
plane runs with (quantum, SLO, checkpoint interval).  Everything
downstream — topology labels, planner constraints, shard layout — is
derived deterministically from this one value plus the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..hardware.units import GIB, MIB
from ..integrity.config import IntegrityConfig


@dataclass(frozen=True)
class FleetSpec:
    """The fleet the orchestrator stands up."""

    #: Failure-domain grid: ``zones`` x ``racks_per_zone`` racks, each
    #: holding ``hosts_per_rack`` hosts of alternating flavor (even
    #: slots Xen, odd slots KVM).
    zones: int = 3
    racks_per_zone: int = 2
    hosts_per_rack: int = 2
    #: Extra hosts reserved for re-protection, round-robined across
    #: zones with alternating flavor (even Xen, odd KVM) so every
    #: promoted primary can find a heterogeneous, anti-affine spare.
    spares: int = 2
    #: Protected VMs, primaried round-robin across the grid's Xen hosts.
    vms: int = 8
    vm_memory_bytes: int = 256 * MIB
    host_memory_bytes: int = 64 * GIB
    #: Lockstep quantum of the sharded kernel — also the cadence of the
    #: fleet control loop (observe / decide / drain).
    quantum: float = 0.5
    seed: int = 0
    # -- replication knobs ---------------------------------------------------
    t_max: float = 2.0
    target_degradation: float = 0.0
    checkpoint_threads: int = 4
    heartbeat_interval: float = 0.25
    miss_threshold: int = 3
    # -- planner constraints -------------------------------------------------
    anti_affinity: str = "zone"
    max_vms_per_link: Optional[int] = None
    #: Backoff before a re-protection whose planning (or re-seed)
    #: failed is retried — long enough for a transient outage to
    #: revert instead of burning every retry while the domain is dark.
    reprotect_retry_delay: float = 2.0
    #: The availability fraction the feedback controller defends
    #: (0.999 = "three nines"); it widens re-protection admission and
    #: tightens checkpoint intervals when the fleet falls below it.
    availability_slo: float = 0.999
    # -- integrity overlay ---------------------------------------------------
    #: The checkpoint-integrity overlay (epoch attestation, background
    #: replica scrubbing, repair escalation) every engine runs,
    #: including re-protection re-seeds.  None — the historical
    #: default — adds no stages and no draws, so existing fleet
    #: fingerprints are unchanged.  ``True``/``False`` are accepted as
    #: shorthand for ``IntegrityConfig()``/``None``.
    integrity: Optional[IntegrityConfig] = None
    # -- recovery knobs ------------------------------------------------------
    #: Fleet-wide answer to a dead primary hypervisor: ``"failover"``
    #: (the historical default), ``"recover-in-place"`` or ``"hybrid"``
    #: (see :class:`~repro.recovery.spec.RecoveryPolicy`).
    recovery_policy: str = "failover"
    #: Per-zone overrides as ``(zone, policy)`` pairs — e.g. run
    #: ``hybrid`` fleet-wide but keep a canary zone on pure failover.
    zone_recovery_policies: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self):
        if isinstance(self.integrity, bool):
            object.__setattr__(
                self, "integrity", IntegrityConfig() if self.integrity else None
            )
        for name in ("zones", "racks_per_zone", "hosts_per_rack", "vms"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1: {getattr(self, name)}")
        if self.spares < 0:
            raise ValueError(f"spares must be >= 0: {self.spares}")
        if self.quantum <= 0:
            raise ValueError(f"quantum must be positive: {self.quantum}")
        if self.vm_memory_bytes <= 0:
            raise ValueError("vm_memory_bytes must be positive")
        if self.reprotect_retry_delay < 0:
            raise ValueError(
                f"reprotect_retry_delay must be >= 0: "
                f"{self.reprotect_retry_delay}"
            )
        if not 0.0 < self.availability_slo < 1.0:
            raise ValueError(
                f"availability_slo must be in (0, 1): {self.availability_slo}"
            )
        if self.grid_xen_hosts == 0:
            raise ValueError(
                "the grid has no Xen hosts to primary VMs on — "
                "hosts_per_rack must include even (Xen) slots"
            )
        from ..recovery import RecoveryPolicy

        RecoveryPolicy.parse(self.recovery_policy)
        zones = set(self.zone_names)
        for zone, policy in self.zone_recovery_policies:
            if zone not in zones:
                raise ValueError(
                    f"zone_recovery_policies names unknown zone {zone!r}; "
                    f"the grid has {sorted(zones)}"
                )
            RecoveryPolicy.parse(policy)

    # -- derived layout ------------------------------------------------------
    @property
    def grid_hosts(self) -> List[Tuple[str, str, str, str]]:
        """Every grid host as ``(name, flavor, zone, rack)``."""
        hosts = []
        for z in range(self.zones):
            for r in range(self.racks_per_zone):
                for n in range(self.hosts_per_rack):
                    flavor = "xen" if n % 2 == 0 else "kvm"
                    hosts.append(
                        (
                            f"{flavor}-z{z}r{r}n{n}",
                            flavor,
                            f"z{z}",
                            f"r{r}",
                        )
                    )
        return hosts

    @property
    def spare_hosts(self) -> List[Tuple[str, str, str, str]]:
        """Spare-pool hosts as ``(name, flavor, zone, rack)``."""
        hosts = []
        for i in range(self.spares):
            flavor = "xen" if i % 2 == 0 else "kvm"
            zone = f"z{i % self.zones}"
            hosts.append((f"spare-{flavor}-{i}", flavor, zone, "spare"))
        return hosts

    @property
    def grid_xen_hosts(self) -> int:
        return sum(1 for _, flavor, _, _ in self.grid_hosts if flavor == "xen")

    @property
    def total_hosts(self) -> int:
        return len(self.grid_hosts) + len(self.spare_hosts)

    @property
    def zone_names(self) -> List[str]:
        return [f"z{z}" for z in range(self.zones)]

    def policy_for_zone(self, zone: str) -> str:
        """The recovery policy VMs primaried in ``zone`` run under."""
        for name, policy in self.zone_recovery_policies:
            if name == zone:
                return policy
        return self.recovery_policy
