"""Fault injection, adaptive detection, and automated re-protection.

The robustness layer the paper's argument needs end-to-end: declarative
fault specifications (:mod:`repro.faults.spec`) executed by a
:class:`FaultInjector` against hosts, hypervisors, guests and links; an
adaptive phi-accrual failure detector interchangeable with the fixed
heartbeat (:mod:`repro.faults.detection`); a
:class:`ReprotectionController` that re-seeds a fresh backup on a spare
host after failover and measures the *unprotected window*
(:mod:`repro.faults.reprotect`); and a seeded chaos-campaign runner
aggregating MTTR, unprotected time, dropped VMs and availability nines
from the telemetry bus (:mod:`repro.faults.campaign`, the ``repro
chaos`` CLI subcommand).
"""

from .campaign import CampaignConfig, CampaignResult, ChaosCampaign, TrialResult
from .detection import PhiAccrualDetector, phi_from_normal
from .injector import FaultInjector
from .reprotect import ReprotectionController
from .spec import (
    CORRUPTION_KINDS,
    FaultKind,
    FaultSchedule,
    FaultSpec,
    HOST_KINDS,
    InjectedFault,
    LINK_KINDS,
    TRANSIENT_KINDS,
    VM_KINDS,
    ZONE_KINDS,
)

__all__ = [
    "CORRUPTION_KINDS",
    "CampaignConfig",
    "CampaignResult",
    "ChaosCampaign",
    "FaultInjector",
    "FaultKind",
    "FaultSchedule",
    "FaultSpec",
    "HOST_KINDS",
    "InjectedFault",
    "LINK_KINDS",
    "PhiAccrualDetector",
    "ReprotectionController",
    "TRANSIENT_KINDS",
    "TrialResult",
    "VM_KINDS",
    "ZONE_KINDS",
    "phi_from_normal",
]
