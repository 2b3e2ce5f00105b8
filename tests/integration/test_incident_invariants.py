"""Incident-ledger invariants over a small overlay matrix.

Every cell runs one seeded campaign and checks, against the ledger it
harvested, that:

* each VM's dark intervals lie inside the observed window and do not
  overlap;
* ``downtime_seconds`` is exactly the campaign's named availability
  rule applied to the ledger (chaos: dark from the last fault; fleet:
  dark from detection);
* the ledger's counts are the fingerprint's counts;
* with serving on, served + lost = requests.
"""

import itertools

import pytest

from repro.cluster.incidents import (
    Outcome,
    dark_from_detection,
    dark_from_last_fault,
    downtime,
)
from repro.faults import CampaignConfig, CampaignResult, ChaosCampaign, FaultKind
from repro.fleet import FleetCampaign, FleetCampaignConfig, FleetSpec
from repro.hardware.units import MIB
from repro.serving import ServingConfig

SERVING = ServingConfig(users=2_000, rate_per_user=0.02, demand=0.001)


def assert_intervals_tile_inside(dark, start, end):
    per_vm = {}
    for interval in dark:
        assert start <= interval.start <= interval.end <= end, interval
        per_vm.setdefault(interval.vm, []).append(interval)
    for intervals in per_vm.values():
        intervals.sort(key=lambda interval: interval.start)
        for earlier, later in zip(intervals, intervals[1:]):
            assert earlier.end <= later.start, (earlier, later)


def assert_serving_adds_up(report):
    assert report.requests > 0
    assert report.served + report.lost == report.requests


#: Seed 3 draws a host crash first (lost in place, or failed over);
#: seed 7 a hypervisor hang, then a host crash after the recovery.
CHAOS_CELLS = [
    (policy, integrity, detector, None, seed)
    for policy, integrity, detector, seed in itertools.product(
        ("failover", "recover-in-place", "hybrid"),
        (False, True),
        ("heartbeat", "phi"),
        (3, 7),
    )
] + [("hybrid", False, "heartbeat", SERVING, 7)]


@pytest.mark.parametrize(
    "policy, integrity, detector, serving, seed", CHAOS_CELLS
)
def test_chaos_ledger_invariants(policy, integrity, detector, serving, seed):
    campaign = ChaosCampaign(CampaignConfig(
        trials=1,
        seed=seed,
        vms=2,
        faults_per_trial=2,
        settle_time=2.0,
        fault_window=3.0,
        recovery_time=10.0,
        detector=detector,
        recovery_policy=policy,
        integrity=integrity,
        serving=serving,
    ))
    trial = campaign.run_trial(0)
    ledger = campaign.ledger
    dark = dark_from_last_fault(ledger)
    start = ledger.end - trial.observed_seconds / len(ledger.incidents)
    assert_intervals_tile_inside(dark, start - 1e-9, ledger.end)
    assert trial.downtime_seconds == downtime(dark)

    result = CampaignResult(config=campaign.config, trials=[trial])
    fingerprint = result.fingerprint()
    assert fingerprint["failovers"] == ledger.count(Outcome.FAILED_OVER)
    assert trial.failed_failovers == ledger.count(Outcome.FAILOVER_FAILED)
    assert fingerprint["recoveries"] == ledger.count(Outcome.RECOVERED)
    assert fingerprint["failed_recoveries"] == ledger.failed_recoveries
    assert fingerprint["reprotections"] == ledger.reprotected
    assert fingerprint["dropped_vms"] == sum(
        1 for interval in dark if interval.resumed_by is None
    )
    if serving is not None:
        assert_serving_adds_up(result.serving_report())


#: Seed 5's second zone outage kills the primary of a VM whose
#: secondary the first one took; seed 1 has a failed microreboot that
#: falls back to failover next to in-place recoveries.
@pytest.mark.parametrize("policy, kind, seed", [
    ("failover", FaultKind.ZONE_OUTAGE, 5),
    ("hybrid", FaultKind.HYPERVISOR_CRASH, 1),
])
def test_fleet_ledger_invariants(policy, kind, seed):
    campaign = FleetCampaign(FleetCampaignConfig(
        spec=FleetSpec(
            zones=3,
            racks_per_zone=1,
            hosts_per_rack=2,
            spares=2,
            vms=6,
            vm_memory_bytes=128 * MIB,
            seed=seed,
            recovery_policy=policy,
        ),
        settle_time=3.0,
        fault_window=3.0,
        recovery_time=15.0,
        faults=2,
        kinds=(kind,),
        serving=SERVING,
    ))
    result = campaign.run()
    ledger = campaign.ledger
    dark = dark_from_detection(ledger)
    start = ledger.end - result.observed_seconds / result.vms
    assert_intervals_tile_inside(dark, start - 1e-9, ledger.end)
    assert result.downtime_seconds == downtime(dark)

    fingerprint = result.fingerprint()
    assert fingerprint["failovers"] == ledger.count(Outcome.FAILED_OVER)
    assert fingerprint["failed_failovers"] == ledger.count(
        Outcome.FAILOVER_FAILED
    )
    assert fingerprint["recoveries"] == ledger.count(Outcome.RECOVERED)
    assert fingerprint["failed_recoveries"] == ledger.failed_recoveries
    assert fingerprint["reprotections"] == ledger.reprotected
    assert fingerprint["failed_reprotections"] == (
        ledger.failed_reprotections
    )
    assert_serving_adds_up(result.serving)
    # Something happened: the cell is not vacuous.
    assert any(incident.outcome is not None for incident in ledger)
