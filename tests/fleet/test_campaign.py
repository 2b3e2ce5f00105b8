"""Seeded fleet campaigns: end-to-end runs and the determinism contract."""

import pytest

from repro.faults import FaultKind
from repro.fleet import FleetCampaign, FleetCampaignConfig, FleetSpec
from repro.hardware.units import MIB


def config(**kwargs):
    spec_kwargs = dict(
        zones=3,
        racks_per_zone=1,
        hosts_per_rack=2,
        spares=3,
        vms=6,
        vm_memory_bytes=128 * MIB,
        quantum=0.5,
        seed=7,
    )
    spec_kwargs.update(kwargs.pop("spec_kwargs", {}))
    defaults = dict(
        spec=FleetSpec(**spec_kwargs),
        settle_time=3.0,
        fault_window=4.0,
        recovery_time=25.0,
        faults=1,
    )
    defaults.update(kwargs)
    return FleetCampaignConfig(**defaults)


class TestConfigValidation:
    def test_needs_at_least_one_fault(self):
        with pytest.raises(ValueError, match="fault"):
            config(faults=0)

    def test_zone_and_rack_outages_cannot_mix(self):
        with pytest.raises(ValueError, match="pick one"):
            config(
                kinds=(FaultKind.ZONE_OUTAGE, FaultKind.RACK_OUTAGE)
            )

    @pytest.mark.parametrize(
        "outage",
        [(10.0, 5.0), (0.0, 5.0), (-1.0, 2.0), (1.0, float("inf"))],
    )
    def test_outage_duration_must_be_finite_and_ordered(self, outage):
        with pytest.raises(ValueError, match="outage_duration"):
            config(outage_duration=outage)

    def test_pair_scale_kinds_rejected(self):
        with pytest.raises(ValueError, match="domain/host power"):
            config(kinds=(FaultKind.LINK_PARTITION,))


class TestCampaignRun:
    def test_zone_outage_campaign_exercises_the_control_plane(self):
        result = FleetCampaign(config()).run()
        assert result.vms == 6
        assert result.shards >= 3
        assert result.faults_injected == 1
        assert "zone-outage" in result.fault_descriptions[0]
        # The outage took down at least one primary or secondary, so
        # the control plane had work to do...
        assert result.enqueued >= 1
        assert result.admitted >= 1
        # ...and every redundancy loss was resolved one way or another.
        assert result.reprotections + result.dropped_vms >= 1
        assert result.quanta_executed > 0
        assert result.events_processed > 0

    def test_merged_telemetry_spans_fleet_and_shards(self):
        result = FleetCampaign(config()).run()
        # fleet.quantum lives on the fleet bus, host.failure on shard
        # buses: both arriving proves the aggregator merged calendars.
        assert result.telemetry["fleet.quantum"] == result.quanta_executed
        assert result.telemetry["host.failure"] >= 1
        assert result.telemetry["fleet.reprotect.enqueued"] == result.enqueued

    def test_availability_accounting(self):
        result = FleetCampaign(config()).run()
        assert result.observed_seconds > 0
        assert result.downtime_seconds >= 0
        if result.failovers:
            assert result.downtime_seconds > 0

    def test_summary_rows_render(self):
        result = FleetCampaign(config()).run()
        rows = result.summary_rows()
        assert any("availability" in row["metric"] for row in rows)

    def test_rack_outage_campaign_runs(self):
        result = FleetCampaign(
            config(kinds=(FaultKind.RACK_OUTAGE,))
        ).run()
        assert result.faults_injected == 1
        assert "rack-outage" in result.fault_descriptions[0]


    def test_a_failover_after_a_secondary_loss_is_counted(self):
        # The first outage takes vm-0001's secondary, the second its
        # primary: the control loop has already re-queued the VM, and
        # the failover that follows fails (its secondary is down too).
        result = FleetCampaign(config(
            spec_kwargs=dict(spares=0, seed=0),
            settle_time=3.0, fault_window=3.0, recovery_time=20.0,
            faults=2, kinds=(FaultKind.ZONE_OUTAGE,),
        )).run()
        assert result.secondary_losses == 3
        assert (result.failovers, result.failed_failovers) == (3, 1)


class TestDeterminism:
    def test_same_seed_same_fingerprint(self):
        cfg = config()
        first = FleetCampaign(cfg).run().fingerprint()
        second = FleetCampaign(cfg).run().fingerprint()
        assert first == second

    def test_different_seed_differs(self):
        base = FleetCampaign(config()).run().fingerprint()
        other = FleetCampaign(
            config(spec_kwargs=dict(seed=8))
        ).run().fingerprint()
        assert base != other

    def test_metrics_are_flat_and_numeric(self):
        metrics = FleetCampaign(config()).run().metrics()
        assert all(isinstance(v, float) for v in metrics.values())
        assert "nines" in metrics and "enqueued" in metrics
