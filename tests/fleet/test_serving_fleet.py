"""The serving overlay at fleet scale: per-shard merge, opt-in only."""

import pytest

from repro.cluster.incidents import (
    Outcome,
    dark_from_detection,
    unpriced_blackouts,
)
from repro.fleet import FleetCampaign, FleetCampaignConfig, FleetSpec
from repro.hardware.units import MIB
from repro.serving import ServingConfig


def config(**kwargs):
    spec_kwargs = dict(
        zones=3,
        racks_per_zone=1,
        hosts_per_rack=2,
        spares=3,
        vms=6,
        vm_memory_bytes=128 * MIB,
        quantum=0.5,
        seed=11,
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


SERVING = dict(users=6_000, rate_per_user=0.02, demand=0.001, slo=0.1, hedge=0.5)


def serving_config(**kwargs):
    return config(serving=ServingConfig(**SERVING), **kwargs)


class TestConfigValidation:
    def test_bad_serving_knobs_rejected(self):
        for kwargs in (
            dict(users=-1),
            dict(rate_per_user=0.0),
            dict(demand=-1.0),
            dict(slo=0.0),
            dict(hedge=2.0),
        ):
            with pytest.raises(ValueError):
                config(serving=ServingConfig(**{**SERVING, **kwargs}))


class TestFleetServingOverlay:
    def test_opt_in_leaves_the_fleet_fingerprint_untouched(self):
        baseline = FleetCampaign(config()).run()
        served = FleetCampaign(serving_config()).run()
        assert baseline.serving is None
        assert not any(
            key.startswith("serving") for key in baseline.fingerprint()
        )
        core = {
            key: value
            for key, value in served.fingerprint().items()
            if not key.startswith("serving")
        }
        assert core == baseline.fingerprint()

    def test_overlay_spans_every_shard(self):
        result = FleetCampaign(serving_config()).run()
        report = result.serving
        assert report is not None
        assert report.requests > 1_000
        assert report.served + report.lost == report.requests
        # This seed's outage kills hosts: somebody was dark.
        assert report.violations > 0
        metrics = result.metrics()
        assert metrics["serving_requests"] == float(report.requests)
        assert any(
            row["metric"].startswith("serving")
            for row in result.summary_rows()
        )

    def test_same_seed_identical_fingerprint(self):
        first = FleetCampaign(serving_config()).run()
        second = FleetCampaign(serving_config()).run()
        assert first.fingerprint() == second.fingerprint()


class TestFleetSweep:
    def test_sweep_trial_matches_the_in_process_campaign(self):
        from dataclasses import asdict

        from repro.experiments import SweepRunner
        from repro.experiments.presets import fleet_sweep

        serving = ServingConfig(**SERVING)
        (spec,) = fleet_sweep(
            trials=1, seed=3, serving=serving,
            spec=dict(vm_memory_bytes=128 * MIB),
        )
        assert spec.params["serving"] == asdict(serving)
        (outcome,) = SweepRunner(jobs=1).run([spec]).outcomes
        assert outcome.ok, outcome.error
        params = dict(spec.params)
        direct = FleetCampaign(FleetCampaignConfig(
            spec=FleetSpec(**params.pop("spec")),
            **{**params, "serving": serving},
        )).run()
        assert direct.serving.requests > 0
        assert outcome.metrics["fingerprint"] == direct.fingerprint()


class TestDarkIsNotUnprotected:
    """Only the ledger's dark intervals cost requests."""

    def test_abandoned_reprotection_is_not_a_blackout(self):
        # With no spare pool, all four VMs the zone outage touches end
        # in ``dropped`` because their re-protection was abandoned.  Two
        # are secondary losses whose primaries were never hit; two
        # failed over and run on promoted replicas.  All four serve.
        campaign = FleetCampaign(FleetCampaignConfig(
            spec=FleetSpec(
                zones=3, racks_per_zone=1, hosts_per_rack=2, spares=0,
                vms=6, seed=1,
            ),
            recovery_time=30.0,
            serving=ServingConfig(users=600),
        ))
        report = campaign.run().serving
        dropped = campaign.orchestrator.dropped
        assert len(dropped) == 4
        assert all(
            reason.startswith("re-protection abandoned")
            for reason in dropped.values()
        )
        outcomes = [campaign.ledger[vm].outcome for vm in dropped]
        assert outcomes.count(None) == outcomes.count(Outcome.FAILED_OVER) == 2
        assert unpriced_blackouts(
            campaign.ledger, dark_from_detection(campaign.ledger)
        ) == {}
        assert report.served + report.lost == report.requests
        # Dark intervals for the four serving VMs would lose over half.
        assert report.lost < 0.1 * report.requests
