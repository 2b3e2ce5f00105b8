"""The serving overlay riding on chaos campaigns: strictly opt-in."""

import pytest

from repro.faults import CampaignConfig, ChaosCampaign
from repro.serving import ServingConfig


def fast_config(**overrides):
    defaults = dict(
        trials=1,
        seed=7,
        vms=1,
        kvm_hosts=1,
        settle_time=2.0,
        fault_window=2.0,
        recovery_time=20.0,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


SERVING = dict(users=5_000, rate_per_user=0.02, demand=0.001, slo=0.1, hedge=0.5)


def serving_config(**overrides):
    return fast_config(serving=ServingConfig(**SERVING), **overrides)


class TestConfigValidation:
    def test_bad_serving_knobs_rejected(self):
        for kwargs in (
            dict(users=-1),
            dict(rate_per_user=0.0),
            dict(demand=0.0),
            dict(slo=0.0),
            dict(hedge=1.5),
        ):
            with pytest.raises(ValueError):
                fast_config(serving=ServingConfig(**{**SERVING, **kwargs}))

    def test_none_disables_the_overlay(self):
        assert fast_config().serving is None
        assert serving_config().serving == ServingConfig(**SERVING)
        # Zero users is not a second spelling of "off".
        with pytest.raises(ValueError):
            ServingConfig(users=0)


class TestOptInContract:
    def test_disabled_fingerprint_has_no_serving_keys(self):
        result = ChaosCampaign(fast_config()).run()
        assert not any(
            key.startswith("serving") for key in result.fingerprint()
        )
        assert result.serving_report() is None

    def test_overlay_never_perturbs_the_simulation(self):
        # The same seed with and without serving: every non-serving
        # fingerprint key must be bit-identical, because the overlay
        # only *reads* telemetry after the trial ran.
        baseline = ChaosCampaign(fast_config()).run().fingerprint()
        with_serving = ChaosCampaign(serving_config()).run().fingerprint()
        core = {
            key: value
            for key, value in with_serving.items()
            if not key.startswith("serving")
        }
        assert core == baseline


class TestServingCampaign:
    def test_same_seed_identical_fingerprint(self):
        first = ChaosCampaign(serving_config()).run()
        second = ChaosCampaign(serving_config()).run()
        assert first.fingerprint() == second.fingerprint()

    def test_report_pools_trials(self):
        result = ChaosCampaign(serving_config(trials=2)).run()
        report = result.serving_report()
        assert report.requests == sum(
            trial.serving_requests for trial in result.trials
        )
        assert report.requests > 0
        assert report.served + report.lost == report.requests
        assert report.histogram.count == report.served
        fingerprint = result.fingerprint()
        assert fingerprint["serving_requests"] == report.requests

    def test_trial_round_trips_through_dicts(self):
        from dataclasses import asdict

        from repro.faults.campaign import TrialResult

        result = ChaosCampaign(serving_config()).run()
        trial = result.trials[0]
        clone = TrialResult(**asdict(trial))
        assert clone.serving_requests == trial.serving_requests
        assert clone.serving_histogram == trial.serving_histogram

    def test_summary_rows_gain_serving_metrics(self):
        plain_rows = ChaosCampaign(fast_config()).run().summary_rows()
        serving_rows = ChaosCampaign(serving_config()).run().summary_rows()
        plain = {row["metric"] for row in plain_rows}
        serving = {row["metric"] for row in serving_rows}
        assert "serving p999 (s)" in serving - plain
        assert "serving requests" in serving - plain
