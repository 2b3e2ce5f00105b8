"""The five-way strategy study, on a deliberately small population."""

import math

import pytest

from repro.recovery import MicrorebootConfig
from repro.serving import (
    STRATEGIES,
    ServingConfig,
    ServingStudy,
    StudyConfig,
    study_fingerprint,
)


def small_config(**overrides):
    defaults = dict(
        serving=ServingConfig(
            users=2_000, rate_per_user=0.05, demand=0.001, slo=0.1,
            hedge=0.5,
        ),
        seed=3,
        duration=4.0,
        crash_at=2.0,
    )
    defaults.update(overrides)
    return StudyConfig(**defaults)


class TestStudyConfig:
    def test_validation(self):
        for kwargs in (
            dict(duration=0.0),
            dict(crash_at=5.0),  # at/after the 4s window
            dict(restart_min=0.0),
            dict(restart_min=3.0, restart_max=2.0),
        ):
            with pytest.raises(ValueError):
                small_config(**kwargs)
        with pytest.raises(ValueError):
            small_config(microreboot=MicrorebootConfig.with_uniform_prob(1.5))

    def test_hybrid_recovery_always_recovers_by_default(self):
        assert small_config().microreboot == (
            MicrorebootConfig.with_uniform_prob(1.0)
        )


class TestRunStrategy:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            ServingStudy(small_config()).run_strategy("raid0")

    def test_here_strategy_is_deterministic(self):
        study = ServingStudy(small_config())
        first = study.run_strategy("here")
        second = ServingStudy(small_config()).run_strategy("here")
        assert first.fingerprint() == second.fingerprint()
        assert first.report.requests > 100
        assert first.report.served + first.report.lost == (
            first.report.requests
        )
        # hedge > 0 in the config: the hedged twin report exists and
        # covers the same arrival stream.
        assert first.hedged_report is not None
        assert first.hedged_report.requests == first.report.requests
        assert math.isfinite(first.crash_time)
        assert math.isfinite(first.detection_time)

    def test_failover_baseline_pays_a_blackout(self):
        outcome = ServingStudy(small_config()).run_strategy("failover")
        assert outcome.report.lost > 0
        # Detection plus the seeded cold restart (>= restart_min).
        assert outcome.blackout > small_config().restart_min
        # Nobody replicates: no replica, so hedging rescues nothing.
        assert outcome.hedged_report.rescued == 0

    def test_hedge_zero_skips_the_hedged_report(self):
        config = small_config(
            serving=ServingConfig(
                users=2_000, rate_per_user=0.05, demand=0.001, slo=0.1
            )
        )
        outcome = ServingStudy(config).run_strategy("here")
        assert outcome.hedged_report is None
        assert "hedged_p999" not in outcome.fingerprint()


class TestStudyFingerprint:
    def test_covers_every_strategy(self):
        # run() is five full simulations; keep the population tiny.
        outcomes = ServingStudy(small_config()).run()
        fingerprint = study_fingerprint(outcomes)
        assert set(fingerprint) == set(STRATEGIES)
        for strategy in STRATEGIES:
            assert fingerprint[strategy]["requests"] > 0
