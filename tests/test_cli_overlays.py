"""What the CLI builds from every overlay flag.

``repro chaos`` turns the ``--recovery-*``, ``--serving-*`` and
``--integrity``/``--scrub-*``/``--promote-*`` flags into the
microreboot, serving and integrity configs a campaign runs.  These
tests capture the campaign config before anything runs and pin the
effective overlay objects, so a change to how flags reach the configs
cannot silently move a default or drop a flag.
"""

import pytest

from repro.cli import main
from repro.hardware.units import GIB
from repro.integrity import IntegrityConfig
from repro.recovery import MicrorebootConfig
from repro.serving import ServingConfig


class Captured(Exception):
    """Raised instead of running the campaign (not a ValueError, so the
    CLI's clean-error handlers let it through)."""

    def __init__(self, config):
        super().__init__("campaign captured")
        self.config = config


class _Capture:
    def __init__(self, config, *args, **kwargs):
        self.config = config

    def run(self):
        raise Captured(self.config)


@pytest.fixture
def captured(monkeypatch):
    monkeypatch.setattr("repro.faults.ChaosCampaign", _Capture)
    monkeypatch.setattr("repro.fleet.FleetCampaign", _Capture)

    def build(*argv):
        with pytest.raises(Captured) as excinfo:
            main(["chaos", *argv])
        return excinfo.value.config

    return build


def effective(config):
    """The (microreboot, serving, integrity) overlays a config runs."""
    return config.microreboot, config.serving, config.integrity


class TestChaosOverlayFlags:
    def test_defaults(self, captured):
        microreboot, serving, integrity = effective(captured())
        assert microreboot == MicrorebootConfig()
        assert serving is None
        assert integrity is None

    def test_recovery_flags(self, captured):
        microreboot, _, _ = effective(captured(
            "--recovery-success-prob", "0.5",
            "--recovery-rebuild-min", "0.2",
            "--recovery-rebuild-max", "0.3",
            "--recovery-deadline", "4",
        ))
        assert microreboot == MicrorebootConfig.with_uniform_prob(
            0.5, rebuild_time_min=0.2, rebuild_time_max=0.3, deadline=4.0
        )

    def test_rebuild_flags_keep_the_per_class_probabilities(self, captured):
        microreboot, _, _ = effective(captured(
            "--recovery-rebuild-min", "0.1", "--recovery-deadline", "3",
        ))
        assert microreboot == MicrorebootConfig(
            rebuild_time_min=0.1, deadline=3.0
        )
        assert microreboot.success_prob("cve") == 0.76

    def test_serving_flags(self, captured):
        _, serving, _ = effective(captured(
            "--serving-users", "500",
            "--serving-rate-per-user", "0.03",
            "--serving-demand", "0.002",
            "--serving-slo", "0.2",
            "--serving-hedge", "0.4",
        ))
        assert serving == ServingConfig(
            users=500, rate_per_user=0.03, demand=0.002, slo=0.2, hedge=0.4
        )

    def test_serving_flags_without_users_leave_the_overlay_off(
        self, captured
    ):
        _, serving, _ = effective(captured("--serving-hedge", "0.4"))
        assert serving is None

    def test_integrity_flags(self, captured):
        _, _, integrity = effective(captured(
            "--integrity",
            "--scrub-interval", "0.5",
            "--scrub-bandwidth-gib", "1.5",
            "--promote-suspect-replicas",
        ))
        assert integrity == IntegrityConfig(
            scrub_interval=0.5,
            scrub_bandwidth=1.5 * GIB,
            refuse_failover=False,
        )

    def test_corruption_preset_arms_default_integrity(self, captured):
        _, _, integrity = effective(captured("--preset", "corruption"))
        assert integrity == IntegrityConfig()

    def test_scrub_flags_without_integrity_leave_the_overlay_off(
        self, captured
    ):
        _, _, integrity = effective(captured(
            "--scrub-interval", "0.5", "--promote-suspect-replicas",
        ))
        assert integrity is None


class TestFleetPresetOverlayFlags:
    def test_serving_flags_reach_the_fleet_campaign(self, captured):
        config = captured(
            "--preset", "fleet", "--serving-users", "600",
            "--serving-hedge", "0.3",
        )
        assert config.serving == ServingConfig(users=600, hedge=0.3)

    def test_fleet_serving_is_off_by_default(self, captured):
        assert captured("--preset", "fleet").serving is None
