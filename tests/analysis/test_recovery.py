"""Recovery-policy analysis helpers."""

import math

import pytest

from repro.analysis import (
    blackout_comparison,
    expected_blackout,
    nines_per_policy,
    policy_comparison_rows,
    recovery_success_rate,
)


class TestSuccessRate:
    def test_fraction_of_attempts(self):
        assert recovery_success_rate(3, 4) == pytest.approx(0.75)

    def test_no_attempts_is_nan_not_zero(self):
        assert math.isnan(recovery_success_rate(0, 0))

    @pytest.mark.parametrize("args", [(-1, 2), (2, -1), (5, 4)])
    def test_validation(self, args):
        with pytest.raises(ValueError):
            recovery_success_rate(*args)


class TestExpectedBlackout:
    def test_certain_success_costs_only_the_blackout(self):
        assert expected_blackout(1.0, 0.4, 2.0) == pytest.approx(0.4)

    def test_failure_branch_adds_the_failover_mttr(self):
        # p=0.5: blackout always paid, failover MTTR half the time.
        assert expected_blackout(0.5, 0.4, 2.0) == pytest.approx(1.4)

    @pytest.mark.parametrize(
        "args", [(1.5, 0.4, 2.0), (0.5, -0.1, 2.0), (0.5, 0.4, -2.0)]
    )
    def test_validation(self, args):
        with pytest.raises(ValueError):
            expected_blackout(*args)


class TestBlackoutComparison:
    def test_pure_policy_prices_failure_as_unbounded(self):
        rows = {r["policy"]: r for r in blackout_comparison(0.8, 0.4, 2.0)}
        assert rows["recover-in-place"]["expected_blackout_s"] == math.inf
        assert rows["recover-in-place"]["vm_survives"] == pytest.approx(0.8)
        assert rows["failover"]["vm_survives"] == 1.0
        assert rows["hybrid"]["vm_survives"] == 1.0
        assert rows["hybrid"]["expected_blackout_s"] == pytest.approx(0.8)

    def test_certain_success_collapses_the_policies(self):
        rows = {r["policy"]: r for r in blackout_comparison(1.0, 0.4, 2.0)}
        assert rows["recover-in-place"]["expected_blackout_s"] == (
            pytest.approx(0.4)
        )
        assert rows["hybrid"]["expected_blackout_s"] == pytest.approx(0.4)


class TestPolicyComparisonRows:
    def test_rows_from_same_seed_campaigns(self):
        from repro.faults import CampaignConfig, ChaosCampaign, FaultKind
        from repro.recovery import MicrorebootConfig

        def run(policy):
            return ChaosCampaign(CampaignConfig(
                trials=1, seed=29, vms=1, kvm_hosts=1,
                settle_time=2.0, fault_window=2.0, recovery_time=20.0,
                kinds=(FaultKind.HYPERVISOR_CRASH,),
                recovery_policy=policy,
                microreboot=MicrorebootConfig.with_uniform_prob(1.0),
            )).run()

        rows = policy_comparison_rows({
            "failover": run("failover"),
            "hybrid": run("hybrid"),
        })
        by_policy = {row["policy"]: row for row in rows}
        assert by_policy["failover"]["recoveries"] == 0
        assert math.isnan(by_policy["failover"]["recovery_success_rate"])
        assert by_policy["hybrid"]["recoveries"] == 1
        assert by_policy["hybrid"]["failovers"] == 0
        assert (
            by_policy["hybrid"]["mean_unprotected_window_s"]
            < by_policy["failover"]["mean_unprotected_window_s"]
        )


class TestNinesPerPolicy:
    def test_less_downtime_is_more_nines(self):
        nines = nines_per_policy(
            {"failover": 10.0, "hybrid": 1.0}, observed_seconds=10_000.0
        )
        assert nines["hybrid"] > nines["failover"]

    def test_observed_span_must_be_positive(self):
        with pytest.raises(ValueError):
            nines_per_policy({"failover": 1.0}, observed_seconds=0.0)
