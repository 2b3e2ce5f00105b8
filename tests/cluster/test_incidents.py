"""The incident ledger: one outcome rule and two availability rules."""

import math

import pytest

from repro.cluster.incidents import (
    DarkInterval,
    Incident,
    IncidentLedger,
    Outcome,
    ReprotectionRecord,
    classify,
    dark_from_detection,
    dark_from_last_fault,
    downtime,
    unpriced_blackouts,
)
from repro.recovery import RecoveryPolicy
from repro.recovery.policy import RecoveryReport
from repro.replication.failover import FailoverReport


def failover(detected_at, activated_at, failed=False):
    return FailoverReport(
        reason="heartbeat",
        detected_at=detected_at,
        activated_at=activated_at,
        resumption_time=math.nan if failed else activated_at - detected_at,
        last_acked_epoch=1,
        dropped_packets=0,
        replica_host="kvm-0",
        replica_hypervisor="kvm",
        failed=failed,
    )


def gate(detected_at, resolved_at, recovered=False, escalated=False,
         attempted=True):
    return RecoveryReport(
        vm_name="",
        policy=RecoveryPolicy.HYBRID,
        reason="heartbeat",
        detected_at=detected_at,
        resolved_at=resolved_at,
        attempted=attempted,
        recovered=recovered,
        escalated=escalated,
        blackout=resolved_at - detected_at if recovered else math.nan,
        unprotected_window=resolved_at - detected_at if recovered else math.nan,
    )


def record(vm, ready_at, detected_at=0.0, failed=False):
    return ReprotectionRecord(
        vm_name=vm,
        shard_name="",
        detected_at=detected_at,
        ready_at=math.nan if failed else ready_at,
        unprotected_window=math.nan if failed else ready_at - detected_at,
        failed=failed,
    )


class TestClassify:
    @pytest.mark.parametrize("failover_report, recovery, outcome", [
        (None, None, None),
        (failover(1.0, 1.1), None, Outcome.FAILED_OVER),
        (failover(1.0, 1.1, failed=True), None, Outcome.FAILOVER_FAILED),
        (None, gate(1.0, 1.3, recovered=True), Outcome.RECOVERED),
        (None, gate(1.0, 3.0), Outcome.LOST_IN_PLACE),
        (None, gate(1.0, 1.0, attempted=False), Outcome.LOST_IN_PLACE),
        (None, gate(1.0, 3.0, escalated=True), Outcome.ESCALATED),
        (failover(3.0, 3.1), gate(1.0, 3.0, escalated=True),
         Outcome.FAILED_OVER),
        (failover(3.0, 3.0, failed=True), gate(1.0, 3.0, escalated=True),
         Outcome.FAILOVER_FAILED),
    ])
    def test_outcome_table(self, failover_report, recovery, outcome):
        assert classify(failover_report, recovery) is outcome
        assert Incident("vm", failover_report, recovery).outcome is outcome


def ledger(*incidents, faults=(), end=20.0, reprotections=None):
    return IncidentLedger(
        incidents, end=end, fault_times=faults, reprotections=reprotections
    )


class TestLedger:
    def test_counts(self):
        book = ledger(
            Incident("a", failover(5.0, 5.1)),
            Incident("b", failover(5.0, 5.0, failed=True)),
            Incident("c", None, gate(5.0, 5.4, recovered=True)),
            Incident("d", None, gate(5.0, 7.0)),
            Incident("e", failover(7.0, 7.1), gate(5.0, 7.0, escalated=True)),
            Incident("f", None, gate(5.0, 5.0, attempted=False)),
            Incident("g"),
        )
        assert book.count(Outcome.FAILED_OVER) == 2
        assert book.count(Outcome.FAILOVER_FAILED) == 1
        assert book.count(Outcome.RECOVERED) == 1
        assert book.count(Outcome.LOST_IN_PLACE) == 2
        assert book.recovery_attempts == 3
        assert book.failed_recoveries == 2
        assert len(book.incidents) == 7 and book["g"].outcome is None

    def test_windows_in_completion_order_failures_last(self):
        book = ledger(
            Incident("a", reprotection=record("a", 9.0)),
            Incident("b", reprotection=record("b", 0.0, failed=True)),
            Incident("c", reprotection=record("c", 6.0)),
        )
        assert list(book.unprotected_windows()) == ["c", "a"]
        assert [r.vm_name for r in book.reprotections] == ["c", "a", "b"]
        assert (book.reprotected, book.failed_reprotections) == (2, 1)

    def test_explicit_reprotections_keep_their_order(self):
        records = [record("a", 9.0), record("c", 6.0)]
        book = ledger(Incident("a"), Incident("c"), reprotections=records)
        assert list(book.unprotected_windows()) == ["a", "c"]

    def test_mttr_failovers_first_then_recoveries(self):
        book = ledger(
            Incident("r", None, gate(5.0, 5.5, recovered=True)),
            Incident("late", failover(6.0, 6.3)),
            Incident("early", failover(5.2, 5.25)),
            Incident("uncaused", failover(1.0, 1.1)),
            faults=(4.0, 5.9),
        )
        assert list(book.resumption_times()) == ["uncaused", "early", "late"]
        mttr = book.mttr()
        # A failover with no fault before its detection has no MTTR.
        assert list(mttr) == ["early", "late", "r"]
        assert mttr["early"] == 5.25 - 4.0
        assert mttr["late"] == 6.3 - 5.9
        assert mttr["r"] == 5.5 - 4.0
        assert book.recovery_blackouts() == {"r": 0.5}


class TestChaosRule:
    def test_dark_from_the_last_fault(self):
        book = ledger(
            Incident("fo", failover(5.2, 5.3), primary_alive=False),
            Incident("dead", None, gate(5.0, 7.0), primary_alive=False),
            Incident("ok"),
            Incident("in-place", None, gate(5.0, 5.4, recovered=True)),
            faults=(5.0, 8.0),
        )
        dark = dark_from_last_fault(book)
        assert dark == [
            DarkInterval("in-place", 5.0, 5.4, "recovery"),
            DarkInterval("fo", 5.0, 5.3, "failover"),
            DarkInterval("dead", 8.0, 20.0),
        ]
        assert downtime(dark) == ((0.0 + (5.4 - 5.0)) + (5.3 - 5.0)) + 12.0
        assert unpriced_blackouts(book, dark) == {"dead": [(8.0, 20.0)]}

    def test_a_failed_failover_is_priced_by_its_span(self):
        book = ledger(
            Incident("x", failover(5.2, 5.2, failed=True),
                     primary_alive=False),
            faults=(5.0,),
        )
        dark = dark_from_last_fault(book)
        assert dark == [DarkInterval("x", 5.0, 20.0)]
        assert unpriced_blackouts(book, dark) == {}


class TestFleetRule:
    def test_dark_from_detection_per_shard(self):
        book = ledger(
            Incident("a", None, gate(5.0, 5.4, recovered=True), shard="s1"),
            Incident("b", failover(5.1, 5.2), shard="s1"),
            Incident("c", None, gate(6.0, 6.0, attempted=False), shard="s2"),
            Incident("d", failover(6.1, 6.1, failed=True), shard="s2"),
            faults=(4.0,),
        )
        assert dark_from_detection(book) == [
            DarkInterval("b", 5.1, 5.2, "failover"),
            DarkInterval("a", 5.0, 5.4, "recovery"),
            DarkInterval("d", 6.1, 20.0),
            DarkInterval("c", 6.0, 20.0),
        ]
        assert unpriced_blackouts(book, dark_from_detection(book)) == {
            "c": [(6.0, 20.0)]
        }
