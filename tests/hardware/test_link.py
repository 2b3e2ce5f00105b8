"""Fair-share link behaviour."""

import pytest

from repro.hardware import Link, LinkPair, omnipath_hfi100, custom_nic
from repro.simkernel import Simulation


@pytest.fixture
def sim():
    return Simulation(seed=0)


def finish(sim, event, limit=1e9):
    return sim.run_until_triggered(event, limit=limit)


class TestSingleTransfer:
    def test_duration_is_serialisation_plus_latency(self, sim):
        nic = omnipath_hfi100()  # 12.5 GB/s
        link = Link(sim, nic)
        done = link.transfer(12.5e9)  # exactly one second of wire time
        duration = finish(sim, done)
        assert duration == pytest.approx(1.0 + nic.base_latency_s, rel=1e-6)

    def test_zero_byte_transfer_costs_only_latency(self, sim):
        nic = omnipath_hfi100()
        link = Link(sim, nic)
        duration = finish(sim, link.transfer(0))
        assert duration == pytest.approx(nic.base_latency_s)

    def test_negative_size_rejected(self, sim):
        link = Link(sim, omnipath_hfi100())
        with pytest.raises(ValueError):
            link.transfer(-1)

    def test_statistics(self, sim):
        link = Link(sim, omnipath_hfi100())
        finish(sim, link.transfer(1e9))
        assert link.transfers_completed == 1
        assert link.bytes_delivered == pytest.approx(1e9)


class TestFairSharing:
    def test_two_equal_transfers_each_take_twice_as_long(self, sim):
        nic = custom_nic("test", gbits=0.8, latency_us=0)  # 0.1 GB/s... 0.8 Gbit
        link = Link(sim, nic)
        # capacity = 0.8 Gbit/s = 1e8 B/s; two concurrent 1e8 B transfers
        done_a = link.transfer(1e8)
        done_b = link.transfer(1e8)
        time_a = finish(sim, done_a)
        time_b = finish(sim, done_b)
        # Alone each would take 1 s; sharing makes both take ~2 s.
        assert time_a == pytest.approx(2.0, rel=1e-6)
        assert time_b == pytest.approx(2.0, rel=1e-6)

    def test_late_joiner_slows_first_transfer(self, sim):
        nic = custom_nic("test", gbits=0.8, latency_us=0)
        link = Link(sim, nic)
        done_first = link.transfer(1e8)  # alone: 1 s

        def joiner():
            yield sim.timeout(0.5)
            done_second = link.transfer(1e8)
            second = yield done_second
            return second

        join_process = sim.process(joiner())
        first = finish(sim, done_first)
        # First: 0.5 s alone (50 MB left... 50e6 at half rate -> 1 s more)
        assert first == pytest.approx(1.5, rel=1e-6)
        second = finish(sim, join_process)
        # Second transfer: shared from 0.5 s to 1.5 s (moves 5e7 bytes),
        # then alone for the remaining 5e7 bytes (0.5 s) => 1.5 s total.
        assert second == pytest.approx(1.5, rel=1e-6)

    def test_active_transfer_count(self, sim):
        link = Link(sim, custom_nic("t", gbits=1, latency_us=0))
        link.transfer(1e9)
        link.transfer(1e9)
        assert link.active_transfers == 2


class TestMessages:
    def test_message_is_latency_dominated(self, sim):
        nic = omnipath_hfi100()
        link = Link(sim, nic)
        delay = finish(sim, link.message(64))
        expected = nic.base_latency_s + 64 / nic.bandwidth_bytes
        assert delay == pytest.approx(expected)


class TestUtilisation:
    def test_utilisation_reflects_delivered_bytes(self, sim):
        nic = custom_nic("t", gbits=0.8, latency_us=0)  # 1e8 B/s
        link = Link(sim, nic)
        finish(sim, link.transfer(5e7))  # 0.5 s busy
        sim.run(until=1.0)
        assert link.utilisation(since=0.0) == pytest.approx(0.5, rel=1e-6)


class TestMinWakeRegression:
    def test_tiny_residuals_do_not_hang_the_calendar(self, sim):
        """Regression: float-underflow residual bytes once spun forever."""
        link = Link(sim, omnipath_hfi100())
        # Craft sizes that historically produced sub-resolution residuals.
        sim.run(until=10.6478)
        done = link.transfer(12.5e9 * 0.123456789)
        finish(sim, done, limit=1e5)
        assert link.active_transfers == 0


class TestLinkPair:
    def test_ack_uses_reverse_path(self, sim):
        pair = LinkPair(sim, omnipath_hfi100())
        delay = finish(sim, pair.ack())
        assert delay > 0
        assert pair.backward.bytes_delivered == 0  # messages bypass sharing

    def test_round_trip_latency(self, sim):
        pair = LinkPair(sim, omnipath_hfi100())
        assert pair.round_trip_latency() == pytest.approx(2 * 10e-6)


class TestWatch:
    def test_every_fault_change_notifies_after_the_change(self, sim):
        link = Link(sim, omnipath_hfi100())
        seen = []
        link.watch(lambda changed: seen.append(
            (changed is link, link.is_down, link.loss_rate, link.latency)))
        base = link.latency
        link.degrade(0.5, extra_latency_s=1e-3)
        link.partition()
        link.restore()
        link.impair(loss_rate=0.2)
        link.clear_impairment()
        assert seen == [
            (True, False, 0.0, base + 1e-3),
            (True, True, 0.0, base + 1e-3),
            (True, False, 0.0, base),
            (True, False, 0.2, base),
            (True, False, 0.0, base),
        ]

    def test_clearing_a_clean_wire_is_silent(self, sim):
        link = Link(sim, omnipath_hfi100())
        seen = []
        link.watch(seen.append)
        link.clear_impairment()
        assert seen == []

    def test_message_delay_is_what_message_schedules(self, sim):
        link = Link(sim, omnipath_hfi100())
        link.degrade(0.3, extra_latency_s=7e-6)
        event = link.message(64)
        assert event.value == link.message_delay(64)
