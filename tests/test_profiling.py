"""Host-side profiling helpers: sampler attribution and cProfile wrap."""

import pytest

from repro.profiling import (
    WallClockSampler,
    profile_call,
    throughput,
    throughput_line,
)
from repro.simkernel import Simulation


class FakeClock:
    """Deterministic nanosecond counter advanced by the test."""

    def __init__(self):
        self.now_ns = 0

    def __call__(self) -> int:
        return self.now_ns


class TestWallClockSampler:
    def test_attributes_gaps_to_the_arriving_record(self):
        clock = FakeClock()
        sampler = WallClockSampler(clock=clock).start()
        sim = Simulation(seed=0)
        sim.telemetry.subscribe(sampler)

        clock.now_ns = 100
        sim.telemetry.counter("fast.path", 1.0)
        clock.now_ns = 1100
        sim.telemetry.counter("slow.path", 1.0)
        clock.now_ns = 1150
        sim.telemetry.counter("fast.path", 1.0)

        spots = {spot.name: spot for spot in sampler.hotspots()}
        assert spots["fast.path"].records == 2
        assert spots["fast.path"].wall_ns == 150
        assert spots["slow.path"].wall_ns == 1000
        assert sampler.total_wall_ns == 1150
        assert sampler.records == 3

    def test_hotspots_ranked_hottest_first_with_limit(self):
        clock = FakeClock()
        sampler = WallClockSampler(clock=clock).start()
        sim = Simulation(seed=0)
        sim.telemetry.subscribe(sampler)
        for name, cost in [("a", 10), ("b", 300), ("c", 20)]:
            clock.now_ns += cost
            sim.telemetry.counter(name, 1.0)
        assert [s.name for s in sampler.hotspots()] == ["b", "c", "a"]
        assert [s.name for s in sampler.hotspots(limit=1)] == ["b"]

    def test_unarmed_sampler_charges_nothing_for_the_first_record(self):
        clock = FakeClock()
        sampler = WallClockSampler(clock=clock)  # no start()
        sim = Simulation(seed=0)
        sim.telemetry.subscribe(sampler)
        clock.now_ns = 500
        sim.telemetry.counter("first", 1.0)
        assert sampler.total_wall_ns == 0
        assert sampler.records == 1

    def test_subscription_does_not_perturb_the_simulation(self):
        """Sampling is read-only: the event stream is bit-identical."""

        def scenario(with_sampler):
            sim = Simulation(seed=3)
            if with_sampler:
                sim.telemetry.subscribe(WallClockSampler().start())
            log = []

            def worker():
                while sim.now < 5.0:
                    yield sim.timeout(0.5)
                    log.append(
                        (sim.now, sim.random.stream("w").random())
                    )

            sim.process(worker())
            sim.run(until=5.0)
            return log, sim.events_processed

        assert scenario(False) == scenario(True)


class TestProfileCall:
    def test_returns_result_and_stats_text(self):
        result, text = profile_call(lambda: sum(range(100)), limit=5)
        assert result == 4950
        assert "function calls" in text

    def test_propagates_exceptions(self):
        with pytest.raises(RuntimeError, match="boom"):
            profile_call(lambda: (_ for _ in ()).throw(RuntimeError("boom")))


class TestThroughput:
    def test_rate(self):
        assert throughput(1000, 2.0) == 500.0

    def test_empty_interval_is_zero_not_an_error(self):
        assert throughput(1000, 0.0) == 0.0

    def test_line_format(self):
        line = throughput_line(12345, 0.5)
        assert "12,345 sim-events" in line
        assert "24,690 steps/sec" in line

    def test_line_names_its_units(self):
        line = throughput_line(300, 0.5, "requests", "requests/sec")
        assert "300 requests in 0.50s" in line
        assert "600 requests/sec" in line
