"""Simulation run-loop semantics."""

import pytest

from repro.simkernel import Simulation, UnhandledEventFailure


@pytest.fixture
def sim():
    return Simulation(seed=0)


class TestRunLoop:
    def test_step_on_empty_calendar_is_a_clear_error(self, sim):
        with pytest.raises(RuntimeError, match="empty calendar"):
            sim.step()

    def test_step_after_exhaustion_is_a_clear_error(self, sim):
        sim.timeout(1.0)
        sim.run()
        with pytest.raises(RuntimeError, match="empty calendar"):
            sim.step()

    def test_run_until_advances_clock_exactly(self, sim):
        sim.timeout(3.0)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_does_not_process_later_events(self, sim):
        fired = []
        sim.timeout(5.0).callbacks.append(lambda e: fired.append(5))
        sim.timeout(15.0).callbacks.append(lambda e: fired.append(15))
        sim.run(until=10.0)
        assert fired == [5]
        sim.run(until=20.0)
        assert fired == [5, 15]

    def test_horizon_coincident_event_fires(self, sim):
        """The pinned horizon contract: an event exactly at ``until``
        fires inside that run call, and peek() is strictly later."""
        fired = []
        sim.timeout(10.0).callbacks.append(lambda e: fired.append("at"))
        sim.timeout(10.0 + 1e-9).callbacks.append(lambda e: fired.append("after"))
        sim.run(until=10.0)
        assert fired == ["at"]
        assert sim.peek() > 10.0

    def test_horizon_cascade_completes_within_the_run(self, sim):
        """A zero-delay cascade landing exactly at the horizon runs to
        completion — quantum stepping must never split it."""
        fired = []

        def chain():
            yield sim.timeout(10.0)
            fired.append("first")
            yield sim.timeout(0.0)
            fired.append("second")

        sim.process(chain())
        sim.run(until=10.0)
        assert fired == ["first", "second"]
        assert sim.now == 10.0

    def test_horizon_stepping_is_exact(self):
        """Running to h1 then h2 is indistinguishable from one run to
        h2 — the property ShardedSimulation's quanta rely on."""

        def scenario():
            sim = Simulation(seed=7)
            log = []

            def worker(label, period):
                while True:
                    yield sim.timeout(period)
                    log.append((sim.now, label, sim.random.stream("w").random()))

            sim.process(worker("a", 0.25))
            sim.process(worker("b", 0.4))
            return sim, log

        mono_sim, mono_log = scenario()
        mono_sim.run(until=10.0)

        step_sim, step_log = scenario()
        horizon = 0.0
        while horizon < 10.0:
            horizon = min(horizon + 0.5, 10.0)
            step_sim.run(until=horizon)

        assert step_log == mono_log
        assert step_sim.now == mono_sim.now
        assert step_sim.events_processed == mono_sim.events_processed

    def test_run_until_in_the_past_rejected(self, sim):
        sim.run(until=10.0)
        with pytest.raises(ValueError):
            sim.run(until=5.0)

    def test_run_to_exhaustion(self, sim):
        sim.timeout(1.0)
        sim.timeout(2.0)
        sim.run()
        assert sim.now == 2.0
        assert sim.peek() == float("inf")

    def test_stop_ends_run_with_value(self, sim):
        def stopper():
            yield sim.timeout(4.0)
            sim.stop("early exit")

        sim.process(stopper())
        sim.timeout(100.0)
        result = sim.run()
        assert result == "early exit"
        assert sim.now == 4.0

    def test_simultaneous_events_fifo_by_schedule_order(self, sim):
        order = []
        for label in "abc":
            sim.timeout(1.0, label).callbacks.append(
                lambda e: order.append(e.value)
            )
        sim.run()
        assert order == ["a", "b", "c"]

    def test_events_processed_counter(self, sim):
        sim.timeout(1.0)
        sim.timeout(2.0)
        sim.run()
        assert sim.events_processed == 2


class TestBucketCalendar:
    """Ordering and validation semantics of the coalescing calendar."""

    def test_negative_delay_rejected_at_the_choke_point(self, sim):
        """Timeout validates its own delay; succeed()/fail() forward
        theirs to _schedule, which must reject time travel too."""
        with pytest.raises(ValueError, match="negative"):
            sim.event().succeed(delay=-0.5)
        with pytest.raises(ValueError, match="negative"):
            sim.event().fail(RuntimeError("boom"), delay=-1.0)

    def test_urgent_preempts_remaining_normal_bucket(self, sim):
        """An urgent event landing mid-bucket at the same instant fires
        before the bucket's remaining normal events — its (time,
        priority) key sorts first even though it was scheduled last."""
        order = []

        def starter():
            order.append("urgent")
            yield sim.timeout(0.0)

        def spawn(_evt):
            order.append("a")
            # Process start is an urgent event at the current instant.
            sim.process(starter())

        sim.timeout(1.0).callbacks.append(spawn)
        sim.timeout(1.0).callbacks.append(lambda e: order.append("b"))
        sim.run()
        assert order == ["a", "urgent", "b"]

    def test_same_instant_append_revives_exhausted_bucket(self, sim):
        """The last event of a bucket scheduling a zero-delay follow-up
        appends to that same (exhausted) bucket — it must fire in this
        run, in FIFO position, not be skimmed away."""
        order = []

        def tail(_evt):
            order.append("tail")
            sim.timeout(0.0).callbacks.append(lambda e: order.append("revived"))

        sim.timeout(1.0).callbacks.append(tail)
        sim.run()
        assert order == ["tail", "revived"]
        assert sim.now == 1.0

    def test_pending_count_tracks_events_not_buckets(self, sim):
        for _ in range(3):
            sim.timeout(1.0)  # one bucket, three events
        sim.timeout(2.0)
        assert "pending=4" in repr(sim)
        sim.run(until=1.0)
        assert "pending=1" in repr(sim)
        sim.run()
        assert "pending=0" in repr(sim)

    def test_peek_skips_exhausted_buckets(self, sim):
        sim.timeout(1.0)
        sim.timeout(1.0)
        sim.timeout(3.0)
        sim.run(until=1.0)
        assert sim.peek() == 3.0


class TestRunUntilTriggered:
    def test_returns_event_value(self, sim):
        event = sim.timeout(2.0, value="payload")
        assert sim.run_until_triggered(event) == "payload"
        assert sim.now == 2.0

    def test_raises_on_failed_event(self, sim):
        def failer():
            yield sim.timeout(1.0)
            raise KeyError("missing")

        process = sim.process(failer())
        with pytest.raises(KeyError):
            sim.run_until_triggered(process)

    def test_raises_when_event_cannot_trigger(self, sim):
        orphan = sim.event()
        sim.timeout(1.0)
        with pytest.raises(RuntimeError):
            sim.run_until_triggered(orphan)

    def test_respects_limit(self, sim):
        event = sim.timeout(100.0)
        sim.timeout(1.0)
        with pytest.raises(RuntimeError):
            sim.run_until_triggered(event, limit=50.0)


class TestScheduleCallback:
    def test_callback_runs_at_requested_time(self, sim):
        seen = []
        sim.schedule_callback(7.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.5]


class TestFailurePropagation:
    def test_unwaited_failure_raises_at_run(self, sim):
        def failer():
            yield sim.timeout(1.0)
            raise RuntimeError("unobserved")

        sim.process(failer())
        with pytest.raises(UnhandledEventFailure):
            sim.run()

    def test_waited_failure_is_contained(self, sim):
        def failer():
            yield sim.timeout(1.0)
            raise RuntimeError("observed")

        def watcher():
            child = sim.process(failer())
            try:
                yield child
            except RuntimeError:
                return "handled"

        p = sim.process(watcher())
        sim.run()
        assert p.value == "handled"


class TestDeterminism:
    def test_identical_seeds_produce_identical_traces(self):
        def trace(seed):
            sim = Simulation(seed=seed)
            log = []

            def worker(name):
                for _ in range(5):
                    delay = sim.random.stream(name).uniform(0.1, 2.0)
                    yield sim.timeout(delay)
                    log.append((round(sim.now, 9), name))

            sim.process(worker("a"))
            sim.process(worker("b"))
            sim.run()
            return log

        assert trace(42) == trace(42)
        assert trace(42) != trace(43)

    def test_stream_isolation(self):
        # Consuming one stream must not perturb another.
        sim1 = Simulation(seed=9)
        _ = [sim1.random.stream("noise").random() for _ in range(100)]
        value_after_noise = sim1.random.stream("signal").random()
        sim2 = Simulation(seed=9)
        value_clean = sim2.random.stream("signal").random()
        assert value_after_noise == value_clean


class TestTimeoutAt:
    #: ``now + (when - now)`` rounds away from ``when`` for this pair.
    NOW, WHEN = 0.00016189957807444255, 1.5018256178447797

    def test_fires_exactly_at_when(self, sim):
        sim.run(until=self.NOW)
        assert self.NOW + (self.WHEN - self.NOW) != self.WHEN
        fired = []
        sim.timeout_at(self.WHEN, value="v").callbacks.append(
            lambda event: fired.append((sim.now, event.value))
        )
        sim.run()
        assert fired == [(self.WHEN, "v")]

    def test_orders_fifo_with_relative_timeouts(self, sim):
        order = []
        sim.timeout(1.0).callbacks.append(lambda _e: order.append("relative"))
        sim.timeout_at(1.0).callbacks.append(lambda _e: order.append("absolute"))
        sim.run()
        assert order == ["relative", "absolute"]

    def test_rejects_the_past(self, sim):
        sim.run(until=2.0)
        with pytest.raises(ValueError):
            sim.timeout_at(1.0)


class TestDrainedUntil:
    def test_tracks_completed_runs_only(self, sim):
        assert sim.drained_until == float("-inf")
        sim.timeout(1.0)
        sim.run(until=0.5)
        assert sim.drained_until == 0.5
        target = sim.timeout(3.0)
        sim.run_until_triggered(target)
        # Stopping on an event leaves the rest of its instant pending.
        assert sim.drained_until == 0.5
        sim.run()
        assert sim.drained_until == sim.now == 3.5
