"""Quiescent fast-forward against the per-probe loop it replaces.

:class:`ReferenceHeartbeat` and :class:`ReferencePhi` below are the
probe loops the detectors ran before the fast-forward: four kernel
events per probe, whatever the state of the primary.  They live only
here, as the oracle.  hypothesis draws a detector and a short list of
state changes — host crash, hypervisor crash, hang or starve, link
partition, degrade, loss, jitter or restore, ``report_attack`` and ``stop``
— at times taken exactly on the reference's send and resolve instants
or between them, and every observable the fast-forwarded detector
exposes must equal the reference's: detection time and reason,
``probes_sent``, ``last_success_at``, ``consecutive_misses``,
``degraded_probes``, the phi sample window, and the per-run totals of
the ``heartbeat.probe`` and ``link.message`` counters.

State changes are scheduled before the detectors start, like a fault
schedule, so at a shared instant they order before the probe's own
events — the tie rule DESIGN §19 states.
"""

import math
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.detection import PhiAccrualDetector, phi_from_normal
from repro.hardware.host import Host
from repro.hardware.link import LinkPair
from repro.hardware.nic import omnipath_hfi100
from repro.hypervisor.kvm import KvmHypervisor
from repro.replication.heartbeat import HeartbeatMonitor
from repro.simkernel import Simulation
from repro.simkernel.errors import Interrupt
from repro.telemetry import Recorder

UNREACHABLE = (
    "heartbeat probes unanswered — primary unreachable (link down or "
    "partitioned)"
)


# -- the oracle: one probe, four kernel events ---------------------------------
class ReferenceHeartbeat:
    """The fixed-threshold monitor's per-probe loop."""

    def __init__(self, sim, host, hypervisor, link, interval=0.03,
                 miss_threshold=3, probe_timeout=None,
                 degraded_miss_threshold=None, loss_signal=None):
        self.sim, self.primary_host, self.primary_hypervisor = sim, host, hypervisor
        self.link, self.interval, self.miss_threshold = link, interval, miss_threshold
        self.probe_timeout = probe_timeout if probe_timeout is not None else interval
        self.degraded_miss_threshold = degraded_miss_threshold
        self.loss_signal = loss_signal
        self.failure_detected = sim.event(name="heartbeat-failure")
        self.probes_sent = 0
        self.consecutive_misses = 0
        self.degraded_probes = 0
        self.last_success_at = None
        self.process = None

    def start(self):
        self.process = self.sim.process(self._probe_loop(), name="heartbeat")

    def stop(self):
        if self.process is not None and self.process.is_alive:
            self.process.interrupt("monitor stopped")

    def report_attack(self, description):
        if not self.failure_detected.triggered:
            self.failure_detected.succeed(f"attack detected: {description}")

    def _probe_loop(self):
        try:
            while not self.failure_detected.triggered:
                yield self.sim.timeout(self.interval)
                ack = self.link.ack(64)
                deadline = self.sim.timeout(self.probe_timeout)
                yield self.sim.any_of([ack, deadline])
                answered = ack.triggered
                self.probes_sent += 1
                alive = (answered and self.primary_host.is_up
                         and self.primary_hypervisor.is_responsive)
                bus = self.sim.telemetry
                bus.counter("heartbeat.probe", 1.0, alive=alive)
                if alive:
                    self.consecutive_misses = 0
                    self.last_success_at = self.sim.now
                    continue
                self.consecutive_misses += 1
                threshold = self.miss_threshold
                if (self.degraded_miss_threshold is not None
                        and self.loss_signal is not None and self.loss_signal()):
                    threshold = self.degraded_miss_threshold
                    self.degraded_probes += 1
                if self.consecutive_misses >= threshold:
                    reason = UNREACHABLE if not answered else (
                        self.primary_hypervisor.failure_reason
                        or self.primary_host.failure_reason
                        or "primary unresponsive")
                    if not self.failure_detected.triggered:
                        self.failure_detected.succeed(reason)
                    return
        except Interrupt:
            return


class ReferencePhi:
    """The phi-accrual detector's per-probe loop."""

    def __init__(self, sim, host, hypervisor, link, interval=0.03,
                 threshold=8.0, window=32, probe_timeout=None):
        self.sim, self.primary_host, self.primary_hypervisor = sim, host, hypervisor
        self.link, self.interval, self.threshold = link, interval, threshold
        self.probe_timeout = probe_timeout if probe_timeout is not None else interval
        self.min_std = interval * 0.1
        self.samples = deque(maxlen=window)
        self.failure_detected = sim.event(name="phi-failure")
        self.probes_sent = 0
        self.last_success_at = None
        self.process = None

    start = ReferenceHeartbeat.start
    stop = ReferenceHeartbeat.stop
    report_attack = ReferenceHeartbeat.report_attack

    def phi(self, elapsed):
        if not self.samples:
            mean = self.interval + self.link.round_trip_latency()
        else:
            mean = sum(self.samples) / len(self.samples)
        if len(self.samples) < 2:
            std = self.min_std
        else:
            variance = sum((s - mean) ** 2 for s in self.samples) / len(self.samples)
            std = max(math.sqrt(variance), self.min_std)
        return phi_from_normal(elapsed, mean, std)

    def _probe_loop(self):
        self.last_success_at = self.sim.now
        try:
            while not self.failure_detected.triggered:
                yield self.sim.timeout(self.interval)
                ack = self.link.ack(64)
                deadline = self.sim.timeout(self.probe_timeout)
                yield self.sim.any_of([ack, deadline])
                answered = ack.triggered
                self.probes_sent += 1
                alive = (answered and self.primary_host.is_up
                         and self.primary_hypervisor.is_responsive)
                now = self.sim.now
                elapsed = now - self.last_success_at
                suspicion = self.phi(elapsed)
                self.sim.telemetry.counter("heartbeat.probe", 1.0, alive=alive)
                if alive:
                    self.samples.append(elapsed)
                    self.last_success_at = now
                    continue
                if suspicion >= self.threshold:
                    reason = UNREACHABLE if not answered else (
                        self.primary_hypervisor.failure_reason
                        or self.primary_host.failure_reason
                        or "primary unresponsive")
                    reason = f"{reason} (phi={suspicion:.1f})"
                    if not self.failure_detected.triggered:
                        self.failure_detected.succeed(reason)
                    return
        except Interrupt:
            return


# -- one run -------------------------------------------------------------------
#: What each drawn state change does to the primary, its link or the
#: detector.
ACTIONS = {
    "host-crash": lambda w: w.host.fail("power loss"),
    "hypervisor-crash": lambda w: w.hypervisor.crash("core dump"),
    "hypervisor-hang": lambda w: w.hypervisor.hang("lockup"),
    "hypervisor-starve": lambda w: w.hypervisor.starve("dos"),
    "link-partition": lambda w: w.link.partition(),
    "link-degrade": lambda w: w.link.degrade(0.5, extra_latency_s=2e-4),
    "link-impair": lambda w: w.link.impair(loss_rate=0.4),
    "link-jitter": lambda w: w.link.impair(latency_jitter_s=1e-3),
    "link-restore": lambda w: w.link.restore(),
    "report-attack": lambda w: w.detector.report_attack("CVE-0000-0000"),
    "stop": lambda w: w.detector.stop(),
}


class World:
    """A primary, its reverse link and one detector on a fresh sim."""

    def __init__(self, scenario, reference):
        self.sim = sim = Simulation(seed=11)
        self.recorder = Recorder.attach(sim.telemetry)
        self.host = Host(sim, "primary")
        self.hypervisor = KvmHypervisor(sim, self.host)
        self.link = LinkPair(sim, omnipath_hfi100(), name="hb")
        kwargs = dict(interval=scenario["interval"],
                      probe_timeout=scenario["probe_timeout"])
        if scenario["detector"] == "phi":
            cls = ReferencePhi if reference else PhiAccrualDetector
        else:
            cls = ReferenceHeartbeat if reference else HeartbeatMonitor
            kwargs["miss_threshold"] = scenario["miss_threshold"]
            if scenario["degraded"]:
                kwargs["degraded_miss_threshold"] = scenario["miss_threshold"] + 2
                kwargs["loss_signal"] = lambda: self.link.backward.loss_rate > 0
        self.detector = cls(sim, self.host, self.hypervisor, self.link, **kwargs)
        self.detected_at = None
        self.detector.failure_detected.callbacks.append(self._detected)
        for when, action, between_runs in scenario["changes"]:
            if not between_runs:
                sim.timeout_at(when).callbacks.append(
                    lambda _event, act=ACTIONS[action]: act(self))
        self.detector.start()

    def run(self, scenario, until):
        """Run to ``until``, applying the between-runs changes on the way."""
        for when, action, between_runs in scenario["changes"]:
            if between_runs and self.sim.now <= when <= until:
                self.sim.run(until=when)
                ACTIONS[action](self)
        self.sim.run(until=until)

    def _detected(self, _event):
        self.detected_at = self.sim.now

    def state(self):
        detector = self.detector
        # Each read must settle on its own, so the window is read first.
        if isinstance(detector, (ReferencePhi, PhiAccrualDetector)):
            state = {"samples": list(detector.samples)}
        else:
            state = {"consecutive_misses": detector.consecutive_misses,
                     "degraded_probes": detector.degraded_probes}
        failure = detector.failure_detected
        state.update(
            detected_at=self.detected_at,
            reason=failure.value if failure.triggered else None,
            probes_sent=detector.probes_sent,
            last_success_at=detector.last_success_at,
        )
        return state

    def totals(self):
        counters = self.recorder.counters
        return {
            "alive": sum(r.value for r in counters("heartbeat.probe", alive=True)),
            "missed": sum(r.value for r in counters("heartbeat.probe", alive=False)),
            "messages": sum(r.value for r in counters("link.message")),
        }


def outcome(scenario, reference, horizon):
    """State at ``horizon``, then totals after a close-out stop."""
    world = World(scenario, reference)
    world.run(scenario, horizon)
    state = world.state()
    world.detector.stop()
    world.sim.run(until=horizon + 1.0)
    return state, world.totals(), world.state()["probes_sent"], world


def grid_after(scenario, after):
    """The reference's ``(send, resolve)`` instants later than ``after``."""
    world = World(scenario, reference=True)
    world.run(scenario, after + 1.0)
    sends = sorted(
        r.time for r in world.recorder.records
        if r.name in ("link.message", "link.message_dropped", "link.message_lost")
        and r.time > after
    )
    resolves = sorted(
        r.time for r in world.recorder.counters("heartbeat.probe") if r.time > after
    )
    return sends, resolves


# -- the property ----------------------------------------------------------------
def scenarios():
    @st.composite
    def build(draw):
        detector = draw(st.sampled_from(["heartbeat", "phi"]))
        interval = draw(st.sampled_from([0.03, 0.01, 0.047]))
        scenario = {
            "detector": detector,
            "interval": interval,
            # A tiny timeout makes the deadline, not the ack, end each
            # probe (it still counts as answered).
            "probe_timeout": draw(st.sampled_from([None, interval / 2, 2e-6])),
            "miss_threshold": draw(st.integers(1, 3)),
            "degraded": detector == "heartbeat" and draw(st.booleans()),
            "changes": [],
        }
        after = draw(st.floats(0.0, 0.6))
        for _ in range(draw(st.integers(1, 3))):
            points = sorted(set().union(*grid_after(scenario, after)))
            if not points:
                break
            index = draw(st.integers(0, min(len(points), 40) - 1))
            when = points[index]
            if draw(st.booleans()) and index + 1 < len(points):
                # Strictly between two grid instants.
                fraction = draw(st.floats(0.01, 0.99))
                when = when + (points[index + 1] - when) * fraction
            action = draw(st.sampled_from(sorted(ACTIONS)))
            # Scheduled like a fault, or applied between two run() calls.
            scenario["changes"].append((when, action, draw(st.booleans())))
            after = when
        # Read the counters half a second on, or exactly on an instant
        # where the reference resolves a probe.
        _, resolves = grid_after(scenario, after)
        scenario["horizon"] = draw(st.sampled_from(resolves[:20] + [after + 0.5]))
        return scenario

    return build()


def check(scenario):
    horizon = scenario["horizon"]
    ref_state, ref_totals, ref_final, _ = outcome(scenario, True, horizon)
    ff_state, ff_totals, ff_final, _ = outcome(scenario, False, horizon)
    assert ff_state == ref_state
    assert ff_totals == ref_totals
    assert ff_final == ref_final
    assert ff_totals["alive"] + ff_totals["missed"] == ff_final


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_fast_forward_matches_the_per_probe_loop(scenario):
    check(scenario)


# -- named regressions (shrunk failures, kept) ----------------------------------
def plain(**overrides):
    scenario = {"detector": "heartbeat", "interval": 0.03, "probe_timeout": None,
                "miss_threshold": 3, "degraded": False, "changes": []}
    scenario.update(overrides)
    return scenario


def test_attack_reported_mid_sleep_finishes_the_probe_in_flight():
    """The reference completes and counts the current probe after an
    attack report; the woken loop must not skip straight to its exit."""
    scenario = plain()
    sends, _ = grid_after(scenario, 0.3)
    when = sends[0] + (sends[1] - sends[0]) / 2
    scenario.update(changes=[(when, "report-attack", False)], horizon=when + 0.5)
    check(scenario)


def test_crash_on_a_resolve_instant_is_a_miss_inside_a_run():
    scenario = plain(miss_threshold=1)
    _, resolves = grid_after(scenario, 0.2)
    scenario.update(changes=[(resolves[1], "host-crash", False)],
                    horizon=resolves[1] + 0.5)
    check(scenario)


def test_crash_on_a_resolve_instant_follows_it_between_runs():
    scenario = plain(miss_threshold=1)
    _, resolves = grid_after(scenario, 0.2)
    scenario.update(changes=[(resolves[1], "host-crash", True)],
                    horizon=resolves[1] + 0.5)
    check(scenario)


def test_stop_between_runs_on_a_resolve_instant_keeps_that_probe():
    """Shrunk: the counters read at a resolve instant must not shrink
    when the close-out stop lands on that same instant."""
    scenario = plain(miss_threshold=1, changes=[(0.03, "hypervisor-starve", False)],
                     horizon=0.060020010240000005)
    check(scenario)


def test_read_exactly_on_a_resolve_instant_counts_that_probe():
    scenario = plain(detector="phi")
    _, resolves = grid_after(scenario, 0.2)
    scenario["horizon"] = resolves[3]
    check(scenario)


def test_healthy_run_costs_no_per_probe_events():
    *_, reference = outcome(plain(), True, 30.0)
    *_, fast = outcome(plain(), False, 30.0)
    assert fast.detector.probes_sent == reference.detector.probes_sent > 900
    # One wake at the close-out stop, against four events per probe.
    assert fast.sim.events_processed < 20
    assert reference.sim.events_processed > 3600
