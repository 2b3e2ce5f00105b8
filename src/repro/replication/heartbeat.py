"""Heartbeat-based failure detection between the replication hosts.

HERE "relies on a periodic heartbeat between the primary and replica
hosts to ensure that the hypervisors are functioning normally" (§8.2).
The monitor runs on the secondary: it probes the primary at a fixed
interval and declares failure after ``miss_threshold`` consecutive
unanswered probes.  Crashes, hangs and host power loss all look the
same from here — no answer — which is exactly the property HERE needs:
the failover path does not care *why* the primary stopped.

External attack detectors (the CRIMES-style systems the paper cites)
can also declare failure directly via :meth:`HeartbeatMonitor.report_attack`.

The probe loop itself lives in :class:`Prober`, shared with the
adaptive :class:`~repro.faults.detection.PhiAccrualDetector`; each
detector contributes only its verdict.  A healthy primary behind a
clean wire answers every probe the same way, so the prober sleeps
through such stretches instead of simulating each probe, and replays
the elided probe grid when something changes (quiescent fast-forward,
DESIGN §19).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..hardware.host import Host
from ..hardware.link import LinkPair
from ..hypervisor.base import Hypervisor
from ..simkernel.errors import Interrupt

#: Size of a probe's acknowledgement on the reverse link.
PROBE_BYTES = 64

UNREACHABLE = (
    "heartbeat probes unanswered — primary unreachable (link down or "
    "partitioned)"
)


class Prober:
    """Secondary-side prober of the primary host/hypervisor pair.

    Every ``interval`` the loop sends a probe whose ack comes back over
    the reverse link, raced against ``probe_timeout``.  Subclasses judge
    the outcomes: :meth:`_alive` takes each answered probe, :meth:`_miss`
    each unanswered one and decides whether to declare failure.

    After an alive probe on a clean reverse wire the loop sleeps on one
    wake event instead of simulating probes whose outcome cannot change,
    and replays the elided probe grid when a wake source fires
    (:meth:`_quiescent`, :meth:`_sleep`; DESIGN §19).  Misses are never
    elided.
    """

    #: Name of the probing process.
    process_name = "prober"

    def __init__(
        self,
        sim,
        primary_host: Host,
        primary_hypervisor: Hypervisor,
        link: LinkPair,
        interval: float,
        probe_timeout: Optional[float],
        failure_name: str,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval}")
        if probe_timeout is not None and probe_timeout <= 0:
            raise ValueError(f"probe_timeout must be positive: {probe_timeout}")
        self.sim = sim
        self.primary_host = primary_host
        self.primary_hypervisor = primary_hypervisor
        self.link = link
        self.interval = interval
        #: How long to wait for a probe's ack before counting a miss.
        #: Defaults to the probe interval — generous against jitter, yet
        #: bounded so a partitioned link cannot stall detection forever.
        self.probe_timeout = probe_timeout if probe_timeout is not None else interval
        #: Succeeds with the failure reason when failure is declared.
        self.failure_detected = sim.event(name=failure_name)
        self.process = None
        self._probes_sent = 0
        self._last_success_at: Optional[float] = None
        # -- fast-forward state (meaningful while ``_wake`` is set) --
        #: The event a sleeping loop is parked on.
        self._wake = None
        #: Completion time of the last credited probe: the grid origin.
        self._cursor = 0.0
        #: The reverse link's ack delay, fixed for the whole sleep.
        self._ack_delay = 0.0
        #: Probes credited since the last aggregate counter.
        self._elided = 0

    # -- counters, settled on read -------------------------------------------
    @property
    def probes_sent(self) -> int:
        """Probes resolved so far, elided ones included."""
        self._settle()
        return self._probes_sent

    @property
    def last_success_at(self) -> Optional[float]:
        """Resolution time of the latest alive probe."""
        self._settle()
        return self._last_success_at

    def _settle(self) -> None:
        """Bring a sleeping prober's counters up to now for a reader."""
        if self._wake is not None:
            self._credit()

    # -- lifecycle -------------------------------------------------------------
    def start(self):
        """Begin probing; returns the probing process."""
        if self.process is not None:
            raise RuntimeError(f"{self.process_name} already started")
        self.primary_host.on_failure(self._wake_up)
        self.primary_hypervisor.on_failure(self._wake_up)
        self.link.backward.watch(self._wake_up)
        self.process = self.sim.process(self._probe_loop(), name=self.process_name)
        return self.process

    def stop(self) -> None:
        """Stop probing (clean replication shutdown)."""
        if self.process is not None and self.process.is_alive:
            self.process.interrupt("prober stopped")

    def report_attack(self, description: str) -> None:
        """External detector path: declare the primary failed now.

        Used when an exploit-mitigation or intrusion-detection system
        (§6) downgrades an attack to a controlled crash — failover can
        start without waiting for missed heartbeats.
        """
        if not self.failure_detected.triggered:
            self.failure_detected.succeed(f"attack detected: {description}")
        self._wake_up()

    # -- verdict hooks -----------------------------------------------------------
    def _alive(self, now: float) -> None:
        """Take an answered probe resolved at ``now`` (called before
        ``last_success_at`` moves to ``now``)."""
        raise NotImplementedError

    def _miss(self, now: float):
        """Judge an unanswered probe: ``(reason suffix, attrs)`` to
        declare failure, ``None`` to keep probing."""
        raise NotImplementedError

    def _probe_attrs(self, now: float) -> dict:
        """Extra attributes of the per-probe ``heartbeat.probe`` counter."""
        return {}

    # -- the loop ----------------------------------------------------------------
    def _probe_loop(self):
        sim = self.sim
        host, hypervisor = self.primary_host, self.primary_hypervisor
        # A probe cycle: gate (the interval timeout), then ack raced
        # against deadline.  A wake hands back a cycle already under
        # way, past its failure check.
        gate = ack = deadline = None
        try:
            while True:
                if ack is None:
                    if gate is None:
                        if self.failure_detected.triggered:
                            return
                        gate = sim.timeout(self.interval)
                    yield gate
                    # Round trip to the primary (the probe itself), raced
                    # against the probe timeout: a dead or partitioned
                    # link drops the ack, and waiting on it alone would
                    # block this loop forever.
                    ack = self.link.ack(PROBE_BYTES)
                    deadline = sim.timeout(self.probe_timeout)
                yield sim.any_of([ack, deadline])
                answered = ack.triggered
                gate = ack = deadline = None
                self._probes_sent += 1
                alive = answered and host.is_up and hypervisor.is_responsive
                now = sim.now
                bus = sim.telemetry
                if bus.enabled:
                    bus.counter(
                        "heartbeat.probe",
                        1.0,
                        host=host.name,
                        link=self.link.name,
                        alive=alive,
                        **self._probe_attrs(now),
                    )
                if alive:
                    self._alive(now)
                    self._last_success_at = now
                    if not self.failure_detected.triggered and self._quiescent():
                        gate, ack, deadline = yield from self._sleep()
                    continue
                verdict = self._miss(now)
                if verdict is not None:
                    self._declare(answered, *verdict)
                    return
        except Interrupt:
            return

    def _declare(self, answered: bool, suffix: str, attrs: dict) -> None:
        if not answered:
            reason = UNREACHABLE
        else:
            reason = (
                self.primary_hypervisor.failure_reason
                or self.primary_host.failure_reason
                or "primary unresponsive"
            )
        reason += suffix
        bus = self.sim.telemetry
        if bus.enabled:
            bus.counter(
                "heartbeat.failure_declared",
                1.0,
                host=self.primary_host.name,
                link=self.link.name,
                reason=reason,
                **attrs,
            )
        if not self.failure_detected.triggered:
            self.failure_detected.succeed(reason)

    # -- quiescent fast-forward --------------------------------------------------
    def _quiescent(self) -> bool:
        """Whether the probes after an alive one must come back alive.

        The alive probe already vouches for the host and hypervisor;
        the reverse wire must also be up, lossless and jitter-free.
        """
        wire = self.link.backward
        return (
            not wire.is_down
            and wire.loss_rate == 0.0
            and wire.latency_jitter_s == 0.0
        )

    def _wake_up(self, *_source) -> None:
        wake = self._wake
        if wake is not None and not wake.triggered:
            wake.succeed()

    def _sleep(self):
        """Park until a wake source fires; return the rebuilt
        ``(gate, ack, deadline)`` probe state for the live loop."""
        self._cursor = self.sim.now
        self._ack_delay = self.link.backward.message_delay(PROBE_BYTES)
        self._wake = self.sim.event(name=f"wake:{self.process_name}")
        try:
            yield self._wake
        except Interrupt:
            self._resume()
            raise
        return self._resume()

    def _credit(self) -> None:
        """Credit every elided probe the per-probe loop has resolved by now.

        A probe resolving exactly now counts once :meth:`run
        <repro.simkernel.core.Simulation.run>` has drained this instant
        (code between two runs comes after all of its events).  Inside
        a run it does not: whatever woke the prober at this instant was
        scheduled ahead of the probe's events, as a fault is.
        """
        sim = self.sim
        now = sim.now
        drained = now <= sim.drained_until
        interval, delay, timeout = self.interval, self._ack_delay, self.probe_timeout
        resolved = self._cursor
        while True:
            sent = resolved + interval
            acked, expired = sent + delay, sent + timeout
            # The live loop resumes on whichever event fires first; the
            # ack wins a tie (it was scheduled first).
            done = acked if acked <= expired else expired
            if done > now or (done == now and not drained):
                break
            resolved = done
            self._probes_sent += 1
            self._elided += 1
            self._alive(done)
            self._last_success_at = done
        self._cursor = resolved

    def _resume(self):
        """Replay the grid up to now, report it, rebuild the probe state.

        Ties follow :meth:`_credit`: inside a run, a wake at exactly a
        send instant precedes that send; between runs it follows it.
        """
        sim = self.sim
        now = sim.now
        self._credit()
        self._wake = None
        sent = self._cursor + self.interval
        sends = self._elided
        if sent < now or (sent == now and now <= sim.drained_until):
            # A probe is in flight: its ack and deadline were due where
            # the live loop put them.
            sends += 1
            state = (
                None,
                sim.timeout_at(sent + self._ack_delay),
                sim.timeout_at(sent + self.probe_timeout),
            )
        else:
            state = (sim.timeout_at(sent), None, None)
        bus = sim.telemetry
        if bus.enabled and sends:
            if self._elided:
                bus.counter(
                    "heartbeat.probe",
                    float(self._elided),
                    host=self.primary_host.name,
                    link=self.link.name,
                    alive=True,
                )
            bus.counter(
                "link.message",
                float(sends),
                link=self.link.backward.name,
                nbytes=PROBE_BYTES,
            )
        self._elided = 0
        return state


class HeartbeatMonitor(Prober):
    """Fixed-threshold detector: ``miss_threshold`` consecutive misses."""

    process_name = "heartbeat"
    #: Bound on this class as well, so instrumentation that wraps the
    #: class's own attribute (``perfbench/tracer.py``) finds it.
    _probe_loop = Prober._probe_loop

    def __init__(
        self,
        sim,
        primary_host: Host,
        primary_hypervisor: Hypervisor,
        link: LinkPair,
        interval: float = 0.03,
        miss_threshold: int = 3,
        probe_timeout: Optional[float] = None,
        degraded_miss_threshold: Optional[int] = None,
        loss_signal: Optional[Callable[[], bool]] = None,
    ):
        if miss_threshold < 1:
            raise ValueError(f"miss_threshold must be >= 1: {miss_threshold}")
        if (
            degraded_miss_threshold is not None
            and degraded_miss_threshold < miss_threshold
        ):
            raise ValueError(
                "degraded_miss_threshold must be >= miss_threshold: "
                f"{degraded_miss_threshold} < {miss_threshold}"
            )
        super().__init__(
            sim, primary_host, primary_hypervisor, link, interval,
            probe_timeout, failure_name="heartbeat-failure",
        )
        self.miss_threshold = miss_threshold
        #: Degraded-vs-dead discrimination (lossy links): while
        #: ``loss_signal()`` reports the transport is seeing loss *but
        #: still getting through*, missed probes are tolerated up to
        #: this higher threshold before failover fires.  A dead peer
        #: stops producing transport successes, so the signal drops and
        #: the normal threshold applies — degradation never masks a
        #: real failure.  Both default to None (classic behaviour).
        self.degraded_miss_threshold = degraded_miss_threshold
        self.loss_signal = loss_signal
        self.consecutive_misses = 0
        self.degraded_probes = 0

    @property
    def detection_latency_bound(self) -> float:
        """Worst-case time from failure to detection.

        Each probe cycle costs the interval plus, at worst, a full probe
        timeout (an unanswered probe on a partitioned link): after
        ``miss_threshold`` such cycles failure is declared.
        """
        per_cycle = self.interval + max(
            self.probe_timeout, self.link.round_trip_latency()
        )
        return per_cycle * self.miss_threshold

    def _alive(self, now: float) -> None:
        self.consecutive_misses = 0

    def _miss(self, now: float):
        self.consecutive_misses += 1
        threshold = self.miss_threshold
        if (
            self.degraded_miss_threshold is not None
            and self.loss_signal is not None
            and self.loss_signal()
        ):
            # The transport still commits epochs through the loss —
            # the peer is alive behind a bad wire.
            threshold = self.degraded_miss_threshold
            self.degraded_probes += 1
            bus = self.sim.telemetry
            if bus.enabled:
                bus.counter(
                    "heartbeat.degraded_miss",
                    1.0,
                    host=self.primary_host.name,
                    link=self.link.name,
                    misses=self.consecutive_misses,
                )
        if self.consecutive_misses < threshold:
            return None
        return "", {"misses": self.consecutive_misses}
