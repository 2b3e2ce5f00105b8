"""Outside-in layer tracing: wrappers installed around ``repro`` calls.

Nothing in ``src/repro`` knows about this module.  :class:`Tracer`
patches each layer's entry points where their callers look them up
(a class attribute for methods, the importing module's global for a
``from x import f`` binding), records one span per call — or per
resumption, for generator-based processes and pipeline stages — and
restores every original on :meth:`Tracer.remove`.

A span's *self time* is its duration minus the time covered by the
spans nested inside it.  Code that no wrapper covers is charged to the
innermost enclosing span, so kernel dispatch also absorbs the event
callbacks that are not processes (link wake-ups, plain callbacks).

Spans stay in memory (four flat arrays) until :meth:`Tracer.write`.
"""

import functools
import os
import statistics
import time
from array import array
from collections import Counter

#: Span names of the checkpoint stages, by ``Stage.name``.
STAGE_PREFIX = "replication.pipeline."


def _process_layer(generator):
    """Layer of a process body nobody else wraps: its defining module."""
    code = getattr(generator, "gi_code", None)
    path = code.co_filename if code is not None else ""
    marker = os.sep + "repro" + os.sep
    if marker not in path:
        return "process.other"
    module = path.rsplit(marker, 1)[1][: -len(".py")]
    return "process." + module.replace(os.sep, ".")


class RecordCounter:
    """Telemetry records by name, plus heartbeat probes and their misses.

    A ``heartbeat.probe`` counter record carries how many probes it
    stands for in its value, so probes and misses sum values rather
    than count records.
    """

    def __init__(self):
        self.by_name = Counter()
        self.probes = 0.0
        self.probe_misses = 0.0

    def __call__(self, record):
        name = record.name
        self.by_name[name] += 1
        if name == "heartbeat.probe":
            self.probes += record.value
            if not record.attrs.get("alive", True):
                self.probe_misses += record.value


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self):
        self._clock = time.perf_counter
        self._ids = {}
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        #: Open spans: ``[index, nested_time, start, name, costs]``.
        self._stack = []
        self.self_time = {}
        self.calls = Counter()
        #: Outcome counters the wrappers observe (commits, first sends).
        self.counts = Counter()
        self.records = RecordCounter()
        self._patches = []
        self._first_round = False
        #: Per-span wrapper cost, ``(inside, outside)`` seconds: the part
        #: between the two clock reads (removed from the span's own self
        #: time) and the part outside them (removed from its parent's).
        self.call_costs = (0.0, 0.0)
        self.resume_costs = (0.0, 0.0)

    # -- spans ----------------------------------------------------------------
    def enter(self, name, costs):
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_time[name] = 0.0
        stack = self._stack
        self.span_name.append(name_id)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_end.append(0.0)
        start = self._clock()
        self.span_start.append(start)
        stack.append([len(self.span_start) - 1, 0.0, start, name, costs])

    def exit(self):
        end = self._clock()
        index, nested, start, name, (inside, outside) = self._stack.pop()
        self.span_end[index] = end
        duration = end - start
        self.self_time[name] += duration - nested - inside
        if self._stack:
            self._stack[-1][1] += duration + outside

    def calibrate(self, rounds=7, n=20000):
        """Measure the wrappers' own cost per span (median of rounds)."""

        def noop():
            return None

        def body():
            for _ in range(n):
                yield None

        traced_noop = self.call("calibration", noop)
        calls, resumes = [], []
        for _ in range(rounds):
            calls.append(self._cost(n, functools.partial(_call_n, noop, n),
                                    functools.partial(_call_n, traced_noop, n)))
            resumes.append(self._cost(
                n, functools.partial(_exhaust, body),
                functools.partial(
                    _exhaust, lambda: self.generator("calibration", body())
                ),
            ))
        self.call_costs = _median_pair(calls)
        self.resume_costs = _median_pair(resumes)
        self._reset()

    def _cost(self, n, plain_run, traced_run):
        """``(inside, outside)`` cost of the ``n`` spans ``traced_run`` opens."""
        clock = self._clock
        begin = clock()
        plain_run()
        plain = clock() - begin
        self.self_time["calibration"] = 0.0
        begin = clock()
        traced_run()
        traced = clock() - begin
        inside = max(0.0, (self.self_time["calibration"] - plain) / n)
        return inside, max(0.0, (traced - plain) / n - inside)

    def _reset(self):
        self._ids.clear()
        del self.names[:]
        for buffer in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del buffer[:]
        self.self_time.clear()
        self.calls.clear()

    def write(self, path):
        """Write every span to ``path`` (NumPy ``.npz``)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )

    # -- wrappers -------------------------------------------------------------
    def call(self, name, function, count=None):
        """Wrap a plain function: one span per call."""
        enter, exit_ = self.enter, self.exit
        calls = self.calls
        costs = self.call_costs

        @functools.wraps(function)
        def traced(*args, **kwargs):
            calls[name] += 1
            if count is not None:
                count(self, args, kwargs)
            enter(name, costs)
            try:
                return function(*args, **kwargs)
            finally:
                exit_()

        return traced

    def generator(self, name, generator, costs=None, on_first=None, on_return=None):
        """Wrap a generator object: one span per resumption.

        Forwards ``send``/``throw``/``close`` faithfully, so ``yield
        from`` delegation and process interrupts behave as before.
        """
        enter, exit_ = self.enter, self.exit
        costs = costs or self.resume_costs
        value, error, first = None, None, True
        while True:
            enter(name, costs)
            if first and on_first is not None:
                on_first(True)
            try:
                if error is None:
                    item = generator.send(value)
                else:
                    pending, error = error, None
                    item = generator.throw(pending)
            except StopIteration as stop:
                if on_return is not None:
                    on_return()
                return stop.value
            finally:
                if first and on_first is not None:
                    on_first(False)
                first = False
                exit_()
            try:
                value = yield item
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as thrown:  # forwarded into the body
                value, error = None, thrown

    def _is_traced(self, generator):
        return getattr(generator, "gi_code", None) is self.generator.__func__.__code__

    def gen_function(self, name, function, on_first=None, on_return=None):
        """Wrap a function returning a generator (a process body)."""
        calls = self.calls
        wrap = self.generator

        @functools.wraps(function)
        def traced(*args, **kwargs):
            calls[name] += 1
            inner = function(*args, **kwargs)
            outer = wrap(name, inner, None, on_first, on_return)
            outer.__name__ = getattr(inner, "__name__", outer.__name__)
            return outer

        return traced

    # -- patching -------------------------------------------------------------
    def patch(self, owner, attribute, wrapper_factory):
        """Replace ``owner.attribute`` with ``wrapper_factory(original)``."""
        raw = owner.__dict__[attribute]
        if isinstance(raw, classmethod):
            replacement = classmethod(wrapper_factory(raw.__func__))
        else:
            replacement = wrapper_factory(raw)
        self._patches.append((owner, attribute, raw))
        setattr(owner, attribute, replacement)

    def remove(self):
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    def install(self):
        """Patch every layer boundary the benchmark reports on."""
        from repro.fleet.orchestrator import FleetOrchestrator
        from repro.hardware.link import Link
        from repro.integrity import digest
        from repro.integrity.monitor import IntegrityMonitor
        from repro.replication.heartbeat import HeartbeatMonitor
        from repro.replication.pipeline import CheckpointPipeline, Stage
        from repro.replication.transport import CheckpointTransport
        from repro.replication.translator import StateTranslator
        from repro.serving import model as serving_model
        from repro.serving.timeline import ServiceTimeline
        from repro.simkernel.core import Simulation
        from repro.simkernel.sharded import ShardedSimulation
        from repro.telemetry.bus import Span, TelemetryBus
        from repro.telemetry.histogram import LatencyHistogram
        from repro.telemetry.recorder import Recorder
        from repro.vm.dirty import DirtyLog
        from repro.workloads.base import Workload

        call, gen = self.call, self.gen_function

        # simkernel: per-event dispatch, run loops, quantum barriers.
        self.patch(Simulation, "step", lambda f: call("simkernel", f))
        self.patch(Simulation, "run", lambda f: call("simkernel.run", f))
        self.patch(
            ShardedSimulation, "step_quantum",
            lambda f: call("simkernel.step_quantum", f),
        )
        # Every process body no layer wrapper claims is charged to the
        # module that defines it, not to kernel dispatch.
        self.patch(Simulation, "process", self._process_factory)

        # telemetry: emission, recorder queries, histogram merges.
        # Every record on every bus passes through ``publish``; a record
        # is built and fanned out by one of three emitters.
        self.patch(TelemetryBus, "publish", self._publish_factory)
        for attribute in ("counter", "gauge"):
            self.patch(
                TelemetryBus, attribute,
                lambda f: call("telemetry.publish", f),
            )
        self.patch(Span, "end", lambda f: call("telemetry.publish", f))
        for attribute in ("spans", "counters", "gauges", "counter_total",
                          "children_of"):
            self.patch(
                Recorder, attribute,
                lambda f: call("telemetry.recorder_query", f),
            )
        self.patch(
            LatencyHistogram, "merge",
            lambda f: call("telemetry.histogram_merge", f),
        )
        # replication.heartbeat: each probe-loop resumption.
        self.patch(
            HeartbeatMonitor, "_probe_loop",
            lambda f: gen("replication.heartbeat", f),
        )

        # hardware.link: control messages and bulk transfers.
        self.patch(Link, "message", lambda f: call("hardware.link.message", f))
        self.patch(Link, "transfer", lambda f: call("hardware.link.transfer", f))
        self.patch(Link, "draw_chunk_outcomes", self._draw_factory)

        # vm.dirty and workloads: dirty accounting and tick loops.
        for attribute in ("record", "record_uniform", "record_uniform_spread"):
            self.patch(DirtyLog, attribute, lambda f: call("vm.dirty.record", f))
        for attribute in ("snapshot_and_clear", "peek"):
            self.patch(DirtyLog, attribute, lambda f: call("vm.dirty.snapshot", f))
        self.patch(Workload, "_run", lambda f: gen("workloads.tick", f))

        # replication.pipeline: whole runs and every stage's resumptions.
        self.patch(
            CheckpointPipeline, "run",
            lambda f: gen(
                "replication.pipeline", f,
                on_return=lambda: self.counts.update(("committed",)),
            ),
        )
        for stage_class in _subclasses(Stage):
            if "run" in stage_class.__dict__:
                self.patch(stage_class, "run", self._stage_factory)

        # replication.translator and replication.transport.
        self.patch(
            StateTranslator, "translate",
            lambda f: call("replication.translator", f),
        )
        self.patch(
            CheckpointTransport, "chunk_rounds",
            lambda f: gen(
                "replication.transport.chunk_rounds", f,
                on_first=self._mark_first_round,
            ),
        )
        self.patch(
            CheckpointTransport, "commit_epoch",
            lambda f: gen("replication.transport.commit", f),
        )

        # integrity: scrubber audits and epoch attestation.
        self.patch(IntegrityMonitor, "audit", lambda f: call("integrity.audit", f))
        self.patch(digest, "attest_state", lambda f: call("integrity.attest", f))

        # serving: the PS queue (bound in serving.model by
        # ``from .queue import ps_complete``) and timeline distillation.
        self.patch(
            serving_model, "ps_complete",
            lambda f: call("serving.ps_complete", f, count=_count_requests),
        )
        self.patch(
            ServiceTimeline, "from_recorder",
            lambda f: call("serving.timeline", f),
        )

        # fleet: re-protection queue drain and the control loop.
        self.patch(
            FleetOrchestrator, "_drain_queue",
            lambda f: call("fleet.queue_drain", f),
        )
        self.patch(
            FleetOrchestrator, "_control_loop",
            lambda f: gen("fleet.control", f),
        )

    # -- patch factories needing tracer state --------------------------------
    def _process_factory(self, function):
        wrap = self.generator
        is_traced = self._is_traced

        @functools.wraps(function)
        def process(sim, generator, name=""):
            if not is_traced(generator) and hasattr(generator, "send"):
                inner = generator
                generator = wrap(_process_layer(inner), inner)
                generator.__name__ = getattr(inner, "__name__", "")
            return function(sim, generator, name)

        return process

    def _stage_factory(self, function):
        calls = self.calls
        wrap = self.generator

        @functools.wraps(function)
        def run(stage, ctx):
            name = STAGE_PREFIX + stage.name
            calls[name] += 1
            return wrap(name, function(stage, ctx))

        return run

    def _publish_factory(self, function):
        records = self.records

        @functools.wraps(function)
        def publish(bus, record):
            records(record)
            return function(bus, record)

        return publish

    def _mark_first_round(self, active):
        self._first_round = active

    def _draw_factory(self, function):
        counts = self.counts

        @functools.wraps(function)
        def draw(link, count):
            outcomes = function(link, count)
            if self._first_round:
                self._first_round = False
                counts["first_sends"] += len(outcomes)
                counts["first_delivered"] += outcomes.count("ok")
            return outcomes

        return draw


def _median_pair(pairs):
    insides, outsides = zip(*pairs)
    return statistics.median(insides), statistics.median(outsides)


def _call_n(function, n):
    for _ in range(n):
        function()


def _exhaust(make_generator):
    for _ in make_generator():
        pass


def _subclasses(cls):
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _count_requests(tracer, args, kwargs):
    arrivals = args[0] if args else kwargs["arrivals"]
    tracer.counts["requests"] += len(arrivals)
