"""Recorder queries and reconstruction from serialised rows."""

from repro.simkernel import Simulation
from repro.telemetry import Recorder


def populated():
    sim = Simulation()
    recorder = Recorder.attach(sim.telemetry)
    sim.telemetry.counter("bytes", 10.0, link="a")
    sim.telemetry.counter("bytes", 30.0, link="b")
    sim.telemetry.gauge("depth", 5.0, queue="rx")
    outer = sim.telemetry.span("outer", kind="root")
    inner = sim.telemetry.span("inner", parent=outer)
    inner.end()
    outer.end()
    return recorder


class TestQueries:
    def test_name_filter(self):
        recorder = populated()
        assert len(recorder.counters("bytes")) == 2
        assert recorder.counters("missing") == []

    def test_attr_filter(self):
        recorder = populated()
        [record] = recorder.counters("bytes", link="a")
        assert record.value == 10.0
        assert recorder.counters("bytes", link="zz") == []

    def test_counter_total(self):
        recorder = populated()
        assert recorder.counter_total("bytes") == 40.0
        assert recorder.counter_total("bytes", link="b") == 30.0

    def test_children_of(self):
        recorder = populated()
        [outer] = recorder.spans("outer")
        [inner] = recorder.spans("inner")
        assert recorder.children_of(outer) == [inner]
        assert recorder.children_of(inner) == []

    def test_names_are_distinct_and_sorted(self):
        recorder = populated()
        assert recorder.names() == ["bytes", "depth", "inner", "outer"]

    def test_len_and_clear(self):
        recorder = populated()
        assert len(recorder) == 5
        recorder.clear()
        assert len(recorder) == 0


class TestFromDicts:
    def test_round_trip_through_as_dict(self):
        original = populated()
        rebuilt = Recorder.from_dicts(r.as_dict() for r in original.records)
        assert rebuilt.records == original.records

    def test_span_tree_survives(self):
        original = populated()
        rebuilt = Recorder.from_dicts(r.as_dict() for r in original.records)
        [outer] = rebuilt.spans("outer")
        assert [s.name for s in rebuilt.children_of(outer)] == ["inner"]


class TestBucketedQueries:
    """Name-bucketed queries return exactly what a linear scan does."""

    @staticmethod
    def scan(recorder, kind, name, **filters):
        return [
            r for r in recorder.records
            if isinstance(r, kind)
            and (name is None or r.name == name)
            and all(r.attrs.get(k) == v for k, v in filters.items())
        ]

    def mixed(self):
        sim = Simulation()
        recorder = Recorder.attach(sim.telemetry)
        bus = sim.telemetry
        for index in range(6):
            bus.counter("bytes", float(index), link="ab"[index % 2])
            bus.gauge("depth", float(index), queue="rx" if index < 3 else "tx")
            # One name on two record kinds, as "hypervisor.reboot" is.
            bus.counter("reboot", 1.0, host=f"h{index % 3}")
            bus.span("reboot", host=f"h{index % 3}").end(ok=index % 2 == 0)
        return recorder

    def check_all(self, recorder):
        from repro.telemetry.records import CounterRecord, GaugeRecord, SpanRecord

        queries = [
            (recorder.counters, CounterRecord),
            (recorder.gauges, GaugeRecord),
            (recorder.spans, SpanRecord),
        ]
        filters = [{}, {"link": "a"}, {"queue": "tx"}, {"host": "h1"},
                   {"host": "h1", "ok": False}, {"host": "missing"}]
        for query, kind in queries:
            for name in (None, "bytes", "depth", "reboot", "missing"):
                for attrs in filters:
                    assert query(name, **attrs) == self.scan(
                        recorder, kind, name, **attrs
                    ), (kind, name, attrs)
        assert recorder.names() == sorted({r.name for r in recorder.records})

    def test_queries_match_a_linear_scan(self):
        self.check_all(self.mixed())

    def test_queries_match_after_clear_and_refill(self):
        recorder = self.mixed()
        recorder.clear()
        self.check_all(recorder)
        assert recorder.counters("bytes") == [] and recorder.names() == []
        recorder(populated().records[0])
        self.check_all(recorder)
        assert len(recorder.counters("bytes")) == 1

    def test_from_dicts_buckets_too(self):
        original = self.mixed()
        rebuilt = Recorder.from_dicts(r.as_dict() for r in original.records)
        self.check_all(rebuilt)
        assert rebuilt.spans("reboot", ok=True) == original.spans("reboot", ok=True)
