"""In-memory telemetry subscriber with query helpers.

A :class:`Recorder` keeps every record it receives, in emission order,
and offers the filtered views the analysis layer consumes:
``spans("replication.checkpoint", engine="asr")`` is the shape every
reconstruction (:meth:`repro.replication.checkpoint.ReplicationStats.from_recorder`,
:meth:`repro.migration.stats.MigrationStats.from_recorder`) is built on.
Records are also bucketed by name as they arrive, so a query naming a
record type scans that type's records only, not the whole run.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .records import CounterRecord, GaugeRecord, SpanRecord, record_from_dict


def _matches(record, filters: dict) -> bool:
    for key, wanted in filters.items():
        if record.attrs.get(key) != wanted:
            return False
    return True


class Recorder:
    """Collects every record published on a bus it is subscribed to."""

    def __init__(self):
        #: Every record, in emission order.
        self.records: List = []
        #: The same records by name, each bucket in emission order.
        self._by_name: Dict[str, List] = {}

    def __call__(self, record) -> None:
        self.records.append(record)
        bucket = self._by_name.get(record.name)
        if bucket is None:
            self._by_name[record.name] = [record]
        else:
            bucket.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def clear(self) -> None:
        self.records.clear()
        self._by_name.clear()

    # -- construction ------------------------------------------------------
    @classmethod
    def attach(cls, bus) -> "Recorder":
        """Create a recorder and subscribe it to ``bus``."""
        recorder = cls()
        bus.subscribe(recorder)
        return recorder

    @classmethod
    def from_dicts(cls, rows: Iterable[dict]) -> "Recorder":
        """Rebuild a recorder from ``as_dict`` rows (a parsed trace)."""
        recorder = cls()
        for row in rows:
            recorder(record_from_dict(row))
        return recorder

    # -- queries -----------------------------------------------------------
    def _select(self, kind, name: Optional[str], filters: dict) -> List:
        # One name can label records of several kinds (a span and a
        # counter both called "hypervisor.reboot"), hence the type test.
        pool = self.records if name is None else self._by_name.get(name, ())
        return [r for r in pool if isinstance(r, kind) and _matches(r, filters)]

    def spans(self, name: Optional[str] = None, **attr_filters) -> List[SpanRecord]:
        """Completed spans, filtered by name and exact attr matches."""
        return self._select(SpanRecord, name, attr_filters)

    def counters(self, name: Optional[str] = None, **attr_filters) -> List[CounterRecord]:
        return self._select(CounterRecord, name, attr_filters)

    def gauges(self, name: Optional[str] = None, **attr_filters) -> List[GaugeRecord]:
        return self._select(GaugeRecord, name, attr_filters)

    def counter_total(self, name: str, **attr_filters) -> float:
        """Sum of all increments recorded on counter ``name``."""
        return sum(r.value for r in self.counters(name, **attr_filters))

    def children_of(self, span: SpanRecord) -> List[SpanRecord]:
        """Direct sub-spans of ``span``."""
        return [
            r
            for r in self.records
            if isinstance(r, SpanRecord) and r.parent_id == span.span_id
        ]

    def names(self) -> List[str]:
        """Sorted distinct record names seen so far."""
        return sorted(self._by_name)

    def __repr__(self) -> str:
        return f"<Recorder records={len(self.records)}>"
