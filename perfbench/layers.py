"""Per-layer metrics derived from one traced child's span totals.

Layers are named after ``repro`` modules.  Each traced span name maps
to one layer (:func:`layer_of`); a layer's self time is the sum of its
spans' self times, and its *share* is that over the traced run's total
self time.

:data:`METRICS` lists every per-layer metric as ``(name, unit,
better, reported)``.  ``reported`` metrics go into the benchmark's
machine-readable result line; the rest are layer times that read zero
on every workload that bypasses the layer, so they are printed in the
table and written to the run's layer file only.
"""

#: Checkpoint stages present in every workload's pipelines.
STAGES = (
    "pause", "capture-dirty", "compress", "transfer", "extract-state",
    "translate", "ship-state", "await-ack", "resume", "commit-release",
)

LAYERS = (
    "simkernel", "telemetry", "replication.heartbeat", "hardware.link",
    "vm.dirty", "workloads", "replication.pipeline",
    "replication.translator", "replication.transport", "integrity",
    "serving", "fleet", "process",
)


def _metric_name(stage):
    return "replication.pipeline." + stage.replace("-", "_") + "_s"


METRICS = (
    [
        ("simkernel.events", "count", "lower", True),
        ("simkernel.self_s", "s", "lower", True),
        ("simkernel.ns_per_event", "ns", "lower", True),
        ("simkernel.quanta", "count", "lower", True),
        ("simkernel.step_quantum_s", "s", "lower", False),
        ("telemetry.records", "count", "lower", True),
        ("telemetry.publish_s", "s", "lower", True),
        ("telemetry.recorder_query_s", "s", "lower", False),
        ("telemetry.histogram_merge_s", "s", "lower", False),
        ("replication.heartbeat.probes", "count", "lower", True),
        ("replication.heartbeat.self_s", "s", "lower", True),
        ("replication.heartbeat.miss_ratio", "ratio", "lower", True),
        ("hardware.link.messages", "count", "lower", True),
        ("hardware.link.message_s", "s", "lower", True),
        ("hardware.link.transfers", "count", "lower", True),
        ("hardware.link.transfer_s", "s", "lower", True),
        ("vm.dirty.record_calls", "count", "lower", True),
        ("vm.dirty.record_s", "s", "lower", False),
        ("vm.dirty.snapshot_s", "s", "lower", True),
        ("workloads.tick_s", "s", "lower", False),
    ]
    + [(_metric_name(stage), "s", "lower", True) for stage in STAGES]
    + [
        ("replication.pipeline.attest_s", "s", "lower", False),
        ("replication.pipeline.checkpoints", "count", "higher", True),
        ("replication.pipeline.commit_ratio", "ratio", "higher", True),
        ("replication.translator.calls", "count", "lower", True),
        ("replication.translator.translate_s", "s", "lower", True),
        ("replication.transport.chunks", "count", "higher", True),
        ("replication.transport.chunk_rounds_s", "s", "lower", False),
        ("replication.transport.commit_s", "s", "lower", False),
        ("replication.transport.delivered_ratio", "ratio", "higher", True),
        ("integrity.audits", "count", "higher", True),
        ("integrity.audit_s", "s", "lower", False),
        ("integrity.attests", "count", "higher", True),
        ("integrity.attest_s", "s", "lower", False),
        ("serving.requests", "count", "higher", True),
        ("serving.ps_complete_s", "s", "lower", False),
        ("serving.ns_per_request", "ns", "lower", False),
        ("serving.timeline_s", "s", "lower", False),
        ("fleet.queue_drain_s", "s", "lower", False),
        ("fleet.control_s", "s", "lower", False),
    ]
    + [(layer + ".share", "frac", "lower", True) for layer in LAYERS]
    + [
        ("trace.spans", "count", "lower", True),
        ("trace.overhead_frac", "frac", "lower", True),
    ]
)


def layer_of(span_name):
    """The layer a traced span name belongs to."""
    if span_name.startswith("process."):
        return "process"
    best = ""
    for layer in LAYERS:
        if (span_name == layer or span_name.startswith(layer + ".")) and len(layer) > len(best):
            best = layer
    if not best:
        raise KeyError(f"span {span_name!r} belongs to no layer")
    return best


def shares(self_s):
    """Layer -> share of the traced run's total self time."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in self_s.items():
        totals[layer_of(name)] += seconds
    whole = sum(totals.values()) or 1.0
    return {layer: seconds / whole for layer, seconds in totals.items()}


def _ratio(numerator, denominator):
    """A ratio with its base; 0 when the base is 0 (nothing attempted)."""
    return numerator / denominator if denominator else 0.0


def derive(layers):
    """Every metric of :data:`METRICS` from one traced child's report."""
    self_s = layers["self_s"]
    calls = layers["calls"]
    counts = layers["counts"]

    def seconds(*names):
        return sum(self_s.get(name, 0.0) for name in names)

    events = calls.get("simkernel", 0)
    kernel_s = seconds("simkernel", "simkernel.run", "simkernel.step_quantum")
    requests = counts.get("requests", 0)
    ps_complete_s = seconds("serving.ps_complete")
    checkpoints = calls.get("replication.pipeline", 0)
    values = {
        "simkernel.events": events,
        "simkernel.self_s": kernel_s,
        "simkernel.ns_per_event": 1e9 * _ratio(kernel_s, events),
        "simkernel.quanta": calls.get("simkernel.step_quantum", 0),
        "simkernel.step_quantum_s": seconds("simkernel.step_quantum"),
        "telemetry.records": layers["records"],
        "telemetry.publish_s": seconds("telemetry.publish"),
        "telemetry.recorder_query_s": seconds("telemetry.recorder_query"),
        "telemetry.histogram_merge_s": seconds("telemetry.histogram_merge"),
        "replication.heartbeat.probes": layers["probes"],
        "replication.heartbeat.self_s": seconds("replication.heartbeat"),
        "replication.heartbeat.miss_ratio": _ratio(
            layers["probe_misses"], layers["probes"]
        ),
        "hardware.link.messages": calls.get("hardware.link.message", 0),
        "hardware.link.message_s": seconds("hardware.link.message"),
        "hardware.link.transfers": calls.get("hardware.link.transfer", 0),
        "hardware.link.transfer_s": seconds("hardware.link.transfer"),
        "vm.dirty.record_calls": calls.get("vm.dirty.record", 0),
        "vm.dirty.record_s": seconds("vm.dirty.record"),
        "vm.dirty.snapshot_s": seconds("vm.dirty.snapshot"),
        "workloads.tick_s": seconds("workloads.tick"),
        "replication.pipeline.attest_s": seconds("replication.pipeline.attest"),
        "replication.pipeline.checkpoints": checkpoints,
        "replication.pipeline.commit_ratio": _ratio(
            counts.get("committed", 0), checkpoints
        ),
        "replication.translator.calls": calls.get("replication.translator", 0),
        "replication.translator.translate_s": seconds("replication.translator"),
        "replication.transport.chunks": counts.get("first_sends", 0),
        "replication.transport.chunk_rounds_s": seconds(
            "replication.transport.chunk_rounds"
        ),
        "replication.transport.commit_s": seconds("replication.transport.commit"),
        "replication.transport.delivered_ratio": _ratio(
            counts.get("first_delivered", 0), counts.get("first_sends", 0)
        ),
        "integrity.audits": calls.get("integrity.audit", 0),
        "integrity.audit_s": seconds("integrity.audit"),
        "integrity.attests": calls.get("integrity.attest", 0),
        "integrity.attest_s": seconds("integrity.attest"),
        "serving.requests": requests,
        "serving.ps_complete_s": ps_complete_s,
        "serving.ns_per_request": 1e9 * _ratio(ps_complete_s, requests),
        "serving.timeline_s": seconds("serving.timeline"),
        "fleet.queue_drain_s": seconds("fleet.queue_drain"),
        "fleet.control_s": seconds("fleet.control"),
        "trace.spans": layers["spans"],
    }
    for stage in STAGES:
        values[_metric_name(stage)] = seconds("replication.pipeline." + stage)
    for layer, share in shares(self_s).items():
        values[layer + ".share"] = share
    return values
