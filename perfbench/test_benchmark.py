"""Tests of the benchmark itself: harness, tracer and workload purpose.

Each workload exists to exercise one home layer (``layer_map.json``).
These tests trace one run of every workload and fail when an edit
silently empties a workload of its purpose: the home layer must carry
a tenth of its workload's self time, and the largest share of it
unless ``layer_map.json`` says why not; more than on any other
workload; and next to nothing on the workload named as its bypass.
They also pin that tracing leaves every simulated fingerprint alone.

Run from the repository root::

    python3 -m pytest perfbench/test_benchmark.py
"""

import json
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import tracer  # noqa: E402

with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as _handle:
    LAYER_MAP = json.load(_handle)
WORKLOADS = LAYER_MAP["workloads"]

SEED = 0
#: A home layer carries at least this share of its workload ...
HOME_SHARE = 0.10
#: ... and a bypass workload leaves it at most this share.
BYPASS_SHARE = 0.05


def _child(workload, *flags):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"),
         "--workload", workload, "--seed", str(SEED), *flags],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_generator_wrapper_forwards_send_throw_and_return():
    def body():
        got = yield 1
        try:
            yield got
        except KeyError:
            yield "caught"
        return "done"

    spans = tracer.Tracer()
    wrapped = spans.generator("body", body())
    assert next(wrapped) == 1
    assert wrapped.send(5) == 5
    assert wrapped.throw(KeyError("x")) == "caught"
    with pytest.raises(StopIteration) as stop:
        next(wrapped)
    assert stop.value.value == "done"
    assert len(spans.span_name) == 4 and not spans._stack


def test_self_time_excludes_nested_spans():
    spans = tracer.Tracer()
    inner = spans.call("inner", lambda: time.sleep(0.05))

    def outer_body():
        time.sleep(0.02)
        inner()

    spans.call("outer", outer_body)()
    assert 0.05 <= spans.self_time["inner"] < 0.09
    assert 0.02 <= spans.self_time["outer"] < 0.05
    assert list(spans.span_parent) == [-1, 0]


def test_record_counter_sums_probe_values():
    records = tracer.RecordCounter()
    records(SimpleNamespace(name="heartbeat.probe", value=5.0, attrs={"alive": True}))
    records(SimpleNamespace(name="heartbeat.probe", value=3.0, attrs={"alive": False}))
    assert records.by_name["heartbeat.probe"] == 2
    assert records.probes == 8 and records.probe_misses == 3


def test_benchmark_json_matches_the_harness():
    from workloads import WORKLOADS as NAMED

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(NAMED) == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == list(NAMED.values())
    assert spec["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, reported in layers.METRICS
        if reported
    ]
    assert set(LAYER_MAP["moves"]) == {name for name, *_ in layers.METRICS}


@pytest.fixture(scope="module")
def traced():
    return {workload: _child(workload, "--trace") for workload in WORKLOADS}


@pytest.fixture(scope="module")
def shares(traced):
    return {
        workload: layers.shares(report["layers"]["self_s"])
        for workload, report in traced.items()
    }


def _home_share(shares, workload, home_of):
    return sum(shares[workload][layer] for layer in WORKLOADS[home_of]["home"])


@pytest.mark.parametrize(
    "workload",
    sorted(name for name, spec in WORKLOADS.items() if spec["home_is_largest"]),
)
def test_home_layer_has_the_largest_share(shares, workload):
    home = WORKLOADS[workload]["home"]
    home_share = _home_share(shares, workload, workload)
    others = {
        layer: share
        for layer, share in shares[workload].items()
        if layer not in home
    }
    rival = max(others, key=others.get)
    assert home_share > others[rival], (home, home_share, rival, others[rival])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_home_layer_carries_a_tenth_of_its_workload(shares, workload):
    assert _home_share(shares, workload, workload) >= HOME_SHARE


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_home_layer_peaks_on_its_workload(shares, workload):
    mine = _home_share(shares, workload, workload)
    for other in WORKLOADS:
        if other != workload:
            assert mine > _home_share(shares, other, workload), other


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_bypass_workload_skips_the_home_layer(shares, workload):
    bypass = WORKLOADS[workload]["bypass"]
    assert _home_share(shares, bypass, workload) < BYPASS_SHARE, bypass


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_mapped_metrics_move_on_their_workloads(traced, workload):
    values = layers.derive(traced[workload]["layers"])
    silent = [
        metric
        for metric, target in LAYER_MAP["moves"].items()
        if workload in target["workloads"] and metric in values
        and not values[metric]
    ]
    assert not silent, silent


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tracing_leaves_fingerprints_unchanged(traced, workload):
    untraced = _child(workload)
    assert [op[:3] for op in traced[workload]["ops"]] == [
        op[:3] for op in untraced["ops"]
    ]
    assert all(op[1] is not None and op[2] is None for op in untraced["ops"])
