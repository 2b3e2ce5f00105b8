"""One measured run of one workload, in a fresh interpreter.

Usage::

    python3 perfbench/child.py --workload NAME --seed N [--setup-only]
                               [--trace] [--spans PATH]

Prints one JSON object on stdout:

* ``setup_s`` — ``import repro`` plus config construction, and
  ``setup_reference_s``, the host-speed reference timed right after;
* ``ops`` — ``[label, digest-or-null, error-or-null, seconds,
  reference_s]`` per operation, where ``reference_s`` is the mean of
  the references timed just before and just after it;
* ``rss_mb`` — this process's peak resident set;
* ``vm_seconds`` — simulated VM-seconds the plan advanced;
* ``layers`` (with ``--trace``) — per-span-name calls and self time,
  plus the outcome counters the wrappers observed.

Tracing wrappers are installed after set-up and removed before the
process reports, so a traced child times the same operations.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(HERE), "src")


#: Iterations of the host-speed reference loop (about 15 ms here).
REFERENCE_ITERATIONS = 45_000


def reference_seconds():
    """Time a fixed pure-Python loop: how fast the host runs right now.

    The loop runs no ``repro`` code, so no change to the program moves
    it; the harness scales every measured interval by the reference
    timed next to it in the same process.
    """
    begin = time.perf_counter()
    table, total, window = {}, 0.0, []
    for i in range(REFERENCE_ITERATIONS):
        key = i & 255
        table[key] = table.get(key, 0) + 1
        total += (i * 0.5) / (key + 1)
        window.append(key)
        if len(window) > 64:
            window.clear()
    return time.perf_counter() - begin


def digest(fingerprint):
    """Short stable digest of one operation's simulated fingerprint."""
    text = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run(args):
    started = time.perf_counter()
    sys.path.insert(0, SOURCE)
    import repro  # noqa: F401  (timed: every CLI call pays this import)
    import workloads

    plan = workloads.prepare(args.workload, args.seed)
    setup_s = time.perf_counter() - started
    before = reference_seconds()
    report = {
        "setup_s": setup_s,
        "setup_reference_s": before,
        "vm_seconds": plan.vm_seconds,
    }
    if args.setup_only:
        return report

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.calibrate()
        tracer.install()
    ops = []
    try:
        for label, thunk in plan.ops:
            begin = time.perf_counter()
            try:
                fingerprint = thunk()
            except Exception:  # one failed operation, the run goes on
                outcome = [None, traceback.format_exc(limit=8)]
            else:
                outcome = [digest(fingerprint), plan.check(label, fingerprint)]
            seconds = time.perf_counter() - begin
            after = reference_seconds()
            ops.append([label, *outcome, seconds, (before + after) / 2])
            before = after
    finally:
        if tracer is not None:
            tracer.remove()
    report.update(
        ops=ops,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        report["layers"] = {
            "self_s": tracer.self_time,
            "calls": dict(tracer.calls),
            "counts": dict(tracer.counts),
            "records": sum(tracer.records.by_name.values()),
            "probes": tracer.records.probes,
            "probe_misses": tracer.records.probe_misses,
            "spans": len(tracer.span_name),
        }
        if args.spans:
            tracer.write(args.spans)
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    json.dump(run(args), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
