"""The simulator's benchmark: one command, five named workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload chaos-default --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --write-golden 0-31,2023

Every measured run is a fresh child process (``child.py``), started one
at a time, so peak memory and set-up time belong to that run alone.
With ``--trace 0`` the command repeats the workload's fixed simulated
work until ``--seconds`` have passed and reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced children
and reports the per-layer metrics plus the tracing overhead.

End-to-end metrics (host time, measured with tracing off).  Every time
is scaled to a reference host speed: each child times a fixed
pure-Python loop next to each measured interval, and the interval is
multiplied by ``(REFERENCE_SECONDS / loop time) ** SPEED_ELASTICITY``
(``SETUP_SPEED_ELASTICITY`` for set-up time).  The table also prints
the raw host seconds.

* ``wall_s`` — seconds for one pass over the workload's fixed
  simulated work: per operation, the lower quartile over the run's
  children, summed (the table also shows the run count and whole-run
  quartiles);
* ``vm_s_per_s`` — simulated VM-seconds advanced per host second;
* ``setup_s`` — median ``import repro`` plus config construction in a
  fresh interpreter, over at least seven interpreters;
* ``peak_rss_mb`` — median peak resident set of the measured children.

``failed_frac`` (failed / attempted operations) is printed in the
table; the result line carries it as ``failed`` and ``attempted``.

Each operation's simulated fingerprint is checked against the golden
digest stored for that workload and seed in ``golden.json``.  For a
seed without one, every child must agree with the first, and the
digests are printed so two commits can be compared.  Any failed or
mismatching operation makes the command exit 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
GOLDEN = os.path.join(HERE, "golden.json")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "wall_s": "s",
    "vm_s_per_s": "VM-s/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
#: The host-speed reference loop's duration on the host the benchmark
#: was tuned on (a 2-vCPU x86-64 Xeon VM), and how strongly measured
#: time follows it: between the spells of a shared host the loop runs
#: up to 2.5x faster while the simulator runs about 2.2x and the
#: set-up (imports: unmarshalling, file reads, C code) about 1.9x
#: faster.  Fitted on five ten-seed runs of all five workloads taken
#: in different spells (median loop 5.7 to 14.3 ms), these exponents
#: left the medians of the five within 8% of each other for wall_s
#: and 11% for setup_s (raw medians: up to 2.4x and 2.1x apart).
#: Every reported time is scaled by ``(REFERENCE_SECONDS / loop time)
#: ** exponent``; a change to the simulator still moves it by its own
#: share.
REFERENCE_SECONDS = 0.015
SPEED_ELASTICITY = 0.85
SETUP_SPEED_ELASTICITY = 0.7
#: Minimum measured children per run, whatever ``--seconds`` says.
MIN_RUNS = 3
MIN_TRACED_RUNS = 2
#: Set-up samples per untraced run (children top up the rest).
SETUP_SAMPLES = 7
#: Failures listed in the table before the rest are only counted.
MAX_PROBLEMS = 20
#: Seconds one child may take before the run is abandoned.
CHILD_TIMEOUT = 150


class ChildFailed(RuntimeError):
    pass


def child(workload, seed, *flags):
    """Run one child to completion; returns its JSON report."""
    command = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(
        command + list(flags),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
    )
    if done.returncode != 0:
        raise ChildFailed(
            f"{workload} child exited {done.returncode}:\n{done.stderr[-4000:]}"
        )
    return json.loads(done.stdout.splitlines()[-1])


def load_golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def verify(workload, seed, reports, golden):
    """Count attempted and failed operations across ``reports``.

    Returns ``(attempted, failed, problems, reference)``; ``reference``
    is the golden digest list, or the first child's when none is stored.
    """
    reference = golden.get(workload, {}).get(str(seed))
    attempted = failed = 0
    problems = []
    for report in reports:
        digests = [digest for _label, digest, *_ in report["ops"]]
        if reference is None and None not in digests:
            reference = digests
        for index, (label, digest, error, *_) in enumerate(report["ops"]):
            attempted += 1
            expected = reference[index] if reference and index < len(reference) else None
            if error is not None:
                failed += 1
                problems.append(f"{label}: {error.strip().splitlines()[-1]}")
            elif digest != expected:
                failed += 1
                problems.append(f"{label}: fingerprint {digest}, expected {expected}")
        if reference is not None and len(report["ops"]) != len(reference):
            failed += 1
            attempted += 1
            problems.append(f"{len(report['ops'])} operations, golden has {len(reference)}")
    return attempted, failed, problems, reference


def measure(workload, seed, seconds, trace):
    """All children of one run: ``(untraced, traced, setup_samples)``."""
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(child(workload, seed))
        if trace:
            traced.append(child(workload, seed, "--trace"))
        enough = len(untraced) >= (MIN_TRACED_RUNS if trace else MIN_RUNS)
        if enough and time.perf_counter() >= deadline:
            break
    setups = [(report["setup_s"], report["setup_reference_s"]) for report in untraced]
    if not trace:
        while len(setups) < SETUP_SAMPLES:
            report = child(workload, seed, "--setup-only")
            setups.append((report["setup_s"], report["setup_reference_s"]))
    os.makedirs(OUT, exist_ok=True)
    if trace:
        # Keep the spans of one more traced child, written after its
        # timed region ends.
        spans = os.path.join(OUT, f"spans-{workload}-seed{seed}.npz")
        traced.append(child(workload, seed, "--trace", "--spans", spans))
    # Every child's raw report, so any run can be re-examined later.
    path = os.path.join(OUT, f"children-{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"untraced": untraced, "traced": traced, "setups": setups}, handle)
    return untraced, traced, setups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    low, _median, high = statistics.quantiles(values, n=4)
    return low, high


def at_reference_speed(seconds, reference_s, elasticity=SPEED_ELASTICITY):
    """``seconds`` measured while the reference loop took ``reference_s``."""
    return seconds * (REFERENCE_SECONDS / reference_s) ** elasticity


def fixed_work_seconds(reports, scaled=True):
    """Seconds of one pass over the plan's operations.

    The sum, over operations, of the lower quartile of each operation's
    times across the children: a slow spell on a shared host then spoils
    the few operations it overlaps instead of every child it touches,
    and since interference only ever slows a run, the lower quartile
    tracks the operation's own cost more steadily than the median (over
    five ten-seed sets it cut the largest spread of wall_s from 12% to
    9% and the largest drift between the sets' medians from 14% to 8%).
    ``scaled`` times are at reference speed; otherwise raw host seconds.
    """
    per_op = zip(*(
        [at_reference_speed(op[3], op[4]) if scaled else op[3] for op in report["ops"]]
        for report in reports
    ))
    return sum(
        statistics.quantiles(times, n=4, method="inclusive")[0] for times in per_op
    )


def end_to_end(untraced, setups):
    wall = fixed_work_seconds(untraced)
    return {
        "wall_s": wall,
        "vm_s_per_s": untraced[0]["vm_seconds"] / wall,
        "setup_s": statistics.median(
            at_reference_speed(*pair, SETUP_SPEED_ELASTICITY) for pair in setups
        ),
        "peak_rss_mb": statistics.median(report["rss_mb"] for report in untraced),
    }


def per_layer(untraced, traced):
    """Median of each per-layer metric across traced children.

    Layer times are scaled to reference speed like the end-to-end ones.
    """
    derived = []
    for report in traced:
        row = layers.derive(report["layers"])
        speed = at_reference_speed(1.0, statistics.median(op[4] for op in report["ops"]))
        for name, unit, _better, _reported in layers.METRICS:
            if unit in ("s", "ns"):
                row[name] *= speed
        derived.append(row)
    values = {
        name: statistics.median(row[name] for row in derived)
        for name in derived[0]
    }
    values["trace.overhead_frac"] = (
        fixed_work_seconds(traced) / fixed_work_seconds(untraced) - 1.0
    )
    return values


def run_workload(workload, seed, seconds, trace, golden):
    """One workload's run: ``(attempted, failed, metrics, lines)``."""
    untraced, traced, setups = measure(workload, seed, seconds, trace)
    attempted, failed, problems, reference = verify(
        workload, seed, untraced + traced, golden
    )
    lines = [f"== {workload} (seed {seed}, {len(untraced)} untraced runs"
             + (f", {len(traced)} traced runs)" if trace else ")")]
    if str(seed) not in golden.get(workload, {}):
        lines.append(f"   no golden for seed {seed}; fingerprint digests: "
                     + ",".join(reference or []))
    lines.extend(f"   FAILED {problem}" for problem in problems[:MAX_PROBLEMS])
    if len(problems) > MAX_PROBLEMS:
        lines.append(f"   ... and {len(problems) - MAX_PROBLEMS} more failures")
    lines.append(f"   failed_frac      {failed / attempted:.6f} ({failed}/{attempted} operations)")
    if not trace:
        metrics = end_to_end(untraced, setups)
        walls = [sum(op[3] for op in report["ops"]) for report in untraced]
        low, high = quartiles(walls)
        references = [report["setup_reference_s"] for report in untraced]
        lines.append(f"   wall_s           {metrics['wall_s']:.4f} s  (per-operation lower quartiles "
                     f"of {len(walls)} runs, at reference speed)")
        lines.append(f"   raw host wall    {fixed_work_seconds(untraced, scaled=False):.4f} s  "
                     f"(whole-run quartiles {low:.4f}..{high:.4f}); reference loop "
                     f"{statistics.median(references) * 1e3:.2f} ms vs {REFERENCE_SECONDS * 1e3:.2f} ms")
        lines.append(f"   vm_s_per_s       {metrics['vm_s_per_s']:.1f} VM-s/s  "
                     f"({untraced[0]['vm_seconds']:.0f} VM-s per run)")
        lines.append(f"   setup_s          {metrics['setup_s']:.4f} s  (median of {len(setups)}, "
                     f"at reference speed; raw {statistics.median(s for s, _ in setups):.4f} s)")
        lines.append(f"   peak_rss_mb      {metrics['peak_rss_mb']:.1f} MiB")
        result = {name: (value, END_TO_END[name]) for name, value in metrics.items()}
    else:
        metrics = per_layer(untraced, traced)
        result = {}
        for name, unit, _better, reported in layers.METRICS:
            value = metrics[name]
            marker = "" if reported else "  (table only)"
            lines.append(f"   {name:42s} {value:.6g} {unit}{marker}")
            if reported:
                result[name] = (value, unit)
        path = os.path.join(OUT, f"layers-{workload}-seed{seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(metrics, handle, indent=1, sort_keys=True)
    return attempted, failed, result, lines


def write_golden(seeds):
    """Record one untraced child's digests per workload and seed."""
    golden = load_golden() if os.path.exists(GOLDEN) else {}
    for workload in WORKLOADS:
        for seed in seeds:
            report = child(workload, seed)
            errors = [error for _label, _digest, error, *_ in report["ops"] if error]
            if errors:
                raise ChildFailed(f"{workload} seed {seed}: {errors[0]}")
            golden.setdefault(workload, {})[str(seed)] = [
                digest for _label, digest, *_ in report["ops"]
            ]
            print(f"{workload} seed {seed}: {len(report['ops'])} operations", flush=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", metavar="SEEDS",
                        help="record golden digests for e.g. 0-31,2023")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: no simulator source at src/repro; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    try:
        if args.write_golden:
            write_golden(parse_seeds(args.write_golden))
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        golden = load_golden()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        attempted = failed = 0
        metrics = {}
        for name in names:
            done, bad, result, lines = run_workload(
                name, args.seed, args.seconds, args.trace, golden
            )
            attempted += done
            failed += bad
            print("\n".join(lines), flush=True)
            for metric, (value, unit) in result.items():
                key = metric if len(names) == 1 else f"{name}.{metric}"
                metrics[key] = {"value": value, "unit": unit}
    except (ChildFailed, subprocess.TimeoutExpired, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
