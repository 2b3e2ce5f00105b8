"""Command-line interface: ``python -m repro <command>``.

A thin operational front end over the library, mirroring what an
operator would do with the real system's tooling:

* ``repro demo``       — the DoS-attack-to-failover kill chain;
* ``repro replicate``  — protect a loaded VM and report statistics;
* ``repro migrate``    — one live migration, Xen stock vs HERE;
* ``repro table1``     — the vulnerability study (Table 1);
* ``repro coverage``   — the Table 2 coverage matrix, derived live;
* ``repro fleet``      — a fleet-scale campaign on the sharded kernel:
  correlated outage -> failovers -> queued re-protection onto spares;
* ``repro serve``      — user-visible tail latency (p50/p99/p999, SLO
  violations) of one crash under every fault-tolerance strategy;
* ``repro sweep``      — a parallel, cached experiment sweep with
  optional regression gating (``--baseline``);
* ``repro experiments``— list every table/figure benchmark and how to
  run it.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from .analysis import render_table
from .cluster import DeploymentSpec, ProtectedDeployment, ScenarioRunner
from .hardware.units import GIB
from .security import build_default_database, table1_stats
from .workloads import MemoryMicrobenchmark


def _positive_int(text: str) -> int:
    """argparse type: an integer strictly greater than zero."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def _positive_float(text: str) -> float:
    """argparse type: a finite float strictly greater than zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {text}"
        )
    return value


def _probability(text: str) -> float:
    """argparse type: a float in the closed interval [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be a probability in [0, 1], got {text}"
        )
    return value


def _non_negative_int(text: str) -> int:
    """argparse type: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {value}"
        )
    return value


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="stream a JSONL telemetry trace of the run to PATH",
    )


def _attach_trace(sim, args):
    """Subscribe a JSONL trace writer if ``--trace`` was given.

    Subscribing enables the bus; returns the writer (close it when the
    run completes) or None when tracing is off.
    """
    if getattr(args, "trace", None) is None:
        return None
    from .telemetry import TraceWriter

    writer = TraceWriter(args.trace)
    sim.telemetry.subscribe(writer)
    return writer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "HERE: heterogeneous VM replication (Middleware '23) — "
            "simulated testbed CLI"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser(
        "demo", help="DoS exploit -> heterogeneous failover kill chain"
    )
    demo.add_argument("--seed", type=int, default=7)

    replicate = subparsers.add_parser(
        "replicate", help="protect a loaded VM and report statistics"
    )
    replicate.add_argument(
        "--engine", choices=["here", "remus", "colo"], default="here"
    )
    replicate.add_argument(
        "--period", type=float, default=5.0,
        help="Remus period / HERE T_max (seconds)",
    )
    replicate.add_argument(
        "--comparison-interval", type=float, default=0.02,
        help="COLO output-comparison interval (seconds)",
    )
    replicate.add_argument(
        "--degradation", type=float, default=0.0,
        help="HERE's target degradation D in [0, 1); 0 pins T to T_max",
    )
    replicate.add_argument("--memory-gib", type=float, default=8.0)
    replicate.add_argument(
        "--load", type=float, default=0.3,
        help="memory microbenchmark load fraction",
    )
    replicate.add_argument("--duration", type=float, default=120.0)
    replicate.add_argument("--seed", type=int, default=0)
    _add_trace_argument(replicate)

    migrate = subparsers.add_parser(
        "migrate", help="one live migration (Xen stock vs HERE)"
    )
    migrate.add_argument("--mode", choices=["xen", "here"], default="here")
    migrate.add_argument("--memory-gib", type=float, default=8.0)
    migrate.add_argument("--load", type=float, default=0.0)
    migrate.add_argument("--seed", type=int, default=0)
    _add_trace_argument(migrate)

    subparsers.add_parser(
        "table1", help="Table 1: DoS vulnerability statistics"
    )
    coverage = subparsers.add_parser(
        "coverage", help="Table 2: coverage matrix from live scenarios"
    )
    coverage.add_argument("--seed", type=int, default=11)

    plan = subparsers.add_parser(
        "plan", help="heterogeneous replica placement for a fleet"
    )
    plan.add_argument("--xen-hosts", type=int, default=1)
    plan.add_argument("--kvm-hosts", type=int, default=2)
    plan.add_argument("--host-memory-gib", type=float, default=64.0)
    plan.add_argument(
        "--vms", default="db:32,web:8,cache:16",
        help="comma list of name:memory_gib entries (primaries on Xen)",
    )

    chaos = subparsers.add_parser(
        "chaos",
        help="seeded chaos campaign: faults -> failover -> re-protection",
    )
    chaos.add_argument(
        "--preset",
        choices=["default", "lossy", "fleet", "recovery", "corruption"],
        default="default",
        help="'lossy' draws link impairments and runs the hardened "
             "transport (reliable chunked commit + degradation ladder); "
             "'fleet' runs each trial as a fleet-scale zone-outage "
             "campaign on the sharded kernel; 'recovery' draws "
             "hypervisor crashes/hangs and answers them with the "
             "hybrid microreboot-then-failover policy; 'corruption' "
             "injects silent state corruption (translator drift, "
             "replica bitrot, torn applies) and arms the integrity "
             "overlay — attestation, scrubbing, repair escalation",
    )
    chaos.add_argument("--zones", type=_positive_int, default=3,
                       help="fleet preset: availability zones")
    chaos.add_argument("--spares", type=_positive_int, default=3,
                       help="fleet preset: spare-pool hosts")
    chaos.add_argument("--quantum", type=_positive_float, default=0.5,
                       help="fleet preset: sharded-kernel quantum (seconds)")
    chaos.add_argument("--trials", type=_positive_int, default=3)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--vms", type=_positive_int, default=2)
    chaos.add_argument("--faults", type=_positive_int, default=1,
                       help="faults injected per trial")
    chaos.add_argument(
        "--detector", choices=["heartbeat", "phi"], default="heartbeat",
        help="failure detector: fixed miss threshold or adaptive phi-accrual",
    )
    chaos.add_argument(
        "--kinds", default=None,
        help="comma list of fault kinds to draw from (default depends "
             "on --preset)",
    )
    chaos.add_argument("--miss-threshold", type=_positive_int, default=3,
                       help="consecutive heartbeat misses before failover")
    chaos.add_argument(
        "--degraded-miss-threshold", type=_positive_int, default=None,
        help="misses tolerated while the transport reports the link "
             "lossy-but-alive (default 12 under --preset lossy)",
    )
    chaos.add_argument("--recovery-time", type=_positive_float, default=60.0,
                       help="seconds each trial runs after the fault window")
    chaos.add_argument(
        "--recovery-policy",
        choices=["failover", "recover-in-place", "hybrid"], default=None,
        help="answer to a dead primary hypervisor: replica failover "
             "(default), ReHype-style in-place microreboot, or "
             "microreboot with failover fallback (default under "
             "--preset recovery: hybrid)",
    )
    chaos.add_argument(
        "--recovery-success-prob", type=_probability, default=None,
        help="override every fault class's microreboot success "
             "probability with one value in [0, 1] (default: per-class "
             "model — crash 0.88, hang 0.94, CVE 0.76)",
    )
    chaos.add_argument(
        "--recovery-rebuild-min", type=_positive_float, default=0.15,
        help="lower bound of the seeded hypervisor rebuild-time draw (s)",
    )
    chaos.add_argument(
        "--recovery-rebuild-max", type=_positive_float, default=0.45,
        help="upper bound of the seeded hypervisor rebuild-time draw (s)",
    )
    chaos.add_argument(
        "--recovery-deadline", type=_positive_float, default=2.0,
        help="escalate a microreboot still in flight after this long (s)",
    )
    chaos.add_argument(
        "--serving-users", type=_non_negative_int, default=0,
        help="serving overlay: open-loop users whose tail latency each "
             "trial measures post hoc from the bus (0 = off, the "
             "default — fingerprints and traces are unchanged)",
    )
    chaos.add_argument(
        "--serving-rate-per-user", type=_positive_float, default=0.01,
        help="serving overlay: requests per second per user",
    )
    chaos.add_argument(
        "--serving-demand", type=_positive_float, default=0.0005,
        help="serving overlay: per-request service demand (seconds)",
    )
    chaos.add_argument(
        "--serving-slo", type=_positive_float, default=0.25,
        help="serving overlay: latency SLO (seconds); lost or "
             "over-SLO requests count as violations",
    )
    chaos.add_argument(
        "--serving-hedge", type=_probability, default=0.0,
        help="serving overlay: probability a request is cloned to the "
             "replica (first response wins)",
    )
    chaos.add_argument(
        "--integrity", action="store_true",
        help="arm the checkpoint-integrity overlay (epoch attestation, "
             "background replica scrubbing, repair escalation) on every "
             "engine; implied by --preset corruption",
    )
    chaos.add_argument(
        "--scrub-interval", type=_positive_float, default=0.25,
        help="integrity overlay: seconds between scrubber audit passes",
    )
    chaos.add_argument(
        "--scrub-bandwidth-gib", type=_positive_float, default=2.0,
        help="integrity overlay: audit bandwidth budget (GiB/s of "
             "replica state re-read per scrub pass)",
    )
    chaos.add_argument(
        "--promote-suspect-replicas", action="store_true",
        help="integrity overlay: let failover promote a replica whose "
             "state is corruption-suspect or quarantined (default: "
             "refuse and alarm)",
    )
    _add_trace_argument(chaos)

    serve = subparsers.add_parser(
        "serve",
        help="user-visible tail latency of one crash under every "
             "fault-tolerance strategy",
    )
    serve.add_argument(
        "--strategy",
        choices=["all", "remus", "here", "colo", "failover",
                 "hybrid-recovery"],
        default="all",
        help="run one strategy or the whole five-way comparison",
    )
    serve.add_argument("--users", type=_positive_int, default=50_000,
                       help="open-loop users in the served population")
    serve.add_argument("--rate-per-user", type=_positive_float, default=0.02,
                       help="requests per second per user")
    serve.add_argument(
        "--demand", type=_positive_float, default=0.0005,
        help="per-request service demand at full capacity (seconds)",
    )
    serve.add_argument("--slo", type=_positive_float, default=0.25,
                       help="latency SLO (seconds)")
    serve.add_argument(
        "--hedge", type=_probability, default=0.0,
        help="probability a request is cloned to the replica; > 0 adds "
             "the hedged columns to the table",
    )
    serve.add_argument("--duration", type=_positive_float, default=12.0,
                       help="serving window length (simulated seconds)")
    serve.add_argument(
        "--crash-at", type=_positive_float, default=6.0,
        help="primary-hypervisor crash offset into the window (seconds)",
    )
    serve.add_argument("--seed", type=int, default=0)

    fleet = subparsers.add_parser(
        "fleet",
        help="fleet-scale campaign: zone outage -> failovers -> "
             "queued re-protection onto spares",
    )
    fleet.add_argument("--zones", type=_positive_int, default=3)
    fleet.add_argument("--racks", type=_positive_int, default=2,
                       help="racks per zone")
    fleet.add_argument("--hosts-per-rack", type=_positive_int, default=2)
    fleet.add_argument("--spares", type=_positive_int, default=3,
                       help="spare-pool hosts (round-robined over zones)")
    fleet.add_argument("--vms", type=_positive_int, default=8)
    fleet.add_argument("--vm-memory-mib", type=_positive_float, default=256.0)
    fleet.add_argument(
        "--quantum", type=_positive_float, default=0.5,
        help="sharded-kernel quantum = control-loop cadence (seconds)",
    )
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--faults", type=_positive_int, default=1)
    fleet.add_argument(
        "--kind",
        choices=[
            "zone-outage", "rack-outage",
            "hypervisor-crash", "hypervisor-hang",
        ],
        default="zone-outage",
        help="which fault kind the campaign draws: correlated outages "
             "(zone/rack) or per-host hypervisor faults (the "
             "microreboot-recoverable class)",
    )
    fleet.add_argument("--settle-time", type=_positive_float, default=3.0,
                       help="protection warm-up before the fault window")
    fleet.add_argument("--fault-window", type=_positive_float, default=5.0)
    fleet.add_argument("--recovery-time", type=_positive_float, default=30.0)
    fleet.add_argument(
        "--anti-affinity", choices=["none", "rack", "zone"], default="zone",
        help="failure-domain separation the planner enforces per pair",
    )
    fleet.add_argument(
        "--max-vms-per-link", type=_positive_int, default=None,
        help="link budget: VMs sharing one replication pair",
    )
    fleet.add_argument(
        "--recovery-policy",
        choices=["failover", "recover-in-place", "hybrid"],
        default="failover",
        help="fleet-wide answer to a dead primary hypervisor "
             "(zone overrides are available on FleetSpec)",
    )

    sweep = subparsers.add_parser(
        "sweep",
        help="parallel, cached experiment sweep with regression gating",
    )
    sweep.add_argument(
        "--preset",
        choices=["chaos", "lossy", "corruption", "fleet", "serving",
                 "ycsb", "table6"],
        default="chaos",
        help="which built-in trial matrix to run",
    )
    sweep.add_argument("--trials", type=_positive_int, default=4,
                       help="trial count (chaos preset)")
    sweep.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes (1 = in-process serial)")
    sweep.add_argument("--seed", type=int, default=None,
                       help="sweep seed (default: 0 for chaos, the "
                            "benchmark seed for ycsb/table6)")
    sweep.add_argument("--duration", type=float, default=None,
                       help="per-trial measure window in simulated "
                            "seconds (ycsb/table6 presets)")
    sweep.add_argument("--recovery-time", type=_positive_float, default=30.0,
                       help="chaos/fleet presets: post-fault run time "
                            "per trial")
    sweep.add_argument("--zones", type=_positive_int, default=3,
                       help="fleet preset: availability zones per trial")
    sweep.add_argument("--spares", type=_positive_int, default=3,
                       help="fleet preset: spare-pool hosts per trial")
    sweep.add_argument("--quantum", type=_positive_float, default=0.5,
                       help="fleet preset: sharded-kernel quantum (seconds)")
    sweep.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="content-addressed result cache "
                            "(default .repro-results)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="ignore cached results; re-run and refresh")
    sweep.add_argument("--log", default=None, metavar="PATH",
                       help="JSONL sweep log (default "
                            "<cache-dir>/sweeps.jsonl)")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-trial wall-clock timeout in seconds")
    sweep.add_argument("--retries", type=_non_negative_int, default=0,
                       help="retries for crashed/timed-out trials")
    sweep.add_argument("--baseline", default=None, metavar="PATH",
                       help="gate the sweep against this BENCH json")
    sweep.add_argument("--tolerance", type=float, default=0.05,
                       help="relative per-metric gate tolerance")
    sweep.add_argument("--emit-bench", default=None, metavar="PATH",
                       help="write the BENCH_sweep.json payload to PATH")

    profile = subparsers.add_parser(
        "profile",
        help="run a campaign under cProfile and rank host-time hot spots",
    )
    profile.add_argument(
        "--preset", choices=["chaos", "fleet", "serving"], default="chaos",
        help="which campaign to profile (serving: one five-way "
             "ServingStudy at StudyConfig defaults)",
    )
    profile.add_argument("--trials", type=_positive_int, default=2,
                         help="chaos preset: trials per run")
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument(
        "--sort", choices=["cumulative", "tottime", "ncalls"],
        default="cumulative", help="pstats sort key",
    )
    profile.add_argument("--limit", type=_positive_int, default=20,
                         help="rows of profiler output to print")
    profile.add_argument(
        "--spans", action="store_true",
        help="also attribute host time to telemetry record names "
             "(attaches a WallClockSampler to the bus)",
    )

    subparsers.add_parser(
        "experiments", help="list every paper table/figure benchmark"
    )
    return parser


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_demo(args) -> int:
    from .security import (
        ExploitInjector,
        ExploitSource,
        PostAttackOutcome,
        pick_dos_exploit,
    )

    deployment = ProtectedDeployment(
        DeploymentSpec(engine="here", period=2.0, memory_bytes=4 * GIB,
                       seed=args.seed)
    )
    MemoryMicrobenchmark(deployment.sim, deployment.vm, load=0.2).start()
    deployment.start_protection()
    deployment.attach_service()
    sim = deployment.sim
    exploit = pick_dos_exploit(
        build_default_database(), "Xen",
        source=ExploitSource.GUEST_USER,
        outcome=PostAttackOutcome.CRASH, seed=args.seed,
    )
    injector = ExploitInjector(sim)
    attack_time = sim.now + 10.0
    injector.launch_at(exploit, deployment.primary, attack_time)
    report = sim.run_until_triggered(
        deployment.failover.completed, limit=sim.now + 60.0
    )
    print(f"exploit:        {exploit.cve.cve_id} "
          f"({exploit.cve.attack_vector.value})")
    print(f"first shot:     {injector.log[0].detail}")
    print(f"detection:      {report.detected_at - attack_time:.3f}s "
          f"after the attack")
    print(f"resumption:     {report.resumption_time * 1000:.1f} ms on "
          f"{report.replica_hypervisor}")
    second = injector.launch(exploit, deployment.secondary)
    print(f"second shot:    {'SUCCEEDED' if second.succeeded else 'BOUNCED'}"
          f" — {second.detail}")
    return 0


def _cmd_replicate(args) -> int:
    if not 0.0 <= args.degradation < 1.0:
        print("error: --degradation must be in [0, 1)", file=sys.stderr)
        return 2
    period = args.period if args.period > 0 else math.inf
    deployment = ProtectedDeployment(
        DeploymentSpec(
            engine=args.engine,
            # Remus and COLO both need matching device models on the
            # two sides; only HERE crosses hypervisor families.
            secondary_flavor="kvm" if args.engine == "here" else "xen",
            period=period,
            comparison_interval=args.comparison_interval,
            target_degradation=args.degradation,
            memory_bytes=int(args.memory_gib * GIB),
            seed=args.seed,
        )
    )
    trace = _attach_trace(deployment.sim, args)
    workload = MemoryMicrobenchmark(
        deployment.sim, deployment.vm, load=args.load
    )
    workload.start()
    deployment.start_protection()
    mark = workload.mark()
    try:
        deployment.run_for(args.duration)
        # Measure before the trace close-out below extends the run,
        # so traced and untraced invocations report identical tables.
        throughput = workload.throughput_since(mark)
        if trace is not None:
            # Close the session cleanly so the trace carries the
            # whole-run replication.session span.
            deployment.engine.halt("run complete")
            deployment.run_for(1.0)
    finally:
        if trace is not None:
            trace.close()
    stats = deployment.stats
    workload_rows = [
        {"metric": "workload ops/s", "value": throughput},
        {"metric": "workload slowdown (%)",
         "value": 100 * (1 - throughput / workload.work_rate())
         if workload.work_rate() else 0.0},
    ]
    if args.engine == "colo":
        print(render_table([
            {"metric": "engine", "value": args.engine},
            {"metric": "comparison interval (s)",
             "value": args.comparison_interval},
            {"metric": "seeding (s)", "value": stats.seeding_duration},
            {"metric": "comparisons", "value": stats.comparison_count},
            {"metric": "divergences", "value": stats.divergence_count},
            {"metric": "divergence rate (%)",
             "value": stats.divergence_rate * 100},
            {"metric": "total sync (s)", "value": stats.total_sync_time()},
        ] + workload_rows))
        return 0
    print(render_table([
        {"metric": "engine", "value": args.engine},
        {"metric": "controller",
         "value": deployment.engine.config.controller.describe()},
        {"metric": "seeding (s)", "value": stats.seeding_duration},
        {"metric": "checkpoints", "value": stats.checkpoint_count},
        {"metric": "mean period (s)", "value": stats.mean_period()},
        {"metric": "mean pause (ms)",
         "value": stats.mean_pause_duration() * 1000},
        {"metric": "mean degradation (%)",
         "value": stats.mean_degradation() * 100},
    ] + workload_rows))
    return 0


def _cmd_migrate(args) -> int:
    from .hardware import build_testbed
    from .hypervisor import KvmHypervisor, XenHypervisor
    from .migration import MigrationConfig, MigrationEngine, MigrationMode
    from .simkernel import Simulation
    from .workloads import IdleWorkload

    sim = Simulation(seed=args.seed)
    testbed = build_testbed(sim)
    xen = XenHypervisor(sim, testbed.primary)
    mode = (
        MigrationMode.XEN_DEFAULT if args.mode == "xen" else MigrationMode.HERE
    )
    if mode is MigrationMode.XEN_DEFAULT:
        destination = XenHypervisor(sim, testbed.secondary)
    else:
        destination = KvmHypervisor(sim, testbed.secondary)
    vm = xen.create_vm(
        "guest", vcpus=4, memory_bytes=int(args.memory_gib * GIB)
    )
    vm.start()
    if args.load > 0:
        MemoryMicrobenchmark(sim, vm, load=args.load).start()
    else:
        IdleWorkload(sim, vm).start()
    engine = MigrationEngine(
        sim, xen, destination, testbed.interconnect,
        config=MigrationConfig(mode=mode),
    )
    trace = _attach_trace(sim, args)
    process = sim.process(engine.migrate("guest"))
    try:
        stats = sim.run_until_triggered(process, limit=1e6)
    finally:
        if trace is not None:
            trace.close()
    print(render_table([stats.summary()]))
    return 0 if stats.succeeded else 1


def _cmd_table1(_args) -> int:
    rows = table1_stats(build_default_database())
    print(render_table(
        rows,
        columns=["product", "cves", "avail", "avail_pct", "dos", "dos_pct"],
        title="Table 1: DoS vulnerability stats by hypervisor, 2013-2020",
    ))
    return 0


def _cmd_coverage(args) -> int:
    runner = ScenarioRunner(seed=args.seed, settle_time=15.0)
    results = runner.coverage_matrix_results()
    print(render_table([
        {
            "scenario": result.name,
            "survived": result.service_survived,
            "paper": "Yes" if result.expected_covered else "No",
            "match": result.matches_expectation,
        }
        for result in results
    ], title="Table 2 coverage, derived from live scenarios"))
    return 0 if all(r.matches_expectation for r in results) else 1


def _cmd_experiments(_args) -> int:
    experiments = [
        ("Table 1", "benchmarks/test_table1_vuln_stats.py"),
        ("Table 2", "benchmarks/test_table2_coverage.py"),
        ("Table 5 + §8.2", "benchmarks/test_table5_dos_analysis.py"),
        ("Fig. 5", "benchmarks/test_fig5_linear_model.py"),
        ("Fig. 6", "benchmarks/test_fig6_migration_times.py"),
        ("Fig. 7", "benchmarks/test_fig7_resumption.py"),
        ("Fig. 8", "benchmarks/test_fig8_checkpoint_transfer.py"),
        ("Fig. 9", "benchmarks/test_fig9_dynamic_period.py"),
        ("Fig. 10", "benchmarks/test_fig10_ycsb_period.py"),
        ("Fig. 11", "benchmarks/test_fig11_ycsb_fixed_period.py"),
        ("Fig. 12", "benchmarks/test_fig12_ycsb_degradation.py"),
        ("Fig. 13", "benchmarks/test_fig13_ycsb_combined.py"),
        ("Fig. 14", "benchmarks/test_fig14_spec_fixed_period.py"),
        ("Fig. 15", "benchmarks/test_fig15_spec_degradation.py"),
        ("Fig. 16", "benchmarks/test_fig16_spec_combined.py"),
        ("Fig. 17", "benchmarks/test_fig17_sockperf_latency.py"),
        ("§8.2 demo", "benchmarks/test_sec82_dos_failover.py"),
        ("§8.7 overhead", "benchmarks/test_sec87_overhead.py"),
        ("§6 mitigation", "benchmarks/test_sec6_mitigation.py"),
        ("§3.1 COLO baseline", "benchmarks/test_baseline_colo.py"),
        ("ablations", "benchmarks/test_ablation_*.py"),
    ]
    print(render_table(
        [{"experiment": name, "bench": path} for name, path in experiments],
        title="Run any of these with: pytest <bench> --benchmark-only -s",
    ))
    return 0


def _cmd_plan(args) -> int:
    from .cluster import PlacementRequest, ReplicationPlanner
    from .hardware import Host, MemorySpec
    from .hypervisor import KvmHypervisor, XenHypervisor
    from .simkernel import Simulation

    sim = Simulation(seed=0)
    memory = MemorySpec(total_bytes=int(args.host_memory_gib * GIB))
    fleet = []
    for index in range(args.xen_hosts):
        fleet.append(
            XenHypervisor(sim, Host(sim, f"xen-{index}", memory=memory))
        )
    for index in range(args.kvm_hosts):
        fleet.append(
            KvmHypervisor(sim, Host(sim, f"kvm-{index}", memory=memory))
        )
    if not fleet:
        print("error: the fleet is empty", file=sys.stderr)
        return 2
    xen_primaries = [h for h in fleet if h.flavor == "xen"]
    if not xen_primaries:
        print("error: need at least one Xen primary host", file=sys.stderr)
        return 2
    requests = []
    try:
        for index, entry in enumerate(args.vms.split(",")):
            name, _colon, gib = entry.strip().partition(":")
            if not name or not gib:
                raise ValueError(f"malformed VM entry {entry!r}")
            requests.append(
                PlacementRequest(
                    name,
                    xen_primaries[index % len(xen_primaries)],
                    int(float(gib) * GIB),
                )
            )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    result = ReplicationPlanner(fleet).plan(requests)
    print(render_table(
        [
            {
                "vm": placement.vm_name,
                "primary": placement.primary.host.name,
                "secondary": placement.secondary.host.name,
            }
            for placement in result.placements
        ],
        title="Heterogeneous replication plan",
    ))
    for vm_name, reason in result.unplaced.items():
        print(f"UNPLACED {vm_name}: {reason}")
    return 0 if result.fully_placed else 1


def _microreboot_config(args):
    """The microreboot model the ``--recovery-*`` flags describe."""
    from .recovery import MicrorebootConfig

    overrides = dict(
        rebuild_time_min=args.recovery_rebuild_min,
        rebuild_time_max=args.recovery_rebuild_max,
        deadline=args.recovery_deadline,
    )
    if args.recovery_success_prob is None:
        return MicrorebootConfig(**overrides)
    return MicrorebootConfig.with_uniform_prob(
        args.recovery_success_prob, **overrides
    )


def _serving_config(args):
    """The ``--serving-*`` overlay; None unless ``--serving-users`` > 0."""
    if not args.serving_users:
        return None
    from .serving import ServingConfig

    return ServingConfig(
        users=args.serving_users,
        rate_per_user=args.serving_rate_per_user,
        demand=args.serving_demand,
        slo=args.serving_slo,
        hedge=args.serving_hedge,
    )


def _integrity_config(args, armed: bool):
    """The ``--scrub-*``/``--promote-*`` overlay; None unless armed."""
    if not armed:
        return None
    from .integrity import IntegrityConfig

    return IntegrityConfig(
        scrub_interval=args.scrub_interval,
        scrub_bandwidth=args.scrub_bandwidth_gib * GIB,
        refuse_failover=not args.promote_suspect_replicas,
    )


def _run_fleet_chaos(args) -> int:
    """``repro chaos --preset fleet``: one fleet campaign per trial."""
    from .faults import FaultKind
    from .fleet import FleetCampaign, FleetCampaignConfig, FleetSpec
    from .simkernel.random import derive_seed

    rows = []
    dropped = 0
    try:
        for index in range(args.trials):
            spec = FleetSpec(
                zones=args.zones,
                racks_per_zone=1,
                hosts_per_rack=2,
                spares=args.spares,
                vms=args.vms,
                quantum=args.quantum,
                seed=derive_seed(args.seed, f"fleet-trial-{index}"),
            )
            config = FleetCampaignConfig(
                spec=spec,
                faults=args.faults,
                recovery_time=args.recovery_time,
                kinds=(FaultKind.ZONE_OUTAGE,),
                serving=_serving_config(args),
            )
            result = FleetCampaign(config).run()
            dropped += result.dropped_vms
            row = {
                "trial": index,
                "faults": "; ".join(result.fault_descriptions) or "none",
                "failovers": result.failovers,
                "re-protected": result.reprotections,
                "dropped": result.dropped_vms,
                "mean unprotected (s)": result.mean_unprotected_window,
                "nines": result.nines,
            }
            if result.serving is not None:
                row["serving requests"] = result.serving.requests
                row["serving lost"] = result.serving.lost
                row["serving p999 (s)"] = result.serving.p999
            rows.append(row)
    except (ValueError, RuntimeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(render_table(
        rows,
        title=f"Fleet chaos campaign (seed={args.seed}, "
              f"zones={args.zones}, spares={args.spares}, "
              f"quantum={args.quantum:g}s)",
    ))
    return 0 if dropped == 0 else 1


def _cmd_chaos(args) -> int:
    from .faults import CampaignConfig, ChaosCampaign, FaultKind

    if args.preset == "fleet":
        return _run_fleet_chaos(args)
    lossy = args.preset == "lossy"
    recovery = args.preset == "recovery"
    corruption = args.preset == "corruption"
    if lossy:
        default_kinds = "link-loss,packet-corrupt,latency-jitter"
    elif recovery:
        # Only in-place-recoverable faults: a dead host has no RAM to
        # preserve, and a partition leaves nothing to microreboot.
        default_kinds = "hypervisor-crash,hypervisor-hang"
    elif corruption:
        default_kinds = "translator-drift,replica-bitrot,torn-apply"
    else:
        default_kinds = (
            "host-crash,hypervisor-crash,hypervisor-hang,link-partition"
        )
    recovery_policy = args.recovery_policy
    if recovery_policy is None:
        recovery_policy = "hybrid" if recovery else "failover"
    degraded_misses = args.degraded_miss_threshold
    if degraded_misses is None and lossy:
        degraded_misses = max(12, args.miss_threshold)
    try:
        kinds = tuple(
            FaultKind(entry.strip())
            for entry in (args.kinds or default_kinds).split(",")
            if entry.strip()
        )
        config = CampaignConfig(
            trials=args.trials,
            seed=args.seed,
            vms=args.vms,
            faults_per_trial=args.faults,
            kinds=kinds,
            detector=args.detector,
            miss_threshold=args.miss_threshold,
            recovery_time=args.recovery_time,
            reliable_transport=lossy,
            degraded_miss_threshold=degraded_misses,
            recovery_policy=recovery_policy,
            microreboot=_microreboot_config(args),
            serving=_serving_config(args),
            integrity=_integrity_config(
                args, armed=args.integrity or corruption
            ),
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import time

    from .profiling import throughput_line
    from .telemetry import MetricsAggregator

    subscribers = []
    writer = None
    if args.trace is not None:
        from .telemetry import TraceWriter

        writer = TraceWriter(args.trace)
        subscribers.append(writer)
    # Per-trial kernels publish their event totals as ``sim.events``
    # counters; aggregating them off the bus feeds the steps/sec line.
    aggregator = MetricsAggregator()
    subscribers.append(aggregator)
    started = time.perf_counter()
    try:
        result = ChaosCampaign(config, subscribers=subscribers).run()
    finally:
        if writer is not None:
            writer.close()
    wall = time.perf_counter() - started
    print(render_table(
        result.summary_rows(),
        title=f"Chaos campaign (seed={args.seed}, detector={args.detector})",
    ))
    print(render_table(
        [
            {
                "trial": trial.index,
                "faults": "; ".join(trial.faults) or "none",
                "failovers": trial.failovers,
                "recovered": trial.recoveries,
                "dropped": trial.dropped_vms,
                "mean unprotected (s)": (
                    sum(trial.unprotected_windows.values())
                    / len(trial.unprotected_windows)
                ) if trial.unprotected_windows else float("nan"),
                "nines": trial.nines,
                **({
                    "corrupt (inj/det/rep)":
                        f"{trial.corruptions_injected}/"
                        f"{trial.corruptions_detected}/"
                        f"{trial.corruptions_repaired}",
                } if config.integrity is not None else {}),
            }
            for trial in result.trials
        ],
        title="Per-trial outcomes",
    ))
    print(throughput_line(aggregator.total("sim.events"), wall))
    return 0 if result.total_dropped_vms == 0 else 1


def _cmd_serve(args) -> int:
    from .analysis.serving import strategy_comparison_rows
    from .serving import STRATEGIES, ServingConfig, ServingStudy, StudyConfig

    try:
        config = StudyConfig(
            serving=ServingConfig(
                users=args.users,
                rate_per_user=args.rate_per_user,
                demand=args.demand,
                slo=args.slo,
                hedge=args.hedge,
            ),
            seed=args.seed,
            duration=args.duration,
            crash_at=args.crash_at,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    study = ServingStudy(config)
    strategies = STRATEGIES if args.strategy == "all" else (args.strategy,)
    outcomes = {name: study.run_strategy(name) for name in strategies}
    print(render_table(
        strategy_comparison_rows(outcomes, order=strategies),
        title=f"User-visible latency by strategy (seed={args.seed}, "
              f"{config.serving.aggregate_rate:g} req/s, "
              f"SLO={args.slo:g}s, crash at {args.crash_at:g}s)",
    ))
    return 0


def _cmd_fleet(args) -> int:
    import time

    from .faults import FaultKind
    from .fleet import FleetCampaign, FleetCampaignConfig, FleetSpec
    from .hardware.units import MIB
    from .profiling import throughput_line

    try:
        spec = FleetSpec(
            zones=args.zones,
            racks_per_zone=args.racks,
            hosts_per_rack=args.hosts_per_rack,
            spares=args.spares,
            vms=args.vms,
            vm_memory_bytes=int(args.vm_memory_mib * MIB),
            quantum=args.quantum,
            seed=args.seed,
            anti_affinity=args.anti_affinity,
            max_vms_per_link=args.max_vms_per_link,
            recovery_policy=args.recovery_policy,
        )
        config = FleetCampaignConfig(
            spec=spec,
            settle_time=args.settle_time,
            fault_window=args.fault_window,
            recovery_time=args.recovery_time,
            faults=args.faults,
            kinds=(FaultKind(args.kind),),
        )
        campaign = FleetCampaign(config)
        started = time.perf_counter()
        result = campaign.run()
        wall = time.perf_counter() - started
    except (ValueError, RuntimeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(render_table(
        result.summary_rows(),
        title=f"Fleet campaign (seed={args.seed}, kind={args.kind}, "
              f"quantum={args.quantum:g}s)",
    ))
    if result.fault_descriptions:
        print(render_table(
            [{"fault": detail} for detail in result.fault_descriptions],
            title="Injected faults",
        ))
    reprotected = [
        record
        for record in campaign.orchestrator.reprotections
        if not record.failed
    ]
    if reprotected:
        print(render_table(
            [
                {
                    "vm": record.vm_name,
                    "spare": record.spare_host,
                    "unprotected (s)": record.unprotected_window,
                }
                for record in reprotected
            ],
            title="Re-protections",
        ))
    print(throughput_line(result.events_processed, wall))
    return 0 if result.dropped_vms == 0 else 1


def _sweep_events(outcomes) -> float:
    """Total simulated events across sweep outcomes (0.0 when absent).

    Chaos/lossy trials report per-trial ``events_processed`` inside
    their serialized trial payload; fleet trials report it as a flat
    metric.  Presets without event counts yield 0, which suppresses
    the steps/sec line.
    """
    total = 0.0
    for outcome in outcomes:
        metrics = outcome.metrics or {}
        trial = metrics.get("trial")
        if isinstance(trial, dict):
            total += float(trial.get("events_processed", 0) or 0)
        else:
            total += float(metrics.get("events_processed", 0) or 0)
    return total


def _cmd_sweep(args) -> int:
    import json
    import os

    from .experiments import (
        DEFAULT_CACHE_DIR,
        RegressionGate,
        ResultStore,
        SweepLog,
        SweepRunner,
        Tolerance,
        load_baseline,
    )
    from .experiments.presets import (
        BENCH_SEED,
        chaos_sweep,
        corruption_sweep,
        fleet_sweep,
        lossy_sweep,
        serving_sweep,
        table6_sweep,
        ycsb_sweep,
    )

    try:
        if args.preset == "fleet":
            specs = fleet_sweep(
                trials=args.trials,
                seed=args.seed if args.seed is not None else 0,
                recovery_time=args.recovery_time,
                timeout=args.timeout,
                retries=args.retries,
                spec=dict(
                    zones=args.zones,
                    spares=args.spares,
                    quantum=args.quantum,
                ),
            )
        elif args.preset in ("chaos", "lossy", "corruption"):
            builder = {
                "lossy": lossy_sweep,
                "corruption": corruption_sweep,
            }.get(args.preset, chaos_sweep)
            specs = builder(
                trials=args.trials,
                seed=args.seed if args.seed is not None else 0,
                settle_time=3.0,
                fault_window=3.0,
                recovery_time=args.recovery_time,
                timeout=args.timeout,
                retries=args.retries,
            )
        elif args.preset == "serving":
            serving_kwargs = {}
            if args.duration is not None:
                serving_kwargs["duration"] = args.duration
            specs = serving_sweep(
                seed=args.seed if args.seed is not None else BENCH_SEED,
                timeout=args.timeout,
                **serving_kwargs,
            )
        elif args.preset == "ycsb":
            specs = ycsb_sweep(
                duration=args.duration if args.duration is not None else 60.0,
                seed=args.seed if args.seed is not None else BENCH_SEED,
                timeout=args.timeout,
            )
        else:
            specs = table6_sweep(
                duration=args.duration if args.duration is not None else 100.0,
                seed=args.seed if args.seed is not None else BENCH_SEED,
                timeout=args.timeout,
            )
    except (KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    cache_dir = args.cache_dir or DEFAULT_CACHE_DIR
    store = ResultStore(cache_dir)
    log = SweepLog(args.log or os.path.join(cache_dir, "sweeps.jsonl"))
    runner = SweepRunner(
        jobs=args.jobs,
        store=store,
        use_cache=not args.no_cache,
        log=log,
        default_timeout=args.timeout,
    )
    result = runner.run(specs)

    print(render_table(
        result.summary_rows(),
        title=f"Sweep '{args.preset}' ({len(specs)} trials, "
              f"jobs={args.jobs})",
    ))
    print(render_table(
        [
            {
                "trial": outcome.spec.name,
                "status": outcome.status,
                "cached": outcome.cached,
                "wall (s)": outcome.wall_clock,
            }
            for outcome in result.outcomes
        ],
        title="Per-trial outcomes",
    ))
    events = _sweep_events(result.outcomes)
    if events:
        from .profiling import throughput_line

        print(throughput_line(events, result.wall_clock))

    exit_code = 0 if not result.failed_outcomes else 1
    if args.baseline is not None:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError, json.JSONDecodeError) as error:
            print(f"error: cannot load baseline: {error}", file=sys.stderr)
            return 2
        report = RegressionGate(Tolerance(relative=args.tolerance)).compare(
            baseline, result.metric_summary()
        )
        print(render_table(
            report.summary_rows(),
            title=f"Regression gate vs {args.baseline} "
                  f"({'PASS' if report.passed else 'FAIL'})",
        ))
        if not report.passed:
            exit_code = 1

    if args.emit_bench is not None:
        with open(args.emit_bench, "w", encoding="utf-8") as handle:
            json.dump(result.to_bench(name=args.preset), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"bench payload written to {args.emit_bench}")
    return exit_code


def _cmd_profile(args) -> int:
    import time

    from .profiling import WallClockSampler, profile_call, throughput_line

    if args.spans and args.preset == "serving":
        print("error: --spans needs a campaign bus; the serving preset "
              "has none", file=sys.stderr)
        return 2
    sampler = WallClockSampler() if args.spans else None
    unit, rate_unit = "sim-events", "steps/sec"

    if args.preset == "chaos":
        from .faults import CampaignConfig, ChaosCampaign, FaultKind

        config = CampaignConfig(
            trials=args.trials,
            seed=args.seed,
            vms=2,
            kinds=(FaultKind.HOST_CRASH, FaultKind.HYPERVISOR_CRASH),
            recovery_time=30.0,
        )
        subscribers = [sampler] if sampler else []

        def run():
            return ChaosCampaign(config, subscribers=subscribers).run()

        def events(result):
            return float(result.total_events_processed)
    elif args.preset == "serving":
        from .serving import ServingStudy, StudyConfig

        unit, rate_unit = "requests", "requests/sec"

        def run():
            return ServingStudy(StudyConfig(seed=args.seed)).run()

        def events(outcomes):
            # StudyConfig defaults do not hedge: one solve per request.
            return float(sum(
                outcome.report.requests for outcome in outcomes.values()
            ))
    else:
        from .faults import FaultKind
        from .fleet import FleetCampaign, FleetCampaignConfig, FleetSpec

        spec = FleetSpec(zones=3, racks_per_zone=1, hosts_per_rack=2,
                         spares=3, vms=8, seed=args.seed)
        config = FleetCampaignConfig(
            spec=spec, faults=1, kinds=(FaultKind.ZONE_OUTAGE,),
        )

        def run():
            return FleetCampaign(
                config, subscribers=[sampler] if sampler else []
            ).run()

        def events(result):
            return float(result.events_processed)

    if sampler:
        sampler.start()
    started = time.perf_counter()
    result, stats_text = profile_call(run, sort=args.sort, limit=args.limit)
    wall = time.perf_counter() - started
    print(stats_text, end="")
    if sampler:
        print(render_table(
            [spot.to_dict() for spot in sampler.hotspots(limit=args.limit)],
            title="Host time by telemetry record name (flat attribution)",
        ))
    print(throughput_line(events(result), wall, unit, rate_unit))
    return 0


_COMMANDS = {
    "demo": _cmd_demo,
    "profile": _cmd_profile,
    "sweep": _cmd_sweep,
    "chaos": _cmd_chaos,
    "fleet": _cmd_fleet,
    "serve": _cmd_serve,
    "plan": _cmd_plan,
    "replicate": _cmd_replicate,
    "migrate": _cmd_migrate,
    "table1": _cmd_table1,
    "coverage": _cmd_coverage,
    "experiments": _cmd_experiments,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
