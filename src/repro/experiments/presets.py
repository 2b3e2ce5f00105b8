"""Built-in trial runners and sweep presets.

This module is the single source of truth for the paper's Table-6
replication configurations (:data:`TABLE6`) — ``benchmarks/harness.py``
re-exports them — and registers the built-in trial kinds:

* ``throughput``  — one bar of Figs. 10–16: a workload under one
  Table-6 configuration, reporting ops/s, slowdown and checkpoint
  statistics;
* ``checkpoint``  — one point of Fig. 8: mean transfer/pause times and
  degradation under a memory load;
* ``chaos-trial`` — one trial of a :class:`~repro.faults.campaign.
  ChaosCampaign`, reporting the trial's MTTR/unprotected-window/nines
  block;
* ``serving``     — one strategy of the five-way serving study
  (:class:`~repro.serving.ServingStudy`), reporting user-visible
  p50/p99/p999 and SLO violations under an identical crash.

Every runner subscribes a :class:`~repro.telemetry.metrics.
MetricsAggregator` to the trial simulation's bus and returns its
summary alongside the metrics, so the sweep JSONL log carries the
full telemetry percentile table per trial.

The ``*_sweep`` builders assemble ready-to-run trial matrices for the
CLI (``repro sweep --preset ...``) and CI smoke.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..cluster import DeploymentSpec, ProtectedDeployment, unprotected_baseline
from ..hardware.units import GIB
from ..simkernel.random import derive_seed
from ..telemetry import MetricsAggregator
from ..workloads import (
    IdleWorkload,
    MemoryMicrobenchmark,
    SpecWorkload,
    YcsbWorkload,
)
from .registry import register_trial
from .spec import ExperimentSpec, ParameterGrid

#: Seed shared by every benchmark (experiments are deterministic).
BENCH_SEED = 2023

#: Post-seeding measurement window for throughput experiments.
MEASURE_WINDOW = 120.0


# ---------------------------------------------------------------------------
# Replication configurations (the paper's Table 6 surface)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReplicationSetup:
    """One named engine configuration from Table 6."""

    label: str
    engine: str  # "remus" | "here" | "none"
    period: float = 5.0  # Remus T / HERE T_max
    target_degradation: float = 0.0
    sigma: float = 0.25
    initial_period: Optional[float] = None

    def spec(self, memory_bytes: int, seed: int = BENCH_SEED) -> DeploymentSpec:
        secondary = "xen" if self.engine == "remus" else "kvm"
        return DeploymentSpec(
            engine="here" if self.engine == "none" else self.engine,
            secondary_flavor=secondary,
            period=self.period if math.isfinite(self.period) else math.inf,
            target_degradation=self.target_degradation,
            sigma=self.sigma,
            initial_period=self.initial_period,
            memory_bytes=memory_bytes,
            seed=seed,
        )


#: Table 6 of the paper, as code.
TABLE6 = {
    "Xen": ReplicationSetup("Xen", "none"),
    "HERE(3Sec,0%)": ReplicationSetup("HERE(3Sec,0%)", "here", period=3.0),
    "HERE(5Sec,0%)": ReplicationSetup("HERE(5Sec,0%)", "here", period=5.0),
    "HERE(inf,20%)": ReplicationSetup(
        "HERE(inf,20%)", "here", period=math.inf,
        target_degradation=0.2, initial_period=0.5, sigma=0.1,
    ),
    "HERE(inf,30%)": ReplicationSetup(
        "HERE(inf,30%)", "here", period=math.inf,
        target_degradation=0.3, initial_period=0.5, sigma=0.1,
    ),
    "HERE(inf,40%)": ReplicationSetup(
        "HERE(inf,40%)", "here", period=math.inf,
        target_degradation=0.4, initial_period=0.5, sigma=0.1,
    ),
    "HERE(5sec,30%)": ReplicationSetup(
        "HERE(5sec,30%)", "here", period=5.0,
        target_degradation=0.3, initial_period=0.5, sigma=0.1,
    ),
    "HERE(3sec,40%)": ReplicationSetup(
        "HERE(3sec,40%)", "here", period=3.0,
        target_degradation=0.4, initial_period=0.5, sigma=0.1,
    ),
    "Remus3Sec": ReplicationSetup("Remus3Sec", "remus", period=3.0),
    "Remus5Sec": ReplicationSetup("Remus5Sec", "remus", period=5.0),
}


def resolve_setup(setup: Any) -> ReplicationSetup:
    """A Table-6 label, a field dict, or a ready setup — normalised."""
    if isinstance(setup, ReplicationSetup):
        return setup
    if isinstance(setup, str):
        try:
            return TABLE6[setup]
        except KeyError:
            raise KeyError(
                f"unknown Table-6 setup {setup!r}; known: {sorted(TABLE6)}"
            ) from None
    if isinstance(setup, dict):
        return ReplicationSetup(**setup)
    raise TypeError(f"cannot resolve a ReplicationSetup from {setup!r}")


# ---------------------------------------------------------------------------
# Workload attachment
# ---------------------------------------------------------------------------

def attach_workload(deployment: ProtectedDeployment, kind: str, **kwargs):
    """Attach one of the paper's Table 4 workloads to the protected VM."""
    sim, vm = deployment.sim, deployment.vm
    if kind == "idle":
        workload = IdleWorkload(sim, vm)
    elif kind == "membench":
        workload = MemoryMicrobenchmark(sim, vm, **kwargs)
    elif kind == "ycsb":
        kwargs.setdefault("sample_fraction", 2e-4)
        kwargs.setdefault("preload_records", 300)
        workload = YcsbWorkload(sim, vm, **kwargs)
    elif kind == "spec":
        workload = SpecWorkload(sim, vm, **kwargs)
    else:
        raise ValueError(f"unknown workload kind {kind!r}")
    workload.start()
    return workload


# ---------------------------------------------------------------------------
# Registered trial runners
# ---------------------------------------------------------------------------

def _telemetry(deployment: ProtectedDeployment) -> MetricsAggregator:
    aggregator = MetricsAggregator()
    deployment.sim.telemetry.subscribe(aggregator)
    return aggregator


def _replication_metrics(stats) -> Dict[str, float]:
    if stats is None:
        return {}
    return {
        "checkpoints": stats.checkpoint_count,
        "mean_period_s": stats.mean_period(),
        "mean_pause_s": stats.mean_pause_duration(),
        "mean_transfer_s": stats.mean_transfer_duration(),
        "mean_degradation": stats.mean_degradation(),
    }


@register_trial("throughput")
def run_throughput_trial(params: Dict[str, Any]) -> Tuple[Dict, List[dict]]:
    """One bar of Figs. 11–16: a workload under one configuration."""
    setup = resolve_setup(params["setup"])
    seed = int(params.get("seed", BENCH_SEED))
    memory_bytes = int(float(params.get("memory_gib", 8.0)) * GIB)
    duration = float(params.get("duration", MEASURE_WINDOW))
    workload_kind = params.get("workload", "ycsb")
    workload_kwargs = dict(params.get("workload_kwargs", {}))
    if setup.engine == "none":
        deployment = unprotected_baseline(setup.spec(memory_bytes, seed))
        aggregator = _telemetry(deployment)
        workload = attach_workload(deployment, workload_kind, **workload_kwargs)
        deployment.run_for(duration)
        throughput = workload.throughput()
        stats = None
    else:
        deployment = ProtectedDeployment(setup.spec(memory_bytes, seed))
        aggregator = _telemetry(deployment)
        workload = attach_workload(deployment, workload_kind, **workload_kwargs)
        deployment.start_protection(wait_ready=True)
        mark = workload.mark()
        deployment.run_for(duration)
        throughput = workload.throughput_since(mark)
        stats = deployment.stats
    baseline = workload.work_rate()
    metrics = {
        "config": setup.label,
        "throughput_ops_s": throughput,
        "baseline_ops_s": baseline,
        "slowdown_pct": slowdown_pct(throughput, baseline),
    }
    metrics.update(_replication_metrics(stats))
    return metrics, aggregator.summary_rows()


@register_trial("checkpoint")
def run_checkpoint_trial(params: Dict[str, Any]) -> Tuple[Dict, List[dict]]:
    """One point of Fig. 8: transfer/pause times under a memory load."""
    setup = resolve_setup(params["setup"])
    seed = int(params.get("seed", BENCH_SEED))
    memory_gib = float(params.get("memory_gib", 8.0))
    load = float(params.get("load", 0.0))
    duration = float(params.get("duration", 100.0))
    deployment = ProtectedDeployment(setup.spec(int(memory_gib * GIB), seed))
    aggregator = _telemetry(deployment)
    if load > 0:
        MemoryMicrobenchmark(deployment.sim, deployment.vm, load=load).start()
    else:
        IdleWorkload(deployment.sim, deployment.vm).start()
    deployment.start_protection(wait_ready=True)
    deployment.run_for(duration)
    metrics = {
        "config": setup.label,
        "memory_gib": memory_gib,
        "load": load,
    }
    metrics.update(_replication_metrics(deployment.stats))
    return metrics, aggregator.summary_rows()


def _encode_configs(params: Dict[str, Any]) -> Dict[str, Any]:
    """Spec params with every nested config as a plain JSON dict."""
    return {
        key: asdict(value) if is_dataclass(value) else value
        for key, value in params.items()
    }


def _decode_configs(params: Dict[str, Any]) -> Dict[str, Any]:
    """Campaign-config kwargs from spec params: rebuilds the fault kinds
    and the overlay configs the sweep builders stored as JSON dicts."""
    from ..faults import FaultKind
    from ..integrity import IntegrityConfig
    from ..recovery import MicrorebootConfig
    from ..serving import ServingConfig

    params = dict(params)
    if params.get("kinds") is not None:
        params["kinds"] = tuple(FaultKind(kind) for kind in params["kinds"])
    for key, config_class in (
        ("microreboot", MicrorebootConfig),
        ("serving", ServingConfig),
        ("integrity", IntegrityConfig),
    ):
        if isinstance(params.get(key), dict):
            params[key] = config_class(**params[key])
    return params


@register_trial("chaos-trial")
def run_chaos_trial(params: Dict[str, Any]) -> Tuple[Dict, List[dict]]:
    """One trial of a chaos campaign, by campaign config + trial index."""
    from ..faults import CampaignConfig, ChaosCampaign

    params = _decode_configs(params)
    index = int(params.pop("index", 0))
    aggregator = MetricsAggregator()
    campaign = ChaosCampaign(CampaignConfig(**params), subscribers=[aggregator])
    trial = campaign.run_trial(index)
    return {"trial": trial.to_dict()}, aggregator.summary_rows()


@register_trial("serving")
def run_serving_trial(params: Dict[str, Any]) -> Tuple[Dict, List[dict]]:
    """One strategy of the serving study: user-visible tail latency."""
    from ..serving import ServingConfig, ServingStudy, StudyConfig

    params = dict(params)
    strategy = params.pop("strategy")
    seed = int(params.pop("seed", BENCH_SEED))
    serving_kwargs = {
        key: params.pop(key)
        for key in ("users", "rate_per_user", "demand", "slo", "hedge")
        if key in params
    }
    study = ServingStudy(
        StudyConfig(
            serving=ServingConfig(**serving_kwargs), seed=seed, **params
        )
    )
    outcome = study.run_strategy(strategy)
    metrics: Dict[str, Any] = {
        "strategy": strategy,
        "fingerprint": outcome.fingerprint(),
    }
    metrics.update(outcome.report.to_metrics())
    if outcome.hedged_report is not None:
        metrics["hedged_p999"] = outcome.hedged_report.p999
        metrics["hedged_lost"] = float(outcome.hedged_report.lost)
        metrics["hedged_rescued"] = float(outcome.hedged_report.rescued)
    return metrics, outcome.report.summary_rows()


@register_trial("fleet-trial")
def run_fleet_trial(params: Dict[str, Any]) -> Tuple[Dict, List[dict]]:
    """One seeded fleet chaos campaign (zone/rack outages at scale)."""
    from ..fleet import FleetCampaign, FleetCampaignConfig, FleetSpec

    params = _decode_configs(params)
    spec = FleetSpec(**_decode_configs(params.pop("spec", {})))
    # The sweep runner injects the spec-level seed; the fleet seed
    # rides inside the nested FleetSpec params, so it is redundant here.
    params.pop("seed", None)
    unknown = set(params) - {f.name for f in fields(FleetCampaignConfig)}
    if unknown:
        raise ValueError(f"unknown fleet-trial params: {sorted(unknown)}")
    if "outage_duration" in params:
        params["outage_duration"] = tuple(params["outage_duration"])
    campaign = FleetCampaign(FleetCampaignConfig(spec=spec, **params))
    result = campaign.run()
    metrics: Dict[str, Any] = {"fingerprint": result.fingerprint()}
    metrics.update(result.metrics())
    return metrics, campaign.aggregator.summary_rows()


def slowdown_pct(throughput: float, baseline: float) -> float:
    """The number printed above each bar in Figs. 11–16."""
    if baseline <= 0:
        return float("nan")
    return 100.0 * (1.0 - throughput / baseline)


# ---------------------------------------------------------------------------
# Sweep builders (the CLI presets)
# ---------------------------------------------------------------------------

def chaos_sweep(
    trials: int,
    seed: int = 0,
    timeout: Optional[float] = None,
    retries: int = 0,
    name: str = "chaos",
    **config_overrides: Any,
) -> List[ExperimentSpec]:
    """One spec per chaos trial of one campaign configuration.

    The per-trial seed lives inside the campaign (derived from the
    campaign seed and the trial index), so the specs here carry the
    campaign seed explicitly in their params and fingerprints change
    exactly when the campaign config does.  ``name`` only relabels the
    specs — trial seeds stay keyed on the trial index, so a renamed
    sweep replays the identical campaign.
    """
    if trials < 1:
        raise ValueError(f"a chaos sweep needs >= 1 trial: {trials}")
    from ..faults import CampaignConfig

    config = CampaignConfig(
        trials=trials, seed=seed, **config_overrides
    )
    params = asdict(config)
    params["kinds"] = [kind.value for kind in config.kinds]
    del params["trials"]
    return [
        ExperimentSpec(
            name=f"{name}/trial-{index}",
            kind="chaos-trial",
            params={**params, "index": index, "trials": 1},
            seed=derive_seed(seed, f"chaos-trial-{index}"),
            timeout=timeout,
            retries=retries,
        )
        for index in range(trials)
    ]


def lossy_sweep(
    trials: int,
    seed: int = 0,
    timeout: Optional[float] = None,
    retries: int = 0,
    **config_overrides: Any,
) -> List[ExperimentSpec]:
    """Chaos trials over impaired links with the hardened transport.

    Every fault is a link impairment (loss, corruption, latency
    jitter), every engine runs the reliable transport, and the
    heartbeat tolerates extra misses while the transport still commits
    epochs — so the campaign measures retransmission and degradation
    behaviour rather than failover.
    """
    from ..faults import FaultKind

    defaults: Dict[str, Any] = dict(
        kinds=(
            FaultKind.LINK_LOSS,
            FaultKind.PACKET_CORRUPT,
            FaultKind.LATENCY_JITTER,
        ),
        reliable_transport=True,
        degraded_miss_threshold=12,
        faults_per_trial=2,
    )
    defaults.update(config_overrides)
    return chaos_sweep(
        trials, seed=seed, timeout=timeout, retries=retries,
        name="lossy", **defaults,
    )


def corruption_sweep(
    trials: int,
    seed: int = 0,
    timeout: Optional[float] = None,
    retries: int = 0,
    **config_overrides: Any,
) -> List[ExperimentSpec]:
    """Chaos trials injecting silent corruption under the integrity
    overlay.

    Every fault is one of the silent-corruption kinds (translator
    drift, replica bitrot, torn apply), every engine runs epoch
    attestation plus the background scrubber, and detected corruption
    climbs the repair ladder — so the campaign measures detection
    rate, latent-corruption windows and per-rung repair costs rather
    than failover (``BENCH_integrity.json`` pins this preset).
    """
    from ..faults import FaultKind

    defaults: Dict[str, Any] = dict(
        kinds=(
            FaultKind.TRANSLATOR_DRIFT,
            FaultKind.REPLICA_BITROT,
            FaultKind.TORN_APPLY,
        ),
        integrity=True,
        faults_per_trial=2,
        recovery_time=20.0,
    )
    defaults.update(config_overrides)
    return chaos_sweep(
        trials, seed=seed, timeout=timeout, retries=retries,
        name="corruption", **defaults,
    )


def fleet_sweep(
    trials: int,
    seed: int = 0,
    timeout: Optional[float] = None,
    retries: int = 0,
    **overrides: Any,
) -> List[ExperimentSpec]:
    """One spec per seeded fleet chaos campaign.

    Each trial stands up its own fleet (default: a small 3-zone grid)
    and runs one zone-outage campaign with a per-trial derived seed.
    Keyword overrides split naturally: :class:`~repro.fleet.FleetSpec`
    fields go under ``spec`` (a dict), campaign knobs
    (``settle_time`` / ``fault_window`` / ``recovery_time`` /
    ``faults`` / ``outage_duration`` / ``kinds`` / ``serving``) ride at
    top level.  Nested configs (``serving``, ``spec["integrity"]``) are
    stored in the params as plain JSON dicts.
    """
    if trials < 1:
        raise ValueError(f"a fleet sweep needs >= 1 trial: {trials}")
    spec_defaults: Dict[str, Any] = dict(
        zones=3,
        racks_per_zone=1,
        hosts_per_rack=2,
        spares=3,
        vms=6,
    )
    spec_defaults.update(_encode_configs(overrides.pop("spec", {})))
    params_base: Dict[str, Any] = dict(
        settle_time=3.0,
        fault_window=4.0,
        recovery_time=25.0,
        faults=1,
    )
    params_base.update(_encode_configs(overrides))
    specs = []
    for index in range(trials):
        trial_seed = derive_seed(seed, f"fleet-trial-{index}")
        specs.append(
            ExperimentSpec(
                name=f"fleet/trial-{index}",
                kind="fleet-trial",
                params={
                    **params_base,
                    "spec": {**spec_defaults, "seed": trial_seed},
                },
                seed=trial_seed,
                timeout=timeout,
                retries=retries,
            )
        )
    return specs


def serving_sweep(
    strategies: Optional[Sequence[str]] = None,
    seed: int = BENCH_SEED,
    users: int = 50_000,
    rate_per_user: float = 0.02,
    demand: float = 0.0005,
    slo: float = 0.25,
    hedge: float = 0.8,
    timeout: Optional[float] = None,
    **study_overrides: Any,
) -> List[ExperimentSpec]:
    """One spec per fault-tolerance strategy of the serving study.

    Every strategy serves the identical population through the
    identical fault schedule (one primary crash mid-window), so the
    sweep's rows compare user-visible p50/p99/p999 and SLO violations
    across remus / here / colo / failover / hybrid-recovery — the
    strategy table the README quotes and ``BENCH_serving.json`` pins.
    Extra keywords pass through to :class:`~repro.serving.StudyConfig`
    (``duration``, ``crash_at``, ``remus_period``, ...).
    """
    from ..serving import STRATEGIES

    chosen = tuple(strategies) if strategies else STRATEGIES
    unknown = [s for s in chosen if s not in STRATEGIES]
    if unknown:
        raise KeyError(
            f"unknown serving strategies: {unknown}; known: {STRATEGIES}"
        )
    if "duration" in study_overrides and "crash_at" not in study_overrides:
        # A shorter window must keep the crash inside it — stay
        # mid-window unless the caller pins crash_at explicitly.
        study_overrides["crash_at"] = study_overrides["duration"] / 2.0
    return [
        ExperimentSpec(
            name=f"serving/{strategy}",
            kind="serving",
            params={
                "strategy": strategy,
                "seed": seed,
                "users": users,
                "rate_per_user": rate_per_user,
                "demand": demand,
                "slo": slo,
                "hedge": hedge,
                **study_overrides,
            },
            seed=derive_seed(seed, f"serving-study:{strategy}"),
            timeout=timeout,
        )
        for strategy in chosen
    ]


def ycsb_sweep(
    setups: Sequence[str] = ("Xen", "HERE(5Sec,0%)", "HERE(inf,30%)", "Remus5Sec"),
    mixes: Sequence[str] = ("a", "b"),
    duration: float = MEASURE_WINDOW,
    memory_gib: float = 8.0,
    seed: int = BENCH_SEED,
    timeout: Optional[float] = None,
) -> List[ExperimentSpec]:
    """The Fig. 10–13 YCSB series: Table-6 setups × YCSB mixes."""
    unknown = [label for label in setups if label not in TABLE6]
    if unknown:
        raise KeyError(f"unknown Table-6 setups: {unknown}")
    grid = ParameterGrid({"setup": list(setups), "mix": list(mixes)})
    base = ExperimentSpec(
        name="ycsb",
        kind="throughput",
        params={
            "workload": "ycsb",
            "duration": duration,
            "memory_gib": memory_gib,
            "seed": seed,
        },
        seed=seed,
        timeout=timeout,
    )
    specs = []
    for spec in grid.expand(base):
        params = {key: value for key, value in spec.params.items() if key != "mix"}
        params["workload_kwargs"] = {"mix": spec.params["mix"]}
        specs.append(replace(spec, params=params))
    return specs


def table6_sweep(
    memory_gib: float = 8.0,
    load: float = 0.3,
    duration: float = 100.0,
    seed: int = BENCH_SEED,
    timeout: Optional[float] = None,
) -> List[ExperimentSpec]:
    """Checkpoint behaviour of every protected Table-6 configuration."""
    labels = [
        label for label, setup in TABLE6.items() if setup.engine != "none"
    ]
    grid = ParameterGrid({"setup": labels})
    base = ExperimentSpec(
        name="table6",
        kind="checkpoint",
        params={
            "memory_gib": memory_gib,
            "load": load,
            "duration": duration,
            "seed": seed,
        },
        seed=seed,
        timeout=timeout,
    )
    return grid.expand(base)


#: CLI preset name -> builder keyword arguments it accepts.
SWEEP_PRESETS = (
    "chaos", "lossy", "corruption", "fleet", "serving", "ycsb", "table6",
)
