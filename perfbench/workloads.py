"""The benchmark's five named workloads.

Each workload is a fixed amount of simulated work at a stated scale,
built from a seed.  :func:`prepare` turns ``(workload, seed)`` into a
:class:`Plan`: the configuration objects (their construction is part
of the measured set-up time) and an ordered list of *operations*.  An
operation is the unit that can fail: one chaos trial, one serving
strategy run, or the whole fleet campaign.  Running an operation
returns its simulated fingerprint — the repository's own determinism
contract for that campaign, minus ``events_processed``, so that work
the kernel stops doing never reads as a behaviour change.

Importing this module imports no ``repro`` code; :func:`prepare` does,
so the caller can time the import.
"""

#: name -> one-line reason the workload is in the benchmark.
WORKLOADS = {
    "chaos-default": (
        "heartbeat-bound chaos preset: 4x1 GiB idle guests, each default "
        "fault kind for three trials; probes, link messages, bus, kernel"
    ),
    "chaos-membench": (
        "per-page checkpoint path: 4x8 GiB/8-vCPU membench guests at 0.8 "
        "load over the reliable transport; near-bypass for heartbeat work"
    ),
    "fleet-200": (
        "scale and memory: 200 VMs on 24 hosts in 3 zones, zone outage "
        "on the sharded kernel with the re-protection queue"
    ),
    "serving-5way": (
        "user-visible tail latency: 50k users across five strategies; the "
        "only processor-sharing queue work, bypass for heartbeat/kernel"
    ),
    "chaos-corruption": (
        "integrity overlay armed against the three silent-corruption "
        "kinds: attestation, scrubbing audits and repair"
    ),
}

#: Trials per chaos-workload run.  Trial count is the run-length knob:
#: each sets a child process's work to roughly one to two host seconds.
#: chaos-default runs its count once per default fault kind, so every
#: run carries the same fault mix whatever the seed draws.
CHAOS_TRIALS = {
    "chaos-default": 3,
    "chaos-membench": 8,
    "chaos-corruption": 6,
}


class Plan:
    """A prepared workload: labelled operations plus their scale."""

    def __init__(self, name, seed, ops, vm_seconds, check):
        self.name = name
        self.seed = seed
        #: ``[(label, thunk)]``; ``thunk()`` returns the op's fingerprint.
        self.ops = ops
        #: Simulated VM-seconds the whole plan advances.
        self.vm_seconds = vm_seconds
        #: ``check(label, fingerprint)`` -> error string or None: seed-
        #: independent sanity invariants on one op's outputs.
        self.check = check


def _chaos_configs(name, seed):
    """The workload's campaign configurations (one per stratum)."""
    from repro.faults.campaign import CampaignConfig
    from repro.faults.spec import FaultKind
    from repro.hardware.units import GIB

    trials = CHAOS_TRIALS[name]
    if name == "chaos-default":
        # ``repro chaos`` defaults at four guests, one campaign per
        # default fault kind.
        return [
            CampaignConfig(trials=trials, seed=seed, vms=4, kinds=(kind,))
            for kind in CampaignConfig().kinds
        ]
    if name == "chaos-membench":
        # The BENCH_perf.json configuration.
        return [CampaignConfig(
            trials=trials,
            seed=seed,
            vms=4,
            kvm_hosts=3,
            vm_memory_bytes=8 * GIB,
            vm_vcpus=8,
            settle_time=3.0,
            fault_window=3.0,
            recovery_time=40.0,
            kinds=(FaultKind.HOST_CRASH, FaultKind.HYPERVISOR_CRASH),
            workload="membench",
            workload_load=0.8,
            reliable_transport=True,
        )]
    # chaos-corruption: the BENCH_integrity.json configuration.
    return [CampaignConfig(
        trials=trials,
        seed=seed,
        vms=2,
        faults_per_trial=2,
        settle_time=3.0,
        fault_window=3.0,
        recovery_time=20.0,
        kinds=(
            FaultKind.TRANSLATOR_DRIFT,
            FaultKind.REPLICA_BITROT,
            FaultKind.TORN_APPLY,
        ),
        integrity=True,
    )]


def _prepare_chaos(name, seed):
    from repro.faults.campaign import CampaignResult, ChaosCampaign

    def trial(campaign, index):
        def run():
            result = CampaignResult(config=campaign.config)
            result.trials.append(campaign.run_trial(index))
            return result.fingerprint()
        return run

    configs = _chaos_configs(name, seed)
    ops = []
    for config in configs:
        campaign = ChaosCampaign(config)
        stratum = "-".join(kind.value for kind in config.kinds)
        ops.extend(
            (f"{stratum}/trial-{index}", trial(campaign, index))
            for index in range(config.trials)
        )
    vm_seconds = sum(
        config.trials * config.vms
        * (config.settle_time + config.fault_window + config.recovery_time)
        for config in configs
    )
    vms = configs[0].vms

    def check(_label, fingerprint):
        if not 0 <= fingerprint["dropped_vms"] <= vms:
            return f"impossible dropped-VM count: {fingerprint}"
        return None

    return Plan(name, seed, ops, vm_seconds, check)


def _prepare_fleet(name, seed):
    from repro.fleet import FleetCampaign, FleetCampaignConfig, FleetSpec
    from repro.hardware.units import MIB

    # The BENCH_fleet.json configuration: 3 zones x 2 racks x 3 hosts
    # = 18 grid hosts, plus 6 spares.
    spec = FleetSpec(
        zones=3,
        racks_per_zone=2,
        hosts_per_rack=3,
        spares=6,
        vms=200,
        vm_memory_bytes=64 * MIB,
        quantum=0.5,
        seed=seed,
    )
    config = FleetCampaignConfig(
        spec=spec, settle_time=3.0, fault_window=3.0, recovery_time=20.0
    )

    def run():
        fingerprint = FleetCampaign(config).run().fingerprint()
        fingerprint.pop("events_processed")
        return fingerprint

    def check(_label, fingerprint):
        if fingerprint["vms"] != spec.vms or fingerprint["shards"] < 12:
            return f"fleet did not materialise at scale: {fingerprint}"
        return None

    horizon = config.settle_time + config.fault_window + config.recovery_time
    return Plan(name, seed, [("campaign", run)], spec.vms * horizon, check)


def _prepare_serving(name, seed):
    from repro.serving import STRATEGIES, ServingConfig, ServingStudy, StudyConfig

    # The BENCH_serving.json study.
    config = StudyConfig(
        serving=ServingConfig(
            users=50_000,
            rate_per_user=0.02,
            demand=0.0005,
            slo=0.25,
            hedge=0.8,
        ),
        seed=seed,
        duration=12.0,
        crash_at=6.0,
    )
    study = ServingStudy(config)

    def strategy(name):
        return lambda: study.run_strategy(name).fingerprint()

    def check(label, fingerprint):
        if fingerprint["served"] + fingerprint["lost"] != fingerprint["requests"]:
            return f"{label}: served + lost != requests"
        return None

    return Plan(
        name,
        seed,
        [(label, strategy(label)) for label in STRATEGIES],
        len(STRATEGIES) * config.duration,
        check,
    )


def prepare(name, seed):
    """Build the plan for ``name`` at ``seed`` (imports ``repro``)."""
    if name in CHAOS_TRIALS:
        return _prepare_chaos(name, seed)
    if name == "fleet-200":
        return _prepare_fleet(name, seed)
    if name == "serving-5way":
        return _prepare_serving(name, seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")
