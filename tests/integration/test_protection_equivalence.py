"""Exact fingerprints of the protection chain on paths the goldens skip.

``perfbench/golden.json`` pins the default chaos detector and policy,
the reliable transport without a degraded threshold, a failover-only
fleet and the serving study.  The paths below wire the chain
differently — the phi-accrual detector, a recovery gate between the
detector and failover, the degraded-miss threshold fed by the
transport's loss signal next to the degradation ladder, per-zone
recovery policies in a fleet, and a deployment over the reliable
transport — so each one's exact outcome is pinned here.  Any change
to how the chain is built or started must leave every dict equal.
"""

import math
from collections import Counter

from repro.cluster.deployment import DeploymentSpec, ProtectedDeployment
from repro.faults import CampaignConfig, ChaosCampaign, FaultKind
from repro.fleet import FleetCampaign, FleetCampaignConfig, FleetSpec
from repro.hardware.units import GIB, MIB
from repro.recovery import MicrorebootConfig
from repro.replication.transport import TransportConfig
from repro.workloads import MemoryMicrobenchmark

#: Records whose count tracks the chain's behaviour beyond the
#: campaign fingerprint (degraded misses, ladder moves, gate outcomes).
CHAIN_RECORDS = (
    "heartbeat.failure_declared",
    "heartbeat.degraded_miss",
    "transport.degradation_transition",
    "failover",
    "recovery",
    "recovery.microreboot",
    "reprotection",
)


def chaos(**overrides):
    """(fingerprint, chain-record counts) of one small chaos campaign."""
    settings = dict(
        trials=2,
        seed=11,
        vms=2,
        kvm_hosts=1,
        settle_time=2.0,
        fault_window=2.0,
        recovery_time=15.0,
    )
    settings.update(overrides)
    counts = Counter()

    def count(record):
        if record.name in CHAIN_RECORDS:
            counts[record.name] += 1

    result = ChaosCampaign(
        CampaignConfig(**settings), subscribers=[count]
    ).run()
    return result.fingerprint(), dict(sorted(counts.items()))


class TestChaosPaths:
    def test_phi_detector(self):
        assert chaos(detector="phi", seed=5, trials=3) == (
            {
                "mean_mttr": 0.059496332,
                "max_mttr": 0.068763773,
                "mean_unprotected_window": 1.862288671,
                "dropped_vms": 0,
                "failovers": 6,
                "reprotections": 6,
                "retransmits": 0,
                "fencing_rejections": 0,
                "recoveries": 0,
                "failed_recoveries": 0,
                "mean_recovery_blackout": "nan",
                "pooled_nines": 2.504263,
            },
            {
                "failover": 6,
                "heartbeat.failure_declared": 6,
                "reprotection": 6,
            },
        )

    def test_recover_in_place(self):
        assert chaos(
            recovery_policy="recover-in-place",
            kinds=(
                FaultKind.HYPERVISOR_CRASH,
                FaultKind.HYPERVISOR_HANG,
                FaultKind.HOST_CRASH,
            ),
        ) == (
            {
                "mean_mttr": 0.344780088,
                "max_mttr": 0.344780088,
                "mean_unprotected_window": 0.277992738,
                "dropped_vms": 2,
                "failovers": 0,
                "reprotections": 2,
                "retransmits": 0,
                "fencing_rejections": 0,
                "recoveries": 2,
                "failed_recoveries": 0,
                "mean_recovery_blackout": 0.277992738,
                "pooled_nines": 0.344135,
            },
            {
                "heartbeat.failure_declared": 4,
                "recovery": 4,
                "recovery.microreboot": 1,
                "reprotection": 2,
            },
        )

    def test_hybrid(self):
        # Two co-located VMs share one microreboot attempt per outage.
        assert chaos(
            recovery_policy="hybrid",
            microreboot=MicrorebootConfig.with_uniform_prob(0.5),
            kinds=(FaultKind.HYPERVISOR_CRASH, FaultKind.HYPERVISOR_HANG),
            trials=3,
        ) == (
            {
                "mean_mttr": 0.369425943,
                "max_mttr": 0.48122168,
                "mean_unprotected_window": 0.851402334,
                "dropped_vms": 0,
                "failovers": 2,
                "reprotections": 6,
                "retransmits": 0,
                "fencing_rejections": 0,
                "recoveries": 4,
                "failed_recoveries": 2,
                "mean_recovery_blackout": 0.345959166,
                "pooled_nines": 1.711226,
            },
            {
                "failover": 2,
                "heartbeat.failure_declared": 6,
                "recovery": 6,
                "recovery.microreboot": 3,
                "reprotection": 6,
            },
        )

    def test_lossy_sweep_configuration(self):
        # lossy_sweep's settings: the reliable transport, a degraded
        # miss threshold of 12 and the degradation ladder; membench
        # guests give the transport checkpoint traffic to lose.
        assert chaos(
            seed=3,
            kinds=(
                FaultKind.LINK_LOSS,
                FaultKind.PACKET_CORRUPT,
                FaultKind.LATENCY_JITTER,
            ),
            reliable_transport=True,
            degraded_miss_threshold=12,
            faults_per_trial=2,
            workload="membench",
            workload_load=0.5,
        ) == (
            {
                "mean_mttr": "nan",
                "max_mttr": "nan",
                "mean_unprotected_window": "nan",
                "dropped_vms": 0,
                "failovers": 0,
                "reprotections": 0,
                "retransmits": 37,
                "fencing_rejections": 0,
                "recoveries": 0,
                "failed_recoveries": 0,
                "mean_recovery_blackout": "nan",
                "pooled_nines": "inf",
            },
            {
                "heartbeat.degraded_miss": 32,
                "transport.degradation_transition": 10,
            },
        )


class TestFleetZoneOverride:
    def test_hybrid_and_recover_in_place_zones(self):
        spec = FleetSpec(
            zones=3,
            racks_per_zone=1,
            hosts_per_rack=2,
            spares=3,
            vms=6,
            vm_memory_bytes=128 * MIB,
            quantum=0.5,
            seed=7,
            zone_recovery_policies=(
                ("z1", "hybrid"),
                ("z2", "recover-in-place"),
            ),
        )
        result = FleetCampaign(
            FleetCampaignConfig(
                spec=spec,
                settle_time=3.0,
                fault_window=4.0,
                recovery_time=25.0,
                faults=3,
                kinds=(FaultKind.HYPERVISOR_CRASH,),
            )
        ).run()
        fingerprint = result.fingerprint()
        fingerprint.pop("events_processed")
        assert fingerprint == {
            "vms": 6,
            "shards": 6,
            "quanta": 64,
            "faults": 3,
            "failovers": 2,
            "failed_failovers": 0,
            "secondary_losses": 0,
            "recoveries": 2,
            "failed_recoveries": 0,
            "reprotections": 4,
            "failed_reprotections": 0,
            "dropped_vms": 0,
            "enqueued": 2,
            "admitted": 2,
            "deferred": 0,
            "requeued": 0,
            "max_queue_depth": 2,
            "mean_unprotected_window": 0.692120507,
            "nines": 2.581973,
        }


class TestFencedDeployment:
    def test_stale_primary_fencing_outcome(self):
        # TestFencing's deployment: HERE over the reliable transport,
        # failover forced by the detector's attack path, then the stale
        # primary re-arms and must be fenced out.
        deployment = ProtectedDeployment(DeploymentSpec(
            engine="here",
            period=1.0,
            memory_bytes=GIB,
            seed=3,
            transport=TransportConfig(),
        ))
        deployment.start_protection(wait_ready=True)
        sim = deployment.sim
        engine = deployment.engine
        MemoryMicrobenchmark(sim, deployment.vm, load=0.2).start()
        sim.run(until=sim.now + 3.0)
        deployment.monitor.report_attack("suspected compromise")
        report = sim.run_until_triggered(
            deployment.failover.completed, limit=sim.now + 30.0
        )
        engine.re_arm()
        sim.run(until=sim.now + 10.0)

        def exact(value):
            return round(value, 9) if math.isfinite(value) else str(value)

        assert {
            "detected_at": exact(report.detected_at),
            "activated_at": exact(report.activated_at),
            "resumption_time": exact(report.resumption_time),
            "last_acked_epoch": report.last_acked_epoch,
            "fencing_generation": report.fencing_generation,
            "demoted": engine.demoted,
            "fencing_rejections": engine.replica_session.fencing_rejections,
            "checkpoints": len(deployment.stats.checkpoints),
            "stop_reason": deployment.stats.stop_reason,
            "probes_sent": deployment.monitor.probes_sent,
            "now": exact(sim.now),
        } == {
            "detected_at": 4.623943188,
            "activated_at": 4.633943188,
            "resumption_time": 0.01,
            "last_acked_epoch": 2,
            "fencing_generation": 1,
            "demoted": True,
            "fencing_rejections": 1,
            "checkpoints": 2,
            "stop_reason": (
                "demoted: generation 0 rejected: replica was promoted "
                "under fencing token FencingToken(generation=1, epoch=2)"
            ),
            "probes_sent": 155,
            "now": 14.633943188,
        }
