"""The protection stack: which parts a VM gets, and their lifecycle."""

import pytest

from repro.cluster import DeploymentSpec, ProtectedDeployment, ProtectionStack
from repro.faults import PhiAccrualDetector
from repro.hardware import GIB
from repro.recovery import MicrorebootConfig, RecoveryPolicy
from repro.replication.heartbeat import HeartbeatMonitor
from repro.replication.transport import TransportConfig


def deployment(**spec_kwargs):
    defaults = dict(memory_bytes=GIB, target_degradation=0.0, period=2.0)
    defaults.update(spec_kwargs)
    return ProtectedDeployment(DeploymentSpec(**defaults))


class TestParts:
    def test_default_is_heartbeat_and_failover(self):
        stack = deployment().stack
        assert isinstance(stack.monitor, HeartbeatMonitor)
        assert stack.degradation is None
        assert stack.gate is None
        assert stack.failover is not None
        assert stack.failover.monitor is stack.monitor
        assert stack.reprotection is None

    def test_phi_detector_keeps_its_default_threshold(self):
        built = deployment()
        stack = ProtectionStack(built.sim, built.engine, detector="phi")
        assert isinstance(stack.monitor, PhiAccrualDetector)
        assert stack.monitor.threshold == 8.0

    def test_unknown_detector_rejected(self):
        built = deployment()
        with pytest.raises(ValueError, match="detector"):
            ProtectionStack(built.sim, built.engine, detector="psychic")

    def test_transport_parts_join_a_started_engine(self):
        built = deployment(transport=TransportConfig())
        # Built with the deployment, before the transport exists.
        assert built.stack.degradation is None
        assert built.stack.monitor.loss_signal is None
        built.start_protection(wait_ready=True)
        late = ProtectionStack(built.sim, built.engine)
        assert late.degradation.engine is built.engine
        assert late.monitor.loss_signal == (
            built.engine.transport.link_appears_lossy
        )

    def test_policy_puts_the_gate_between_detector_and_failover(self):
        built = deployment()
        stack = ProtectionStack(built.sim, built.engine, policy="hybrid")
        assert stack.gate.policy is RecoveryPolicy.HYBRID
        assert stack.gate.monitor is stack.monitor
        assert stack.failover.monitor is stack.gate

    def test_colo_has_no_failover(self):
        built = deployment(
            engine="colo", primary_flavor="kvm", secondary_flavor="kvm"
        )
        assert built.stack.failover is None

    def test_spares_add_reprotection(self):
        built = deployment()
        stack = ProtectionStack(
            built.sim, built.engine, spares=[built.secondary], t_max=2.0
        )
        assert stack.reprotection.failover is stack.failover
        assert stack.reprotection.t_max == 2.0


class TestMicrorebootSharing:
    def test_gates_on_one_hypervisor_share_one_engine(self):
        built = deployment()
        first = ProtectionStack(built.sim, built.engine, policy="hybrid")
        second = ProtectionStack(
            built.sim, built.engine, policy="recover-in-place"
        )
        assert first.gate.microreboot is second.gate.microreboot
        assert built.primary.microreboot is first.gate.microreboot

    def test_a_different_config_on_the_same_hypervisor_is_rejected(self):
        built = deployment()
        ProtectionStack(built.sim, built.engine, policy="hybrid")
        with pytest.raises(ValueError, match="different config"):
            ProtectionStack(
                built.sim,
                built.engine,
                policy="hybrid",
                microreboot=MicrorebootConfig.with_uniform_prob(0.5),
            )

    def test_separate_deployments_get_separate_engines(self):
        one = ProtectedDeployment(
            DeploymentSpec(memory_bytes=GIB), policy="hybrid"
        )
        two = ProtectedDeployment(
            DeploymentSpec(memory_bytes=GIB), policy="hybrid"
        )
        assert one.stack.gate.microreboot is not two.stack.gate.microreboot


class TestLifecycle:
    def test_start_arms_every_part_and_stop_ends_them(self):
        built = ProtectedDeployment(
            DeploymentSpec(
                memory_bytes=GIB, target_degradation=0.0, period=1.0
            ),
            policy="hybrid",
        )
        built.start_protection(wait_ready=True)
        stack = built.stack
        sim = built.sim
        for process in (
            stack.monitor.process,
            stack.gate.process,
            stack.failover.process,
        ):
            assert process is not None and process.is_alive
        checkpoints = len(built.stats.checkpoints)
        stack.stop()
        sim.run(until=sim.now + 3.0)
        assert not stack.monitor.process.is_alive
        assert not stack.gate.process.is_alive
        # The protected engine belongs to the caller: it keeps going.
        assert len(built.stats.checkpoints) > checkpoints

    def test_primary_alive_tracks_the_primary(self):
        built = deployment()
        built.start_protection(wait_ready=True)
        assert built.stack.primary_alive
        built.primary.crash("test")
        assert not built.stack.primary_alive
