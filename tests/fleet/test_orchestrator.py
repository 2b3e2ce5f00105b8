"""The fleet orchestrator: materialization and the boundary control loop."""

import pytest

from repro.cluster.incidents import Outcome
from repro.faults import FaultKind, FaultSpec
from repro.fleet import FleetFaultInjector, FleetOrchestrator, FleetSpec
from repro.hardware.units import MIB


def small_spec(**kwargs):
    defaults = dict(
        zones=3,
        racks_per_zone=1,
        hosts_per_rack=2,
        spares=3,
        vms=3,
        vm_memory_bytes=128 * MIB,
        quantum=0.5,
        seed=11,
    )
    defaults.update(kwargs)
    return FleetSpec(**defaults)


class TestMaterialization:
    def test_one_shard_per_planned_host_pair(self):
        orchestrator = FleetOrchestrator(small_spec())
        assert set(orchestrator.shards) == {
            f"{p}--{s}" for p, s in orchestrator.plan.by_host_pair()
        }
        placed = {
            vm
            for shard in orchestrator.shards.values()
            for vm in shard.engines
        }
        assert placed == {"vm-0000", "vm-0001", "vm-0002"}

    def test_shards_never_share_host_objects(self):
        orchestrator = FleetOrchestrator(small_spec(vms=6))
        for name, replicas in orchestrator.materializations.items():
            logical = orchestrator.logical[name].host
            for shard, host in replicas:
                assert host is not logical
                assert host.name == name
                # The materialization lives on its shard's calendar,
                # not the planning model's.
                assert host.sim is shard.sim

    def test_anti_affinity_shapes_every_pair(self):
        orchestrator = FleetOrchestrator(small_spec())
        topology = orchestrator.topology
        for primary, secondary in orchestrator.plan.by_host_pair():
            assert topology.zone_of(primary) != topology.zone_of(secondary)

    def test_an_unplaceable_fleet_is_a_constructor_error(self):
        # One zone + zone anti-affinity cannot place any secondary.
        with pytest.raises(RuntimeError, match="cannot protect"):
            FleetOrchestrator(small_spec(zones=1, spares=0))


class TestLifecycle:
    def test_start_protection_seeds_every_engine(self):
        orchestrator = FleetOrchestrator(small_spec())
        orchestrator.start_protection()
        for shard in orchestrator.shards.values():
            for engine in shard.engines.values():
                assert engine.ready.ok is True

    def test_double_start_rejected(self):
        orchestrator = FleetOrchestrator(small_spec())
        orchestrator.start_protection()
        with pytest.raises(RuntimeError, match="already started"):
            orchestrator.start_protection()

    def test_steady_state_stays_fully_protected(self):
        orchestrator = FleetOrchestrator(small_spec())
        orchestrator.start_protection()
        orchestrator.run_for(10.0)
        observation = orchestrator.observe()
        assert observation.protected == 3
        assert observation.queue_depth == 0
        assert orchestrator.dropped == {}


class TestZoneOutageReprotection:
    def run_outage(self, spec=None, duration=4.0, horizon=40.0):
        orchestrator = FleetOrchestrator(spec or small_spec())
        injector = FleetFaultInjector(orchestrator)
        orchestrator.start_protection()
        injector.inject(
            FaultSpec(
                kind=FaultKind.ZONE_OUTAGE,
                target="z0",
                at=2.0,
                duration=duration,
            )
        )
        orchestrator.run_for(horizon)
        return orchestrator

    def test_outage_triggers_failovers_then_reprotection(self):
        orchestrator = self.run_outage()
        # z0's Xen host primaries at least one VM; its heartbeat stops
        # and the shard promotes the replica.
        assert orchestrator.ledger().count(Outcome.FAILED_OVER) >= 1
        assert orchestrator.queue.stats.enqueued >= 1
        completed = [r for r in orchestrator.reprotections if not r.failed]
        assert completed, orchestrator.dropped
        for record in completed:
            assert record.spare_host.startswith("spare-")
            assert record.unprotected_window > 0
        # Everything queued was eventually admitted and resolved.
        assert orchestrator.queue.depth == 0
        assert orchestrator.inflight == {}

    def test_reprotection_respects_planner_constraints(self):
        orchestrator = self.run_outage()
        topology = orchestrator.topology
        for record in orchestrator.reprotections:
            if record.failed:
                continue
            shard = orchestrator.shards[record.shard_name]
            engine = shard.reseed_engines[record.vm_name]
            # Heterogeneous flavors and zone anti-affinity hold for the
            # re-seeded pair too.
            assert engine.primary.flavor != engine.secondary.flavor
            assert topology.zone_of(engine.primary.host.name) != \
                topology.zone_of(record.spare_host)

    def test_admission_never_exceeds_the_limit(self):
        orchestrator = FleetOrchestrator(small_spec(vms=6))
        injector = FleetFaultInjector(orchestrator)
        orchestrator.start_protection()
        injector.inject(
            FaultSpec(
                kind=FaultKind.ZONE_OUTAGE, target="z0", at=2.0, duration=4.0
            )
        )
        peak = 0
        deadline = orchestrator.now + 40.0
        while orchestrator.now < deadline:
            orchestrator.sharded.step_quantum()
            peak = max(peak, len(orchestrator.inflight))
        assert 1 <= peak <= orchestrator.admission.max_limit

    def test_spare_capacity_is_committed_per_reseed(self):
        orchestrator = self.run_outage()
        for record in orchestrator.reprotections:
            if record.failed:
                continue
            assert orchestrator.committed[record.spare_host] >= \
                orchestrator.spec.vm_memory_bytes

    def test_control_loop_reacts_to_the_outage(self):
        orchestrator = self.run_outage()
        # The last boundary decision exists and carries a reason.
        assert orchestrator.last_action is not None
        assert orchestrator.last_action.reason
