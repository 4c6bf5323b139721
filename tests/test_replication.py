"""Hot-standby replication of the execution service: lease arbitration,
fencing epochs, log shipping, and lease-fenced failover
(docs/PROTOCOLS.md §12)."""

import pytest

from repro.core import ScriptBuilder, from_input, from_output
from repro.engine import pending
from repro.lang import format_script
from repro.net.clock import EventClock
from repro.net.network import LatencyModel, Network
from repro.net.node import Node
from repro.orb.broker import CommFailure, Fenced
from repro.replication import (
    FailureDetector,
    LeaseService,
    ReplicatedExecutionService,
    Role,
)
from repro.services import WorkflowSystem
from repro.services.worker import TaskWorker, WorkRequest
from repro.txn.store import ObjectStore
from repro.workloads import paper_order, paper_service_impact, paper_trip


def lease_fixture(duration=30.0):
    clock = EventClock()
    network = Network(clock, LatencyModel(1.0, 0.0), 0.0, 0)
    node = Node("lease-node", clock, network)
    store = ObjectStore("lease-store")
    service = LeaseService("lease", store, duration=duration)
    node.install(service)
    return clock, service


def replicated_system(replicas=3, workload=paper_order, name="order",
                      **kwargs):
    kwargs.setdefault("lease_duration", 30.0)
    kwargs.setdefault("repl_interval", 5.0)
    system = WorkflowSystem(replicas=replicas, **kwargs)
    workload.default_registry(registry=system.registry)
    system.deploy(name, workload.SCRIPT_TEXT)
    return system


class TestLeaseService:
    def test_bootstrap_grant_advances_epoch(self):
        _, lease = lease_fixture()
        grant = lease.acquire("r1")
        assert grant["granted"] and grant["holder"] == "r1"
        assert grant["epoch"] == 1
        assert "r1" in grant["isr"]

    def test_held_unexpired_lease_refused(self):
        clock, lease = lease_fixture(duration=30.0)
        lease.acquire("r1")
        clock.advance(10.0)
        refusal = lease.acquire("r2")
        assert not refusal["granted"]
        assert refusal["holder"] == "r1"

    def test_expired_lease_passes_to_isr_member(self):
        clock, lease = lease_fixture(duration=30.0)
        first = lease.acquire("r1")
        lease.enlist("r2", first["epoch"])
        clock.advance(31.0)
        grant = lease.acquire("r2")
        assert grant["granted"]
        assert grant["epoch"] == 2  # every grant advances the fencing epoch

    def test_expired_lease_refused_to_lagging_replica(self):
        clock, lease = lease_fixture(duration=30.0)
        lease.acquire("r1")  # ISR = [r1]
        clock.advance(31.0)
        refusal = lease.acquire("r2")  # never enlisted: durable prefix suspect
        assert not refusal["granted"]
        assert "in-sync" in refusal["reason"]

    def test_regrant_to_same_holder_still_advances_epoch(self):
        clock, lease = lease_fixture(duration=30.0)
        first = lease.acquire("r1")
        clock.advance(31.0)
        second = lease.acquire("r1")
        assert second["granted"]
        assert second["epoch"] == first["epoch"] + 1

    def test_renew_extends_only_for_current_holder(self):
        clock, lease = lease_fixture(duration=30.0)
        grant = lease.acquire("r1")
        clock.advance(10.0)
        assert lease.renew("r1", grant["epoch"])["granted"]
        assert not lease.renew("r2", grant["epoch"])["granted"]
        assert not lease.renew("r1", grant["epoch"] + 7)["granted"]

    def test_renew_after_expiry_forces_reacquire(self):
        clock, lease = lease_fixture(duration=30.0)
        grant = lease.acquire("r1")
        clock.advance(31.0)
        refusal = lease.renew("r1", grant["epoch"])
        assert not refusal["granted"]
        assert "re-acquire" in refusal["reason"]

    def test_demote_and_enlist_edit_the_isr(self):
        _, lease = lease_fixture()
        grant = lease.acquire("r1")
        lease.enlist("r2", grant["epoch"])
        assert "r2" in lease.lease_info()["isr"]
        lease.demote("r2", grant["epoch"])
        assert "r2" not in lease.lease_info()["isr"]
        # a stale primary cannot edit the membership it no longer owns
        assert not lease.demote("r1", grant["epoch"] - 1)

    def test_isr_survives_arbiter_crash(self):
        clock, lease = lease_fixture()
        grant = lease.acquire("r1")
        lease.enlist("r2", grant["epoch"])
        lease.store.crash()
        lease.store.recover()
        info = lease.lease_info()
        assert info["holder"] == "r1"
        assert sorted(info["isr"]) == ["r1", "r2"]


class TestFailureDetector:
    def test_suspects_after_misses(self):
        detector = FailureDetector()
        for t in range(10):
            detector.missed("r1", float(t))
        assert detector.suspected("r1", 10.0)
        detector.renewal("r1", 11.0)
        assert not detector.suspected("r1", 11.0)


class TestWorkerFencing:
    def _request(self, epoch):
        return WorkRequest(
            instance_id="wf-1", task_path="t", execution_index=0,
            taskclass={"name": "T",
                       "input_sets": [{"name": "main", "objects": []}],
                       "outputs": []},
            code=None, input_set="main", inputs={}, properties={}, attempt=0,
            repeats=0, reply_to="execution-node", epoch=epoch,
        ).to_plain()

    def test_stale_epoch_refused_without_executing(self):
        worker = TaskWorker("w1", registry=None)
        worker.fence_epoch = 5
        reply = worker.execute(self._request(epoch=3))
        assert reply["fenced"] and not reply["ok"]
        assert reply["epoch"] == 5
        assert worker.executed == []

    def test_higher_epoch_raises_the_fence(self):
        worker = TaskWorker("w1", registry=None)
        worker.execute(self._request(epoch=4))
        assert worker.fence_epoch == 4
        reply = worker.execute(self._request(epoch=2))
        assert reply.get("fenced")


class TestReplicatedHappyPath:
    def test_bootstrap_elects_first_replica(self):
        system = replicated_system(replicas=3)
        roles = [r.role for r in system.execution_replicas]
        assert roles[0] is Role.PRIMARY
        assert roles[1:] == [Role.STANDBY, Role.STANDBY]
        assert system.execution_replicas[0].epoch == 1
        assert system.primary_execution() is system.execution_replicas[0]

    def test_workflow_completes_and_standbys_tail(self):
        system = replicated_system(replicas=3)
        iid = system.instantiate("order", paper_order.ROOT_TASK,
                                 {"order": "o-1"})
        result = system.run_until_terminal(iid)
        assert result["status"] == "completed"
        system.clock.advance(20.0)  # a couple of replication ticks
        primary = system.execution_replicas[0]
        assert primary.replication_settled()
        target = primary.store.wal.last_durable_lsn
        for standby in system.execution_replicas[1:]:
            status = standby.repl_status()
            assert status["tail"]["lsn"] == target
            # the warm image is ready to serve, not just the raw journal
            assert iid in standby.runtimes
            assert standby.runtimes[iid].tree.status.value == "completed"

    def test_demoted_replica_fences_client_calls(self):
        system = replicated_system(replicas=2)
        standby = system.execution_replicas[1]
        from repro.orb.proxy import Proxy

        proxy = Proxy(system.broker, system.client_node, standby.name)
        with pytest.raises(Fenced):
            proxy.list_instances()

    def test_replicate_rejects_stale_epoch(self):
        system = replicated_system(replicas=2)
        system.clock.advance(10.0)
        standby = system.execution_replicas[1]
        reply = standby.replicate({
            "epoch": 0, "writer": "ghost", "reset": False,
            "from_lsn": 0, "last_lsn": 0, "records": [],
        })
        assert not reply["ok"] and reply.get("fenced")


class TestFailover:
    def _run_to_terminal(self, system, iid, max_time=2_000.0):
        return system.run_until_terminal(iid, max_time=max_time)

    def test_standby_promotes_after_primary_crash(self):
        system = replicated_system(replicas=3)
        iid = system.instantiate("order", paper_order.ROOT_TASK,
                                 {"order": "o-1"})
        system.clock.advance(6.0)  # one replication tick: standbys enlisted
        old = system.execution_replicas[0]
        old_epoch = old.epoch
        system.execution_node.crash()
        result = self._run_to_terminal(system, iid)
        assert result["status"] == "completed"
        new = system.primary_execution()
        assert new is not None and new is not old
        assert new.epoch > old_epoch
        assert new.repl_stats["promotions"] == 1

    def test_resurrected_stale_primary_demotes_and_resyncs(self):
        system = replicated_system(replicas=2)
        iid = system.instantiate("order", paper_order.ROOT_TASK,
                                 {"order": "o-1"})
        system.clock.advance(6.0)
        old = system.execution_replicas[0]
        system.execution_node.crash()
        result = self._run_to_terminal(system, iid)
        assert result["status"] == "completed"
        new = system.primary_execution()
        system.execution_node.recover()
        system.clock.advance(120.0)
        assert old.role is Role.STANDBY  # fenced down, not split-brain
        assert old._max_epoch_seen >= new.epoch
        assert old.repl_status()["tail"]["lsn"] == \
            new.store.wal.last_durable_lsn
        # the instance is visible from the resynced standby's warm image too
        assert iid in old.runtimes

    def test_failover_preserves_journal_exactly_once(self):
        from repro.sim import oracles

        system = replicated_system(replicas=3, workload=paper_trip,
                                   name="trip")
        iid = system.instantiate("trip", paper_trip.ROOT_TASK,
                                 {"user": "u-1"})
        system.clock.advance(6.0)
        system.execution_node.crash()
        result = self._run_to_terminal(system, iid)
        assert result["status"] == "completed"
        new = system.primary_execution()
        assert oracles.check_journal_integrity(new.store) == []
        assert oracles.check_replay_agreement(new) == []
        stores = [r.store for r in system.execution_replicas]
        assert oracles.check_epoch_fencing(stores) == []

    def test_instantiate_rides_out_failover(self):
        system = replicated_system(replicas=2)
        system.clock.advance(6.0)
        system.execution_node.crash()
        # the client-facing helper retries across the lease turnover
        iid = system.instantiate("order", paper_order.ROOT_TASK,
                                 {"order": "o-2"})
        result = self._run_to_terminal(system, iid)
        assert result["status"] == "completed"
        assert system.primary_execution() is system.execution_replicas[1]

    def test_no_failover_without_standbys(self):
        system = replicated_system(replicas=1)
        iid = system.instantiate("order", paper_order.ROOT_TASK,
                                 {"order": "o-1"})
        system.execution_node.crash()
        system.clock.advance(120.0)
        assert system.primary_execution() is None
        system.execution_node.recover()
        result = self._run_to_terminal(system, iid)
        assert result["status"] == "completed"  # classic single-node recovery


class TestSettledGating:
    def test_settled_false_while_a_peer_lags(self):
        system = replicated_system(replicas=2)
        primary, standby = system.execution_replicas
        iid = system.instantiate("order", paper_order.ROOT_TASK,
                                 {"order": "o-1"})
        system.clock.advance(6.0)
        assert primary.replication_settled()
        # silence the standby: pushes fail, the primary demotes it from the
        # ISR and keeps serving (availability over replication factor)
        system.replica_nodes[1].crash()
        system.run_until_terminal(iid)
        assert primary.is_primary()
        assert standby.name not in primary.isr
        assert primary.replication_settled()  # settled over the shrunk ISR

    def test_journal_error_path_flushes_buffer(self):
        """Satellite regression: an exception raised between buffering a
        journal entry and the next barrier must flush the buffer, not
        strand it (``_journal_guard``)."""
        system = replicated_system(replicas=0)
        iid = system.instantiate("order", paper_order.ROOT_TASK,
                                 {"order": "o-1"})
        system.run_until_terminal(iid)
        service = system.execution
        journaled = service.store.get_committed(f"instance:{iid}:meta")
        before = journaled["journal_len"]
        # an illegal reconfiguration raises inside the guarded region after
        # the runtime was touched; the guard must leave the durable journal
        # consistent with the (unchanged) tree
        with pytest.raises(Exception):
            service.reconfigure(iid, "not a script at all {{{")
        meta = service.store.get_committed(f"instance:{iid}:meta")
        assert meta["journal_len"] == before
        assert not service._jbuf  # the guard drained the batch buffer


class TestColdRepromotion:
    def test_repromoted_primary_resends_as_redispatches(self):
        """A primary that self-demotes and then re-acquires the lease
        rebuilds its image cold; its surviving flights must resume as
        redispatches (pin abandoned, backoff advanced) exactly as after a
        crash recovery or a warm promotion."""
        system = WorkflowSystem(replicas=2, worker_service_time=50.0)
        paper_order.default_registry(registry=system.registry)
        system.deploy("order", paper_order.SCRIPT_TEXT)
        iid = system.instantiate("order", paper_order.ROOT_TASK,
                                 {"order": "o-1"})
        system.clock.advance(6.0)
        primary = system.execution_replicas[0]
        assert primary.runtimes[iid].in_flight  # workers still busy
        primary._demote_self("test: lease renewal lost")
        assert primary._try_acquire()
        redispatches = [
            flight.redispatches
            for flight in primary.runtimes[iid].in_flight.values()
        ]
        assert redispatches and min(redispatches) >= 1, redispatches


def _image_view(runtime):
    """What a standby's warm image must share with a cold replay."""
    return {
        "status": runtime.tree.status.value,
        "outcome": runtime.tree.root.machine.outcome,
        "in_flight": sorted(runtime.in_flight),
        "journal_keys": sorted(runtime.journal_keys),
        "exec_counter": dict(runtime.exec_counter),
        "deadline_expiries": dict(runtime.deadline_expiries),
    }


class TestWarmImage:
    @pytest.mark.parametrize("workload, name, inputs", [
        (paper_order, "order", {"order": "o-1"}),
        (paper_trip, "trip", {"user": "u-1"}),
        (paper_service_impact, "service-impact",
         {"alarmsSource": "alarm-feed-1"}),
    ])
    def test_warm_image_equals_cold_replay(self, monkeypatch, workload,
                                           name, inputs):
        """After every batch a standby applies, its incrementally maintained
        image equals a from-scratch replay of its own durable store — across
        a failover and the old primary's resurrection as a standby."""
        checked = {}
        apply_batch = ReplicatedExecutionService.replicate

        def replicate(service, batch):
            reply = apply_batch(service, batch)
            if reply.get("ok"):
                index = service.store.get_committed("instance-index", [])
                assert sorted(service.runtimes) == sorted(index)
                for iid, runtime in service.runtimes.items():
                    cold = service._replay(iid)
                    assert _image_view(runtime) == _image_view(cold), iid
                checked[service.name] = checked.get(service.name, 0) + 1
            return reply

        monkeypatch.setattr(ReplicatedExecutionService, "replicate", replicate)
        system = replicated_system(replicas=2, workload=workload, name=name)
        iids = [system.instantiate(name, workload.ROOT_TASK, dict(inputs))
                for _ in range(2)]
        system.clock.advance(6.0)
        system.execution_node.crash()  # kill the primary mid-workload
        for iid in iids:
            assert system.run_until_terminal(iid, max_time=2_000.0)[
                "status"] in ("completed", "aborted")
        system.execution_node.recover()  # resurrect it: it resyncs as standby
        system.clock.advance(120.0)
        assert set(checked) == {r.name for r in system.execution_replicas}


def _approval_script():
    """One task that parks awaiting an external completion and can be
    force-aborted while parked."""
    b = ScriptBuilder()
    b.object_class("Data")
    (
        b.taskclass("Approve")
        .input_set("main", request="Data")
        .outcome("approved", decision="Data")
        .abort_outcome("withdrawn")
    )
    b.taskclass("Root").input_set("main", inp="Data").outcome(
        "done", out="Data"
    ).outcome("withdrawn")
    c = b.compound("wf", "Root")
    c.task("approve", "Approve").implementation(code="approve").input(
        "main", "request", from_input("wf", "main", "inp")
    ).up()
    c.output("done").object(
        "out", from_output("approve", "approved", "decision")
    ).up()
    c.output("withdrawn").notify(from_output("approve", "withdrawn")).up()
    c.up()
    return format_script(b.build())


class TestDemotedPrimaryRefusesAcknowledgement:
    OPERATIONS = {
        "instantiate": lambda p, iid, text, snap: p.instantiate(
            "approval", "wf", "main", {"inp": "r-2"}),
        "reconfigure": lambda p, iid, text, snap: p.reconfigure(iid, text),
        "force_abort": lambda p, iid, text, snap: p.force_abort(
            iid, "wf/approve"),
        "complete_task": lambda p, iid, text, snap: p.complete_task(
            iid, "wf/approve", "approved", {"decision": "yes"}),
        "import_instance": lambda p, iid, text, snap: p.import_instance(snap),
    }

    @pytest.mark.parametrize("operation", sorted(OPERATIONS))
    def test_mutating_operation_fenced_after_demotion(self, operation):
        """Serving the call finds the ISR standby unreachable and cannot
        reach the lease service to shrink the ISR: the primary demotes
        itself, and the call must not be acknowledged."""
        system = replicated_system(replicas=2)
        system.registry.register("approve", lambda ctx: pending("a human"))
        text = _approval_script()
        system.deploy("approval", text)
        iid = system.instantiate("approval", "wf", {"inp": "r-1"})
        system.clock.advance(20.0)
        primary, standby = system.execution_replicas
        assert primary.external_tasks(iid) == ["wf/approve"]
        assert standby.name in primary.isr
        snapshot = dict(primary.export_instance(iid), instance="wf-imported")
        system.replica_nodes[1].crash()
        system.lease_node.crash()
        with pytest.raises(Fenced):
            self.OPERATIONS[operation](primary, iid, text, snapshot)
        assert primary.role is Role.STANDBY
