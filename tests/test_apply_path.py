"""One apply path: a journal entry takes effect through the same code live
and on replay (docs/PROTOCOLS.md §4.1).

For each of the eight journal entry types, a live run that has just
recorded such an entry must, once its journal is flushed, equal a cold
replay of that journal; and an operation whose entry fails to apply must
leave neither a journal entry nor any change to the runtime.
"""

import pytest

from repro.core import Implementation, ReplaceImplementation
from repro.core.errors import ExecutionError, ReconfigurationError
from repro.engine import outcome, pending
from repro.lang import format_script
from repro.services import WorkflowSystem
from repro.workloads import paper_order, paper_trip
from tests.test_deadlines import deadline_script, pinned_script
from tests.test_external_tasks import approval_script, base_registry
from tests.test_overload import deploy_cohort, tight_system


def runtime_view(runtime):
    """Everything replay must reproduce.  Log times come from the replaying
    clock, so only the event sequence is compared."""
    tree = runtime.tree
    return {
        "status": tree.status.value,
        "outcome": tree.root.machine.outcome,
        "log": [
            (e.seq, e.scope_path, e.producer_path, e.event.kind.value,
             e.event.name, dict(e.event.objects))
            for e in tree.log.entries
        ],
        "in_flight": sorted(runtime.in_flight),
        "external": sorted(runtime.external),
        "deadline_expiries": dict(runtime.deadline_expiries),
        "exec_counter": dict(runtime.exec_counter),
        "live_exec": dict(runtime.live_exec),
        "journal_keys": sorted(runtime.journal_keys),
    }


def journal_types(system, iid):
    return [e["type"] for e in system.execution.export_instance(iid)["journal"]]


def assert_replay_agrees(system, iid):
    service = system.execution
    service.flush_journal()
    assert runtime_view(service.runtimes[iid]) == runtime_view(service._replay(iid))


def run_checking_replay(system, iid, max_time=5_000.0, step=1.0):
    """Advance in small steps, comparing the live runtime with a replay of
    its journal after every step, until the instance leaves RUNNING."""
    stop = system.clock.now + max_time
    while system.execution.runtimes[iid].tree.status.value == "running":
        assert system.clock.now < stop, f"{iid} still running"
        system.clock.advance(step)
        assert_replay_agrees(system, iid)


def deploy(system, name, script_text, root, inputs):
    system.deploy(name, script_text)
    return system.instantiate(name, root, inputs)


def waiting_run(deadline):
    """``gather`` waits for ``maybe``, which parks awaiting an external
    completion nobody supplies: only ``gather``'s deadline can end it."""
    system = WorkflowSystem(workers=1)
    system.registry.register("maybe", lambda ctx: pending("never"))
    system.registry.register("gather", lambda ctx: outcome("gathered", out="y"))
    iid = deploy(system, "dl", format_script(deadline_script(deadline)), "wf", {})
    system.clock.advance(20.0)
    return system, iid


def parked_run():
    system = WorkflowSystem(workers=1, registry=base_registry())
    iid = deploy(system, "approval", format_script(approval_script()), "wf",
                 {"inp": "o-1"})
    system.clock.advance(20.0)
    assert system.execution.external_tasks(iid) == ["wf/approve"]
    return system, iid


class TestLiveEqualsReplay:
    def test_result(self):
        system = WorkflowSystem(workers=2)
        paper_order.default_registry(registry=system.registry)
        iid = deploy(system, "order", paper_order.SCRIPT_TEXT,
                     paper_order.ROOT_TASK, {"order": "o-1"})
        run_checking_replay(system, iid)
        assert "result" in journal_types(system, iid)
        assert system.status(iid)["status"] == "completed"

    def test_failure(self):
        system = WorkflowSystem(workers=1)

        def broken(ctx):
            raise RuntimeError("implementation bug")

        system.registry.register("impl", broken)
        iid = deploy(system, "p", format_script(pinned_script(None)), "wf", {})
        run_checking_replay(system, iid)
        assert "failure" in journal_types(system, iid)

    def test_mark(self):
        system = WorkflowSystem(workers=2)
        paper_trip.default_registry(registry=system.registry)
        iid = deploy(system, "trip", paper_trip.SCRIPT_TEXT, paper_trip.ROOT_TASK,
                     {"user": "u-1"})
        run_checking_replay(system, iid)
        assert "mark" in journal_types(system, iid)

    def test_external_then_completion(self):
        system, iid = parked_run()
        assert_replay_agrees(system, iid)
        assert journal_types(system, iid).count("external") == 1
        system.execution.complete_task(iid, "wf/approve", "approved",
                                       {"decision": "yes"})
        assert_replay_agrees(system, iid)
        run_checking_replay(system, iid)
        assert system.status(iid)["outcome"] == "done"

    def test_deadline_then_expiry(self):
        system, iid = waiting_run(deadline="25")
        assert "deadline" in journal_types(system, iid)
        assert_replay_agrees(system, iid)
        run_checking_replay(system, iid)
        assert journal_types(system, iid)[-1] == "force_abort"
        assert system.status(iid)["outcome"] == "expired"

    def test_force_abort(self):
        system, iid = waiting_run(deadline="500")
        system.execution.force_abort(iid, "wf/gather")
        assert journal_types(system, iid)[-1] == "force_abort"
        assert_replay_agrees(system, iid)
        assert system.status(iid)["outcome"] == "expired"

    def test_reconfig(self):
        system, iid = waiting_run(deadline="500")
        upgraded = ReplaceImplementation(
            "wf/gather", Implementation.of(code="gather", deadline="30")
        ).apply_checked(deadline_script("500"))
        system.execution.reconfigure(iid, format_script(upgraded))
        assert journal_types(system, iid)[-1] == "reconfig"
        assert_replay_agrees(system, iid)
        run_checking_replay(system, iid)

    def test_overloaded(self):
        system = tight_system()
        name, root = deploy_cohort(system)
        system.instantiate(name, root, {"inp": "hot"})
        system.execution.admission.pressure = 3  # every new arrival is shed
        victim = system.instantiate(name, root, {"inp": "late"})
        assert journal_types(system, victim) == ["overloaded"]
        assert_replay_agrees(system, victim)


class TestFailedApplicationIsNotJournaled:
    def assert_untouched(self, system, iid, operation, error):
        service = system.execution
        service.flush_journal()
        before = runtime_view(service.runtimes[iid])
        journal_len = len(journal_types(system, iid))
        with pytest.raises(error):
            operation()
        service.flush_journal()
        assert len(journal_types(system, iid)) == journal_len
        assert runtime_view(service.runtimes[iid]) == before
        assert_replay_agrees(system, iid)

    def test_illegal_reconfigure(self):
        system, iid = waiting_run(deadline="500")
        self.assert_untouched(
            system, iid,
            lambda: system.execution.reconfigure(iid, paper_order.SCRIPT_TEXT),
            ReconfigurationError,
        )

    def test_force_abort_of_unknown_path(self):
        system, iid = waiting_run(deadline="500")
        self.assert_untouched(
            system, iid,
            lambda: system.execution.force_abort(iid, "wf/no-such-task"),
            ExecutionError,
        )
