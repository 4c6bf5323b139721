"""Tests for built-in timer tasks: the paper's §4.2 timeout pattern —
"a set of 'normal' inputs and a set for an exceptional input such as a timer
enabling a task to wait for normal inputs with a timeout"."""

from repro.core import ScriptBuilder, from_input, from_output
from repro.engine import outcome
from repro.lang import format_script
from repro.services import WorkflowSystem


def timeout_script():
    """`process` starts from its normal set when data arrives, or from its
    exceptional set when the timer fires first."""
    b = ScriptBuilder()
    b.object_class("Data")
    b.taskclass("Fetch").input_set("main").outcome("fetched", out="Data").outcome(
        "empty"
    )
    b.taskclass("Timer").input_set("main").outcome("fired")
    (
        b.taskclass("Process")
        .input_set("normal", inp="Data")
        .input_set("exceptional")
        .outcome("processed", out="Data")
        .outcome("timedOut")
    )
    b.taskclass("Root").input_set("main").outcome("done", out="Data").outcome(
        "gaveUp"
    )
    c = b.compound("wf", "Root")
    c.task("fetch", "Fetch").implementation(code="fetch").notify(
        "main", from_input("wf", "main")
    ).up()
    c.task("timer", "Timer").implementation(code="system.timer", delay="40").notify(
        "main", from_input("wf", "main")
    ).up()
    process = c.task("process", "Process").implementation(code="process")
    process.input("normal", "inp", from_output("fetch", "fetched", "out"))
    process.notify("exceptional", from_output("timer", "fired"))
    process.up()
    c.output("done").object("out", from_output("process", "processed", "out")).up()
    c.output("gaveUp").notify(from_output("process", "timedOut")).up()
    c.up()
    return b.build()


def make_system(fetch_behaviour):
    system = WorkflowSystem(workers=1)
    system.registry.register("fetch", fetch_behaviour)
    system.registry.register(
        "process",
        lambda ctx: outcome("processed", out=f"p({ctx.value('inp')})")
        if ctx.input_set == "normal"
        else outcome("timedOut"),
    )
    system.deploy("wf", format_script(timeout_script()))
    return system


class TestTimerTasks:
    def test_normal_input_beats_slow_timer(self):
        system = make_system(lambda ctx: outcome("fetched", out="data!"))
        iid = system.instantiate("wf", "wf", {})
        result = system.run_until_terminal(iid, max_time=5_000)
        assert result["outcome"] == "done"
        assert result["objects"]["out"]["value"] == "p(data!)"

    def test_timer_fires_when_normal_input_never_comes(self):
        # fetch returns `empty`, which carries no Data: the normal set can
        # never be satisfied, and the 40-unit timer triggers the exceptional
        # set instead
        system = make_system(lambda ctx: outcome("empty"))
        iid = system.instantiate("wf", "wf", {})
        result = system.run_until_terminal(iid, max_time=5_000)
        assert result["outcome"] == "gaveUp"

    def test_timer_event_is_journaled_and_survives_recovery(self):
        system = make_system(lambda ctx: outcome("empty"))
        iid = system.instantiate("wf", "wf", {})
        system.clock.advance(100.0)
        assert system.execution.status(iid)["outcome"] == "gaveUp"
        system.execution_node.crash()
        system.execution_node.recover()
        assert system.execution.status(iid)["outcome"] == "gaveUp"

    def test_pending_timer_rearmed_after_crash(self):
        system = make_system(lambda ctx: outcome("empty"))
        iid = system.instantiate("wf", "wf", {})
        # crash before the 40-unit timer fires; after recovery it re-arms
        system.clock.advance(10.0)
        system.execution_node.crash()
        system.clock.advance(5.0)
        system.execution_node.recover()
        result = system.run_until_terminal(iid, max_time=5_000)
        assert result["outcome"] == "gaveUp"

    def test_timer_with_no_outcome_is_a_failure(self):
        b = ScriptBuilder()
        b.taskclass("BadTimer").input_set("main").abort_outcome("never")
        b.taskclass("Root").input_set("main").outcome("done")
        c = b.compound("wf", "Root")
        c.task("t", "BadTimer").implementation(code="system.timer", delay="5").notify(
            "main", from_input("wf", "main")
        ).up()
        c.output("done").notify(from_output("t", "never")).up()
        c.up()
        system = WorkflowSystem(workers=1)
        system.deploy("bad", format_script(b.build()))
        iid = system.instantiate("bad", "wf", {})
        system.clock.advance(200.0)
        status = system.execution.status(iid)
        # the failure surfaced through the normal failure machinery: the
        # abort outcome is published (BadTimer declares one), ending the run
        assert status["outcome"] in ("done", None) or status["status"] in (
            "completed",
            "failed",
        )
        journal = system.execution.export_instance(iid)["journal"]
        assert any(
            e["type"] == "failure"
            and e["error"] == "system.timer task class declares no outcome"
            for e in journal
        )
