"""Tests for outcome-reachability analysis."""

import pytest

from repro.core import ScriptBuilder, from_input, from_output
from repro.analysis.outcomes import analyze_outcomes
from repro.workloads import paper_order, paper_service_impact, paper_trip


class TestPaperApps:
    def test_order_app_outcomes_all_reachable(self):
        analysis = analyze_outcomes(paper_order.build())
        assert analysis.unreachable == []
        assert set(analysis.reachable) == {"orderCompleted", "orderCancelled"}
        assert analysis.cases_explored == 8  # 2*2*2*1 final outputs... (2,2,2,1)

    def test_order_witness_is_replayable(self):
        analysis = analyze_outcomes(paper_order.build())
        witness = analysis.reachable["orderCancelled"]
        # the witness must include at least one failing choice
        assert any(
            name in ("notAuthorised", "stockNotAvailable", "dispatchFailed")
            for name in witness.values()
        )

    def test_service_impact_all_reachable(self):
        analysis = analyze_outcomes(paper_service_impact.build())
        assert analysis.unreachable == []
        assert len(analysis.reachable) == 3

    def test_trip_app_reachable_with_stalls_reported(self):
        analysis = analyze_outcomes(paper_trip.build())
        assert analysis.unreachable == []
        # some fixed-outcome assignments loop forever (hotel always fails ->
        # BR retries identically): reported as stalls, with a witness
        assert analysis.stalls > 0
        assert analysis.stall_witness is not None


class TestDefectDetection:
    def test_unreachable_outcome_detected(self):
        """An output mapping that references the wrong outcome name is valid
        (the outcome exists) but unreachable in combination."""
        b = ScriptBuilder()
        b.object_class("Data")
        b.taskclass("T").input_set("main").outcome("ok", out="Data").outcome("nope")
        (
            b.taskclass("Root")
            .input_set("main")
            .outcome("done", out="Data")
            .outcome("ghostPath")
        )
        c = b.compound("wf", "Root")
        c.task("t", "T").implementation(code="x").notify(
            "main", from_input("wf", "main")
        ).up()
        c.output("done").object("out", from_output("t", "ok", "out")).up()
        # ghostPath requires BOTH of t's outcomes — impossible
        c.output("ghostPath").notify(from_output("t", "ok")).notify(
            from_output("t", "nope")
        ).up()
        c.up()
        analysis = analyze_outcomes(b.build())
        assert analysis.unreachable == ["ghostPath"]
        assert "done" in analysis.reachable

    def test_stalling_assignment_found(self):
        b = ScriptBuilder()
        b.object_class("Data")
        b.taskclass("T").input_set("main").outcome("ok", out="Data").outcome("silent")
        b.taskclass("Root").input_set("main").outcome("done", out="Data")
        c = b.compound("wf", "Root")
        c.task("t", "T").implementation(code="x").notify(
            "main", from_input("wf", "main")
        ).up()
        c.output("done").object("out", from_output("t", "ok", "out")).up()
        c.up()
        analysis = analyze_outcomes(b.build())
        assert analysis.stalls == 1  # `silent` leads nowhere
        assert analysis.stall_witness == {"wf/t": "silent"}

    def test_case_cap_truncates(self):
        analysis = analyze_outcomes(paper_trip.build(), max_cases=10)
        assert analysis.truncated
        assert analysis.cases_explored == 10


class TestCliAnalyze:
    def test_analyze_command(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "order.wf"
        path.write_text(paper_order.SCRIPT_TEXT, encoding="utf-8")
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "reachable   orderCompleted" in out

    def test_analyze_flags_unreachable(self, tmp_path, capsys):
        from repro.cli import main

        text = """
        class Data;
        taskclass T { inputs { input main { } };
                      outputs { outcome ok { }; outcome nope { } } };
        taskclass Root { inputs { input main { } };
                         outputs { outcome done { }; outcome never { } } };
        compoundtask wf of taskclass Root {
            task t of taskclass T {
                implementation { "code" is "x" };
                inputs { input main { notification from { task wf if input main } } }
            };
            outputs {
                outcome done { notification from { task t if output ok } };
                outcome never {
                    notification from { task t if output ok };
                    notification from { task t if output nope }
                }
            }
        };
        """
        path = tmp_path / "dead.wf"
        path.write_text(text, encoding="utf-8")
        assert main(["analyze", str(path)]) == 1
        assert "UNREACHABLE never" in capsys.readouterr().out
