#!/usr/bin/env python3
"""The language toolchain on one script: validate, lint, analyze, export.

Shows the repository-side tooling a script goes through before deployment —
semantic validation, lint findings, exhaustive outcome-reachability analysis
(which proves every declared outcome of the order application can happen and
names a witness for each), and Graphviz export for the figures.

Run:  python examples/toolchain.py
"""

from repro.analysis import analyze_outcomes
from repro.core import structure_summary
from repro.lang import compile_script, format_script, lint_script, to_dot
from repro.workloads import paper_order


def main() -> None:
    script = compile_script(paper_order.SCRIPT_TEXT)
    print("validated: OK")

    summary = structure_summary(script.tasks[paper_order.ROOT_TASK])
    print(
        f"structure: {summary['tasks']} tasks, {summary['data_edges']} dataflow "
        f"+ {summary['notification_edges']} notification arcs, "
        f"{summary['outputs']} outputs"
    )

    findings = lint_script(script)
    print(f"lint     : {len(findings)} finding(s)"
          + ("".join(f"\n           {w}" for w in findings)))

    print()
    print(analyze_outcomes(script).summary())

    dot = to_dot(script)
    print(f"\ngraphviz : {len(dot.splitlines())} lines of DOT "
          f"(pipe through `dot -Tsvg` to render Fig. 7)")
    canonical = format_script(script)
    assert compile_script(canonical).tasks == script.tasks
    print(f"formatter: canonical text round-trips ({len(canonical)} chars)")


if __name__ == "__main__":
    main()
