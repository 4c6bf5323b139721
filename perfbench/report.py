"""Per-layer report of every workload: span split beside a cProfile split.

For each workload this drives one round three times under the same seed:
untraced (for the tracing overhead), traced (spans around the public entry
points of each layer, see ``tracing.py``) and profiled (cProfile self time
attributed by ``src/repro/<subpackage>``).  It prints, and writes as
Markdown, both splits side by side, flags any workload where they disagree
on the top layer, and checks the layer separation the workloads were chosen
for.  Run from the root of a checkout::

    python3 perfbench/report.py --seed 1 --out perfbench/REPORT.md

cProfile charges a cost to every Python call and none to work inside C, so
its shares lean towards layers that make many small calls; the check is on
the ranking, not on the shares.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import platform
import pstats
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

import run

# src/repro subpackage -> span layer.  ``core`` holds the schema, selection
# and values the engine works on; ``analysis`` runs at deploy, like ``lang``.
SUBPACKAGE_LAYER = {
    "lang": "lang", "analysis": "lang", "core": "engine", "engine": "engine",
    "orb": "orb", "services": "services", "txn": "txn", "net": "net",
    "overload": "overload", "resilience": "resilience",
    "replication": "replication", "workloads": "app",
}


class ProfileProbe:
    """cProfile with the tracer's install/uninstall interface."""

    def __init__(self, clock: Any = None) -> None:
        self.profile = cProfile.Profile()
        self.wall = 0.0

    def install(self) -> None:
        self.profile.enable()

    def uninstall(self) -> None:
        self.profile.disable()


def _owner(filename: str) -> Optional[str]:
    """Layer of a source file, None for code outside repro and the benchmark
    (builtins, the standard library, ``sim`` crash points), whose time is
    charged to its callers."""
    path = filename.replace(os.sep, "/")
    if "/perfbench/" in path:
        return "bench"
    marker = "/src/repro/"
    if marker not in path:
        return None
    sub = path.split(marker, 1)[1].split("/", 1)[0]
    return SUBPACKAGE_LAYER.get(sub)


def profile_split(probe: ProfileProbe) -> Dict[str, float]:
    """Self seconds per layer.  Functions without a layer pass their self
    time to their callers, in proportion to what each caller accounted."""
    stats = pstats.Stats(probe.profile).stats
    split: Dict[str, float] = {}

    def charge(func: Tuple[str, int, str], seconds: float, depth: int) -> None:
        layer = _owner(func[0])
        if layer is not None or depth > 8:
            split[layer or "other"] = split.get(layer or "other", 0.0) + seconds
            return
        callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
        shares = {caller: entry[2] for caller, entry in callers.items()}
        total = sum(shares.values())
        if not total:
            split["other"] = split.get("other", 0.0) + seconds
            return
        for caller, share in shares.items():
            charge(caller, seconds * share / total, depth + 1)

    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        charge(func, tottime, 0)
    return split


def shares(split: Dict[str, float]) -> Dict[str, float]:
    layers = {k: v for k, v in split.items() if k not in ("bench", "other", "app")}
    total = sum(layers.values()) or 1.0
    return {k: v / total for k, v in layers.items()}


def top(split: Dict[str, float]) -> str:
    return max(shares(split).items(), key=lambda kv: kv[1])[0]


def separation_checks(rows: Dict[str, Dict[str, Any]]) -> List[Tuple[str, bool]]:
    """The layer separation each workload was chosen to show."""
    checks = []
    steady = rows.get("steady-pipeline")
    if steady:
        split = steady["span"]
        checks.append(("txn has the largest layer self time on steady-pipeline",
                       top(split) == "txn"))
    fan = rows.get("fan-wide")
    if fan:
        split = fan["span"]
        checks.append(("engine + orb exceed txn on fan-wide",
                       split["engine"] + split["orb"] > split["txn"]))
    for name, row in rows.items():
        replication = row["metrics"]["replication.ships"]["value"] + row["span"]["replication"]
        checks.append((f"replication non-zero only on burst-failover: {name}",
                       (replication > 0) == (name == "burst-failover")))
        replay = row["metrics"]["txn.replay_calls"]["value"]
        checks.append((f"txn.replay non-zero only on burst-failover and chaos-mix: {name}",
                       (replay > 0) == (name in ("burst-failover", "chaos-mix"))))
    return checks


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--out", default=None, help="also write Markdown here")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(run.SRC, "repro")):
        print(f"error: no repro package under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    from rounds import run_round
    from speed import SpeedMeter
    from tracing import Tracer
    from workloads import WORKLOADS

    names = args.workloads or list(WORKLOADS)
    reasons = run.workload_reasons()
    seed = args.seed * 1000
    workdir = os.path.join(run.OUT, f"tmp-report-{os.getpid()}")
    rows: Dict[str, Dict[str, Any]] = {}
    meter = SpeedMeter()
    for name in names:
        workload = WORKLOADS[name]()
        plain, _ = run_round(workload, seed, workdir + "-plain", meter)
        traced, tracer = run_round(workload, seed, workdir + "-traced", meter, Tracer)
        _profiled, probe = run_round(workload, seed, workdir + "-profiled", meter,
                                     ProfileProbe)
        rows[name] = {
            "span": tracer.layer_self(),
            "profile": profile_split(probe),
            "metrics": run.per_layer(traced, plain, tracer),
            "correct": not (plain.mismatches or traced.mismatches),
        }
        print(f"{name}: done", file=sys.stderr, flush=True)

    layers = ("txn", "engine", "orb", "services", "net", "resilience", "overload",
              "replication", "lang")
    lines = [
        "# Per-layer report",
        "",
        f"Python {platform.python_version()}, git {run.git_revision()}, "
        f"nproc {os.cpu_count()}, seed {args.seed} (round seed {seed}).",
        "",
        "Self-time shares of the traced drive (span) and of the profiled drive",
        "(cProfile, attributed by `src/repro/<subpackage>`, `core` counted as",
        "engine).  Shares exclude benchmark code and implementations.",
        "",
        "| workload | trace.overhead_ratio | top (span) | top (cProfile) | agree | "
        + " | ".join(layers) + " |",
        "|---" * (5 + len(layers)) + "|",
    ]
    for name, row in rows.items():
        span, prof = shares(row["span"]), shares(row["profile"])
        agree = top(row["span"]) == top(row["profile"])
        cells = [f"{span.get(l, 0.0):.0%} / {prof.get(l, 0.0):.0%}" for l in layers]
        lines.append(
            f"| {name} | {row['metrics']['trace.overhead_ratio']['value']:.2f} | "
            f"{top(row['span'])} | {top(row['profile'])} | "
            f"{'yes' if agree else '**DISAGREE**'} | " + " | ".join(cells) + " |"
        )
    lines += ["", "Cells are span share / cProfile share.", "", "## Layer separation", ""]
    checks = separation_checks(rows)
    for text, ok in checks:
        lines.append(f"- [{'x' if ok else ' '}] {text}")
    lines += ["", "## Workloads", ""]
    for name in rows:
        lines.append(f"- `{name}`: {reasons.get(name, '')}"
                     + ("" if rows[name]["correct"] else " **(output check failed)**"))
    lines += ["", "## Per-layer metrics of the traced round",
              "", "Times are reference seconds (see `speed.py`).", "",
              "| metric | " + " | ".join(rows) + " |",
              "|---" * (1 + len(rows)) + "|"]
    for key in next(iter(rows.values()))["metrics"]:
        values = []
        for row in rows.values():
            value = row["metrics"][key]["value"]
            values.append(f"{value:.4g}" if isinstance(value, float) else str(value))
        lines.append(f"| {key} | " + " | ".join(values) + " |")
    text = "\n".join(lines) + "\n"
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    ok = all(passed for _text, passed in checks) and all(r["correct"] for r in rows.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
