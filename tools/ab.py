"""A/B benchmark of two source trees: paired runs of each tree's own perfbench, with verdicts.

Usage (from anywhere):

    python3 tools/ab.py PARENT_TREE CHANGE_TREE --out BENCH_<n>.json

It runs each tree's own ``perfbench/run.py --workload all`` in a
subprocess, with that tree's ``src`` first on ``PYTHONPATH`` and
``PYTHONDONTWRITEBYTECODE=1`` (as ``same_bytes.py`` does), at run.py's
default seed and the ``run_seconds`` of this repository's
``BENCHMARK.json``.  It runs ``PAIRS`` pairs and alternates which tree
goes first; then it runs each tree once with ``--trace 1``.  About 25
minutes on 2 CPUs.  Two trees whose resolved paths differ in length are
refused before any run: the ``mf-snr`` job's peak RSS moves with the
checkout path's length by about the RSS bound.

The file keeps every run's JSON.  For each workload and end-to-end
metric it gives both medians, both IQRs (the distance between the
inclusive quartiles), the change's wins (pairs it reads better in; a tie
counts for neither) and one verdict, by the metric's ``better`` and
``bound`` in ``BENCHMARK.json``, checked in this order:

- ``better``: at least ``WINS`` wins, a median gap larger than the
  parent's IQR, and no more failed jobs than at the parent;
- ``unresolved``: the parent's IQR is larger than the bound, unless every
  change run reads better than every parent run;
- ``worse``: the change's median is worse by more than the bound;
- ``within_bound``: anything else.

Each traced metric whose unit is one of perfbench's ``run.EXACT_UNITS``
repeats exactly for a seed, and is marked ``equal`` or ``differs``.  The
file also records the platform (the gate's lines) and the UTC date, and
each tree's ``src/qmf`` line count and SHA-256 (of the ``sha256sum *.py``
listing in ``src/qmf``).

Exit code 0; 1 when a verdict is ``worse``; 2 when the trees are refused
or a run fails or prints no JSON (then no file is written).
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

from same_bytes import _env  # beside this file
from tier1_gate import ROOT, platform_lines, source_size

sys.path.append(str(ROOT / "perfbench"))
from run import EXACT_UNITS  # noqa: E402  (perfbench/run.py, not a package)

PAIRS = 10
# Wins out of PAIRS that a gain needs: nine tenths.
WINS = 9


def quartile_gap(values: list[float]) -> float:
    """The IQR: the distance between the inclusive quartiles."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(better: str, bound: float, parent: list[float], change: list[float],
            parent_failed: int, change_failed: int) -> dict:
    """Medians, IQRs, the change's wins and the verdict of one metric over paired runs."""
    gain = (lambda p, c: p - c) if better == "lower" else (lambda p, c: c - p)
    medians = statistics.median(parent), statistics.median(change)
    iqr = quartile_gap(parent)
    wins = sum(gain(p, c) > 0 for p, c in zip(parent, change))
    gap = gain(*medians)
    if wins >= WINS and gap > iqr and change_failed <= parent_failed:
        found = "better"
    elif iqr > bound and not all(gain(p, c) > 0 for p in parent for c in change):
        found = "unresolved"
    elif -gap > bound:
        found = "worse"
    else:
        found = "within_bound"
    return {"parent_median": medians[0], "change_median": medians[1], "parent_iqr": iqr,
            "change_iqr": quartile_gap(change), "change_wins": wins, "verdict": found}


def bench(tree: Path, args: list[str]) -> dict:
    """The JSON result that ``tree``'s perfbench prints last; RuntimeError if the run fails."""
    proc = subprocess.run([sys.executable, str(tree / "perfbench" / "run.py"), *args],
                          cwd=tree, env=_env(tree), capture_output=True, text=True)
    what = f"{tree}: run.py {' '.join(args)}"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        raise RuntimeError(f"{what} exited {proc.returncode}: {tail[0]}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        raise RuntimeError(f"{what} printed no JSON result")
    return result


def source(tree: Path) -> dict:
    """The gate's line count of ``tree``'s ``src/qmf`` and the SHA-256 of its listing."""
    files = sorted((tree / "src" / "qmf").glob("*.py"))
    listing = "".join(f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {f.name}\n" for f in files)
    return {"size": source_size(tree), "sha256": hashlib.sha256(listing.encode()).hexdigest()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="the parent's source tree")
    ap.add_argument("change", type=Path, help="the change's source tree")
    ap.add_argument("--out", type=Path, required=True, help="the file to write, BENCH_<n>.json")
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(trees["parent"])) != len(str(trees["change"])):
        print(f"refused: the trees' paths differ in length ({trees['parent']}, "
              f"{trees['change']}), and peak RSS moves with it", file=sys.stderr)
        return 2
    if not args.out.resolve().parent.is_dir():
        print(f"refused: --out {args.out}: no such directory", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    untraced = ["--workload", "all", "--seconds", str(spec["run_seconds"])]
    pairs = []
    try:
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = bench(trees[side], untraced)
                print(f"pair {i + 1}/{PAIRS} {side}: failed {pair[side]['failed']}", flush=True)
            pairs.append(pair)
        traced = {side: bench(trees[side], ["--workload", "all", "--trace", "1"])
                  for side in ("parent", "change")}
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2

    failed = {side: sum(pair[side]["failed"] for pair in pairs) for side in trees}
    verdicts = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = f"{workload}.{metric['name']}"
            values = {side: [pair[side]["metrics"][key]["value"] for pair in pairs]
                      for side in trees}
            verdicts[key] = {"better": metric["better"], "bound": metric["bound"],
                             **verdict(metric["better"], metric["bound"], values["parent"],
                                       values["change"], failed["parent"], failed["change"])}
    exact = {key: "equal" if value == traced["change"]["metrics"].get(key) else "differs"
             for key, value in traced["parent"]["metrics"].items()
             if value["unit"] in EXACT_UNITS}
    record = {
        "command": ["perfbench/run.py", *untraced],
        "environment": platform_lines(),
        "date_utc": datetime.datetime.now(datetime.timezone.utc).date().isoformat(),
        "trees": {side: source(tree) for side, tree in trees.items()},
        "failed_jobs": failed, "verdicts": verdicts, "exact": exact,
        "pairs": pairs, "traced": traced,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for key, v in verdicts.items():
        print(f"{key}: {v['verdict']} (parent {v['parent_median']:.4g} IQR "
              f"{v['parent_iqr']:.3g}, change {v['change_median']:.4g} IQR {v['change_iqr']:.3g}, "
              f"{v['change_wins']}/{PAIRS} wins, bound {v['bound']})")
    moved = [key for key, mark in exact.items() if mark == "differs"]
    print(f"traced exact metrics: {len(exact) - len(moved)} equal, {len(moved)} differ"
          + "".join(f"\n  differs: {key}" for key in moved))
    return 1 if any(v["verdict"] == "worse" for v in verdicts.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
