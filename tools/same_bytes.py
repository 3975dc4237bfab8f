"""Byte check of two source trees: the same outputs, stdout, stderr and exit codes.

Usage (from anywhere):

    python3 tools/same_bytes.py PARENT_TREE CHANGE_TREE [--seeds 41 77] [--smoke]
        [--workloads bank-search counting-model statevector]

For each tree, seed and workload, a subprocess builds the workload's
inputs with that tree's own ``perfbench/workloads.build`` into a fresh
directory, and each job then runs there as a CLI process with that
tree's ``src`` first on ``PYTHONPATH`` (the entry line of that tree's
``perfbench/run.py``).  The tool keeps every file the jobs leave, and
each job's stdout, stderr and exit code.  Every workload runs twice: once
on all the CPUs this process may use, and once with its processes pinned
to one CPU (the lowest of them) by ``os.sched_setaffinity``, so both the
forked and the in-process path of ``qmf.fanout`` are covered.  Only the
tool's own child processes are pinned.

Then it compares the two trees' results file by file, prints the first
file that differs, and exits 0 only when every file is identical (1 when
one differs, 2 when a tree cannot build its workloads).  It imports
nothing of either tree itself, writes only into a temporary directory
and no bytecode into the trees.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("bank-search", "counting-model", "statevector")
# Run in a subprocess with the tree's perfbench and src first on sys.path:
# writes the inputs and prints the CLI entry line and each job's argv.
BUILD = """
import json, sys
from pathlib import Path
tree, name, seed, workdir, smoke = sys.argv[1:]
sys.path[:0] = [tree + "/perfbench", tree + "/src"]
import run, workloads
jobs = workloads.build(name, int(seed), Path(workdir), smoke == "1")
print(json.dumps({"entry": run.ENTRY, "jobs": [job.argv for job in jobs]}))
"""


def _env(tree: Path) -> dict:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
            "PYTHONPATH": str(tree / "src") + (os.pathsep + path if path else "")}


def run_tree(tree: Path, out: Path, seeds: list[int], workloads: list[str], smoke: bool,
             cpus: set[int] | None) -> None:
    """Build and run every workload of ``tree`` into ``out``, on ``cpus`` (None: all)."""
    pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    env = _env(tree)
    for seed in seeds:
        for name in workloads:
            work = out / str(seed) / name
            (work / "jobs").mkdir(parents=True)
            built = subprocess.run(
                [sys.executable, "-c", BUILD, str(tree), name, str(seed), str(work),
                 "1" if smoke else "0"],
                env=env, capture_output=True, text=True, preexec_fn=pin)
            if built.returncode != 0:
                raise RuntimeError(f"{tree}: building {name} failed:\n{built.stderr}")
            spec = json.loads(built.stdout.splitlines()[-1])
            for i, argv in enumerate(spec["jobs"]):
                job = subprocess.run([sys.executable, "-c", spec["entry"], *argv], cwd=work,
                                     env=env, capture_output=True, preexec_fn=pin)
                (work / "jobs" / f"{i:02d}.stdout").write_bytes(job.stdout)
                (work / "jobs" / f"{i:02d}.stderr").write_bytes(job.stderr)
                (work / "jobs" / f"{i:02d}.code").write_text(f"{job.returncode}\n")


def first_difference(a: Path, b: Path) -> tuple[str | None, int]:
    """The first relative path whose bytes differ under ``a`` and ``b``, and the file count."""
    files = sorted({p.relative_to(root).as_posix() for root in (a, b)
                    for p in root.rglob("*") if p.is_file()})
    for rel in files:
        pa, pb = a / rel, b / rel
        if not (pa.is_file() and pb.is_file()) or pa.read_bytes() != pb.read_bytes():
            return rel, len(files)
    return None, len(files)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="the parent's source tree")
    ap.add_argument("change", type=Path, help="the change's source tree")
    ap.add_argument("--seeds", type=int, nargs="+", default=[41, 77])
    ap.add_argument("--smoke", action="store_true", help="the workloads' smoke sizes")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = ap.parse_args(argv)
    cpu = min(os.sched_getaffinity(0))
    with tempfile.TemporaryDirectory(prefix="same_bytes.") as tmp:
        results = Path(tmp)
        try:
            for mode, cpus in (("unpinned", None), (f"cpu{cpu}", {cpu})):
                for label, tree in (("parent", args.parent), ("change", args.change)):
                    run_tree(tree.resolve(), results / label / mode, args.seeds,
                             args.workloads, args.smoke, cpus)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 2
        differs, count = first_difference(results / "parent", results / "change")
    if differs is not None:
        print(f"differs: {differs}")
        return 1
    print(f"same bytes: {count} files (outputs, stdout, stderr and exit code of each job)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
