"""Byte check of two source trees: the same outputs, stdout, stderr and exit codes.

Usage (from anywhere):

    python3 tools/same_bytes.py PARENT_TREE CHANGE_TREE

For each tree, seed (41 and 77) and workload (all three, at full
size), a subprocess builds the workload's inputs with that tree's own
``perfbench/workloads.build`` into a fresh directory, and each job
then runs there as a CLI process with that tree's ``src`` first on
``PYTHONPATH`` (the entry line of that tree's ``perfbench/run.py``).
The tool keeps every file the jobs leave, and each job's stdout,
stderr and exit code.  Every workload runs twice: once on all the CPUs
this process may use, and once with its processes pinned to one CPU
(the lowest of them) by ``os.sched_setaffinity``, so both the forked
and the in-process path of ``qmf.fanout`` are covered.  Only the tool's
own child processes are pinned.

Then it compares the two trees' manifests (the SHA-256 of each file,
keyed by its relative path), prints every file that changed, is missing
from the change or is extra in it, and exits 0 only when every file is
identical (1 when one moved, 2 when a tree cannot build its workloads).
It imports nothing of either tree itself, writes only into a temporary
directory and no bytecode into the trees.

The same manifest, of one tree at seed 41 and smoke sizes, is committed
as ``tests/data/smoke-41.sha256``; ``tests/test_same_bytes.py`` checks
this tree against it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("bank-search", "counting-model", "statevector")
SEEDS = (41, 77)
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


def manifest(root: Path) -> dict[str, str]:
    """The SHA-256 of each file under ``root``, keyed by its relative POSIX path."""
    files = {p.relative_to(root).as_posix(): p for p in root.rglob("*") if p.is_file()}
    return {rel: hashlib.sha256(files[rel].read_bytes()).hexdigest() for rel in sorted(files)}


def moved(expected: dict[str, str], found: dict[str, str]) -> list[str]:
    """``changed: path``, ``missing: path`` or ``extra: path`` for every file that moved."""
    lines = []
    for rel in sorted(expected.keys() | found.keys()):
        if expected.get(rel) != found.get(rel):
            kind = "missing" if rel not in found else "extra" if rel not in expected else "changed"
            lines.append(f"{kind}: {rel}")
    return lines


def environment() -> str:
    """The Python and numpy versions, and the SIMD targets numpy dispatches to."""
    import numpy as np  # only here: the byte check itself needs no numpy
    from numpy._core._multiarray_umath import (
        __cpu_baseline__, __cpu_dispatch__, __cpu_features__)
    found = [t for t in __cpu_dispatch__ if __cpu_features__[t]]
    return (f"python {platform.python_version()}, numpy {np.__version__} (SIMD baseline "
            f"{' '.join(__cpu_baseline__)}; dispatched {' '.join(found) or 'none'})")


def manifest_text(digests: dict[str, str], header: str) -> str:
    """A manifest file: ``# header`` lines, then ``digest  path`` a line, as sha256sum writes."""
    comments = "".join(f"# {line}\n" for line in header.splitlines())
    return comments + "".join(f"{digest}  {rel}\n" for rel, digest in digests.items())


def read_manifest(text: str) -> tuple[str, dict[str, str]]:
    """The header and the digests of a manifest that ``manifest_text`` wrote."""
    lines = text.splitlines()
    header = "\n".join(line[2:] for line in lines if line.startswith("#"))
    pairs = (line.split("  ", 1) for line in lines if line and not line.startswith("#"))
    return header, {rel: digest for digest, rel in pairs}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="the parent's source tree")
    ap.add_argument("change", type=Path, help="the change's source tree")
    args = ap.parse_args(argv)
    cpu = min(os.sched_getaffinity(0))
    with tempfile.TemporaryDirectory(prefix="same_bytes.") as tmp:
        results = Path(tmp)
        try:
            for mode, cpus in (("unpinned", None), (f"cpu{cpu}", {cpu})):
                for label, tree in (("parent", args.parent), ("change", args.change)):
                    run_tree(tree.resolve(), results / label / mode, list(SEEDS),
                             list(WORKLOADS), False, cpus)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 2
        parent, change = manifest(results / "parent"), manifest(results / "change")
    for line in moved(parent, change):
        print(line)
    if parent != change:
        return 1
    print(f"same bytes: {len(change)} files (outputs, stdout, stderr and exit code of each job)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
