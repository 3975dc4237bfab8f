"""Tier-1 gate: every test passes except the two by-design reference-value checks.

Usage (from anywhere): python3 tools/tier1_gate.py

Runs the tier-1 command (``PYTHONPATH=src python -m pytest -q
--continue-on-collection-errors``) with a JUnit XML report, and with
``--durations=10`` so that each log lists the ten slowest tests.  The gate
holds only when every test case passed, except
``test_c05_total_failure_reference_value`` and
``test_c06_recount_mean_reference_value``, which must be present and
fail: they compare the model with figures it does not reproduce.  A
skip, an xfail, a collection error, either check passing, or fewer than
``MIN_PASSED`` passing tests (a test module gone missing) breaks the
gate.  Then it runs ``perfbench/run.py --self-test``.  Exit code 0 means
both held.  It first prints what it runs on: the Python and numpy
versions and the SIMD targets numpy dispatches to (the line the smoke
manifest ``tests/data/smoke-41.sha256`` records, since the output bytes
depend on them), the scipy and hypothesis versions (tests hold qmf to
scipy's exact bits), the number of CPUs it may use and
``OPENBLAS_NUM_THREADS`` as it sees it, since timings and BLAS's bits
vary with these.  Then it prints the file and line count of ``src/qmf``
and each file's line count, so each log records the size of the code it
passed, and two logs give a change's lines per module.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from importlib import metadata
from pathlib import Path

from same_bytes import environment  # beside this file

ROOT = Path(__file__).resolve().parent.parent
MUST_FAIL = {"test_c05_total_failure_reference_value", "test_c06_recount_mean_reference_value"}
# The tier-1 pass count at the last change; one that deletes tests lowers it.
MIN_PASSED = 1055


def outcomes(report: Path) -> dict[str, str]:
    """``classname::name`` of each test case: passed, failure, error or skipped."""
    found = {}
    for case in ET.parse(report).iter("testcase"):
        tags = {child.tag for child in case}
        outcome = next((t for t in ("failure", "error", "skipped") if t in tags), "passed")
        found[f"{case.get('classname')}::{case.get('name')}"] = outcome
    return found


def run_tests() -> list[str]:
    """Run tier-1; return what breaks the gate (empty when it holds)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
             "--durations=10", f"--junitxml={report}"], cwd=ROOT, env=env)
        if proc.returncode not in (0, 1) or not report.exists():
            return [f"pytest exited {proc.returncode}"]
        cases = outcomes(report)
    short = {name: name.rpartition("::")[2] for name in cases}
    broken = [f"{name}: {outcome}" for name, outcome in cases.items()
              if outcome != ("failure" if short[name] in MUST_FAIL else "passed")]
    broken += [f"{name}: missing" for name in sorted(MUST_FAIL - set(short.values()))]
    passed = sum(outcome == "passed" for outcome in cases.values())
    if passed < MIN_PASSED:
        broken.append(f"{passed} passed, under the floor of {MIN_PASSED}")
    print(f"tier-1: {passed} passed, {len(cases) - passed} not passed, "
          f"{len(broken)} against the gate")
    return broken


def source_size(root: Path) -> list[str]:
    """``src/qmf: F files, L lines`` of the tree at ``root``, then ``  name.py: l`` a file,
    counted as ``wc -l`` counts."""
    files = sorted((root / "src" / "qmf").glob("*.py"))
    lines = {f.name: f.read_bytes().count(b"\n") for f in files}
    return [f"src/qmf: {len(files)} files, {sum(lines.values())} lines",
            *(f"  {name}: {count}" for name, count in lines.items())]


def platform_lines() -> list[str]:
    """The Python and numpy versions with numpy's SIMD targets, the scipy and hypothesis
    versions (tests hold qmf to scipy's exact bits), the CPUs this process may use, and
    OPENBLAS_NUM_THREADS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count()
    tested_with = []
    for name in ("scipy", "hypothesis"):
        try:
            tested_with.append(f"{name} {metadata.version(name)}")
        except metadata.PackageNotFoundError:
            tested_with.append(f"{name} (not installed)")
    return [environment(), ", ".join(tested_with),
            f"cpus (affinity): {cpus}",
            f"OPENBLAS_NUM_THREADS: {os.environ.get('OPENBLAS_NUM_THREADS', '(unset)')}"]


def main() -> int:
    print("\n".join([*platform_lines(), *source_size(ROOT)]))
    broken = run_tests()
    for line in broken:
        print(f"gate: {line}")
    if broken:
        return 1
    return subprocess.run([sys.executable, "perfbench/run.py", "--self-test"], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
