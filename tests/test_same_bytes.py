"""``tools/same_bytes.py``: this tree's smoke outputs are the committed manifest's bytes, and
the manifest diff names every file that moved."""

import importlib.util
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "data" / "smoke-41.sha256"
HEADER = ("tools/same_bytes.py run_tree: every workload at seed 41 and smoke sizes\n"
          "environment: {}")


def _tool():
    spec = importlib.util.spec_from_file_location("same_bytes", ROOT / "tools" / "same_bytes.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.mark.parametrize("pinned", [False, True], ids=["unpinned", "one-cpu"])
def test_smoke_outputs_are_the_manifests_bytes(tmp_path, pinned):
    """Every output, stdout, stderr and exit code, on all CPUs and on one.

    A change that moves bytes on purpose copies the fresh manifest that a
    failure names over ``tests/data/smoke-41.sha256``, and says why.
    """
    tool = _tool()
    cpus = {min(os.sched_getaffinity(0))} if pinned else None
    tool.run_tree(ROOT, tmp_path / "out", [41], list(tool.WORKLOADS), True, cpus)
    found = tool.manifest(tmp_path / "out")
    here, fresh = tool.environment(), tmp_path / MANIFEST.name
    fresh.write_text(tool.manifest_text(found, HEADER.format(here)))
    header, expected = tool.read_manifest(MANIFEST.read_text())
    moved = tool.moved(expected, found)
    assert not moved, "\n".join([
        f"{len(moved)} of {len(expected)} files moved from {MANIFEST.relative_to(ROOT)}:",
        *moved, f"the manifest's {header.splitlines()[-1]}",
        f"this run's environment: {here}", f"this tree's manifest: {fresh}"])


def test_a_changed_or_missing_file_is_found(tmp_path):
    tool = _tool()
    for side in ("a", "b"):
        (tmp_path / side / "41").mkdir(parents=True)
        (tmp_path / side / "41" / "o.csv").write_bytes(b"1,2\n")
        (tmp_path / side / "41" / "p.csv").write_bytes(b"3\n")
    same = tool.manifest(tmp_path / "a")
    assert tool.moved(same, tool.manifest(tmp_path / "b")) == []
    assert tool.read_manifest(tool.manifest_text(same, "h\nv")) == ("h\nv", same)
    (tmp_path / "b" / "41" / "o.csv").write_bytes(b"1,3\n")
    (tmp_path / "b" / "41" / "p.csv").write_bytes(b"4\n")
    (tmp_path / "a" / "0.code").write_bytes(b"0\n")
    (tmp_path / "b" / "1.code").write_bytes(b"0\n")
    assert tool.moved(tool.manifest(tmp_path / "a"), tool.manifest(tmp_path / "b")) == [
        "missing: 0.code", "extra: 1.code", "changed: 41/o.csv", "changed: 41/p.csv"]


def test_two_trees_compared_by_their_manifests(tmp_path, monkeypatch, capsys):
    """``main``'s exit codes and lines, with each tree's run replaced by one file a mode."""
    tool = _tool()

    def run_tree(tree, out, seeds, workloads, smoke, cpus):
        if tree.name == "broken":
            raise RuntimeError(f"{tree}: building statevector failed")
        (out / "41").mkdir(parents=True)
        (out / "41" / "o.csv").write_text(tree.name)

    monkeypatch.setattr(tool, "run_tree", run_tree)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert tool.main([a, a]) == 0
    assert capsys.readouterr().out.startswith("same bytes: 2 files")
    assert tool.main([a, b]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"changed: cpu{min(os.sched_getaffinity(0))}/41/o.csv", "changed: unpinned/41/o.csv"]
    assert tool.main([a, str(tmp_path / "broken")]) == 2
    assert "building statevector failed" in capsys.readouterr().err
    with pytest.raises(SystemExit):  # seeds, sizes and workloads are constants
        tool.main([a, b, "--seeds", "41"])
