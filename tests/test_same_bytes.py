"""``tools/same_bytes.py``: a tree against itself is the same, and one changed byte is found."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_bytes.py"


def test_a_tree_gives_its_own_bytes():
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT), "--seeds", "41",
                           "--smoke", "--workloads", "statevector"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("same bytes: 30 files")


def test_a_changed_or_missing_file_is_found(tmp_path):
    spec = importlib.util.spec_from_file_location("same_bytes", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for side in ("a", "b"):
        (tmp_path / side / "41").mkdir(parents=True)
        (tmp_path / side / "41" / "o.csv").write_bytes(b"1,2\n")
    assert tool.first_difference(tmp_path / "a", tmp_path / "b") == (None, 1)
    (tmp_path / "b" / "41" / "o.csv").write_bytes(b"1,3\n")
    assert tool.first_difference(tmp_path / "a", tmp_path / "b") == ("41/o.csv", 1)
    (tmp_path / "a" / "41" / "o.csv").write_bytes(b"1,3\n")
    (tmp_path / "a" / "0.code").write_bytes(b"0\n")
    assert tool.first_difference(tmp_path / "a", tmp_path / "b") == ("0.code", 2)
