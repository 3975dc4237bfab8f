"""``tools/ab.py``: paired runs of two trees' perfbench, their medians, IQRs and verdicts.

Each stub tree's ``perfbench/run.py`` logs its call and prints the JSON
that the test scripted for it, so no timing enters tier-1.
"""

import importlib
import json
import os
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bank-search", "counting-model", "statevector")
UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}
STUB = """
import json, sys
from pathlib import Path
tree = Path(__file__).resolve().parents[1]
log = tree.parent / "calls.log"
with log.open("a") as f:
    f.write(tree.name + " " + " ".join(sys.argv[1:]) + "\\n")
calls = [line for line in log.read_text().splitlines() if line.startswith(tree.name + " ")]
run = json.loads((tree / "script.json").read_text())[len(calls) - 1]
print("  detect 0.700 s 52.6 MB ok")
print(run["stdout"])
sys.exit(run["code"])
"""
# Parent and change values a pair of the metrics not left constant, by the verdict they get.
RISING = [3.0 + 0.01 * i for i in range(10)]
SCRIPTED = {
    "bank-search.wall_s": (RISING, [v - 0.5 for v in RISING]),  # better
    "counting-model.wall_s": ([3.0 + 0.1 * i for i in range(10)],  # unresolved
                              [3.0 + 0.1 * ((i + 5) % 10) for i in range(10)]),
    # every change run is lower, but the gap is under the parent's IQR of 1
    "counting-model.setup_s": ([0.1] * 5 + [1.1] * 5, [0.09] * 10),  # within_bound
    "statevector.peak_rss_mb": ([54.0] * 10, [54.5] * 10),  # worse
}
TRACED = {
    "bank-search.io.bytes_written": ({"value": 1000, "unit": "B"},) * 2,
    "statevector.qsim.grover_iteration.calls": ({"value": 8, "unit": "count"},
                                                {"value": 9, "unit": "count"}),
    "bank-search.dsp.forward_fft.s": ({"value": 0.1, "unit": "s"}, {"value": 0.2, "unit": "s"}),
}


@pytest.fixture
def ab(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("ab")


def _result(metrics: dict) -> dict:
    return {"correct": True, "attempted": 45, "failed": 0, "metrics": metrics}


def _stub(tree: Path, runs: list[dict]) -> None:
    """A tree whose run.py prints ``runs[k]['stdout']`` and exits ``runs[k]['code']`` on its
    k-th call."""
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(STUB)
    (tree / "script.json").write_text(json.dumps(runs))
    (tree / "src" / "qmf").mkdir(parents=True)
    (tree / "src" / "qmf" / "a.py").write_text(f"TREE = {tree.name!r}\n")


def _scripted(tmp_path: Path, scripted: dict) -> tuple[Path, Path]:
    """Stub trees of equal path length: ten untraced runs each, then one traced run."""
    trees = tmp_path / "pa", tmp_path / "ch"
    for side, tree in enumerate(trees):
        runs = []
        for i in range(10):
            metrics = {f"{w}.{m}": {"value": 1.0 if m == "ok_frac" else 2.0, "unit": u}
                       for w in WORKLOADS for m, u in UNITS.items()}
            for key, values in scripted.items():
                metrics[key]["value"] = values[side][i]
            runs.append({"stdout": json.dumps(_result(metrics)), "code": 0})
        traced = {key: values[side] for key, values in TRACED.items()}
        runs.append({"stdout": json.dumps(_result(traced)), "code": 0})
        _stub(tree, runs)
    return trees


@pytest.mark.parametrize("worse", [True, False], ids=["worse", "no-worse"])
def test_pairs_alternate_and_every_verdict_is_kept(ab, tmp_path, capsys, worse):
    scripted = SCRIPTED if worse else {k: v for k, v in SCRIPTED.items() if "rss" not in k}
    parent, change = _scripted(tmp_path, scripted)
    out = tmp_path / "BENCH_1.json"
    assert ab.main([str(parent), str(change), "--out", str(out)]) == (1 if worse else 0)

    untraced = "--workload all --seconds 20"
    calls = (tmp_path / "calls.log").read_text().splitlines()
    assert calls == [
        *(f"{first} {untraced}" for i in range(10) for first in
          (("pa", "ch") if i % 2 == 0 else ("ch", "pa"))),
        "pa --workload all --trace 1", "ch --workload all --trace 1"]

    record = json.loads(out.read_text())
    assert list(record) == ["command", "environment", "date_utc", "trees", "failed_jobs",
                            "verdicts", "exact", "pairs", "traced"]
    assert record["command"] == ["perfbench/run.py", *untraced.split()]
    assert [pair["first"] for pair in record["pairs"]] == ["parent", "change"] * 5
    assert record["pairs"][3]["change"]["metrics"]["bank-search.wall_s"]["value"] == (
        SCRIPTED["bank-search.wall_s"][1][3])
    assert record["trees"]["parent"]["size"] == ["src/qmf: 1 files, 1 lines", "  a.py: 1"]
    assert record["trees"]["parent"]["sha256"] != record["trees"]["change"]["sha256"]
    assert record["failed_jobs"] == {"parent": 0, "change": 0}

    verdicts = record["verdicts"]
    assert list(verdicts) == [f"{w}.{m}" for w in WORKLOADS for m in UNITS]
    wall = verdicts["bank-search.wall_s"]
    assert wall["parent_median"] == pytest.approx(3.045)
    assert wall["change_median"] == pytest.approx(2.545)
    # inclusive quartiles of 3.00 ... 3.09: 3.0225 and 3.0675
    assert wall["parent_iqr"] == pytest.approx(0.045)
    assert wall["change_iqr"] == pytest.approx(0.045)
    assert wall["change_wins"] == 10
    assert (wall["better"], wall["bound"]) == ("lower", 0.25)
    assert verdicts["counting-model.wall_s"]["parent_iqr"] == pytest.approx(0.45)
    expected = {"bank-search.wall_s": "better", "counting-model.wall_s": "unresolved",
                "statevector.peak_rss_mb": "worse" if worse else "within_bound"}
    assert {k: v["verdict"] for k, v in verdicts.items()} == {
        k: expected.get(k, "within_bound") for k in verdicts}
    assert verdicts["counting-model.setup_s"]["change_wins"] == 10
    assert verdicts["statevector.ok_frac"]["change_wins"] == 0  # ties win nothing
    assert record["exact"] == {"bank-search.io.bytes_written": "equal",
                               "statevector.qsim.grover_iteration.calls": "differs"}
    assert record["traced"]["change"]["metrics"] == {k: v[1] for k, v in TRACED.items()}
    assert "differs: statevector.qsim.grover_iteration.calls" in capsys.readouterr().out


@pytest.mark.parametrize("better, parent, change, failed, expected", [
    ("lower", RISING, [v - 0.5 for v in RISING], (0, 0), "better"),
    ("lower", RISING, [v - 0.5 for v in RISING], (0, 1), "within_bound"),  # one more failure
    ("lower", RISING, [v - 0.5 for v in RISING[:9]] + [9.0], (0, 0), "better"),
    ("lower", RISING, [v - 0.5 for v in RISING[:8]] + [9.0, 9.0], (0, 0), "within_bound"),
    ("lower", RISING, [v - 0.5 for v in RISING[:8]] + RISING[8:], (0, 0), "within_bound"),
    ("lower", RISING, [v + 0.3 for v in RISING], (0, 0), "worse"),
    ("lower", [1.0 + 0.1 * i for i in range(10)], [0.0] * 10, (0, 0), "better"),
    ("lower", [1.0 + 0.1 * i for i in range(10)], [1.95] * 10, (0, 0), "unresolved"),
    # a gap of 1, equal to the parent's IQR, though every change run is lower
    ("lower", [1.0] * 5 + [2.0] * 5, [0.5] * 10, (0, 0), "within_bound"),
    ("lower", [1.0] * 5 + [2.0] * 5, [1.0] * 10, (0, 0), "unresolved"),  # five ties
    ("higher", [1.0] * 10, [0.9] * 10, (0, 1), "worse"),
    ("higher", [1.0] * 10, [0.97] * 10, (0, 1), "within_bound"),
    ("higher", [0.9] * 10, [1.0] * 10, (1, 0), "better"),
], ids=["better", "more-failures", "nine-wins", "eight-wins", "two-ties", "worse",
        "beats-a-wide-parent", "wide-parent", "gap-equals-iqr", "ties-a-wide-parent",
        "higher-worse", "higher-within", "higher-better"])
def test_verdict_rule(ab, better, parent, change, failed, expected):
    bound = 0.05 if better == "higher" else 0.25
    found = ab.verdict(better, bound, parent, change, *failed)
    assert found["verdict"] == expected
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    assert found["parent_iqr"] == q3 - q1


def test_trees_at_paths_of_unequal_length_are_refused_before_any_run(ab, tmp_path, capsys):
    parent, _ = _scripted(tmp_path, {})
    change = tmp_path / "chg"
    os.rename(tmp_path / "ch", change)
    out = tmp_path / "BENCH_1.json"
    assert ab.main([str(parent), str(change), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("refused: the trees' paths differ in length") and err.count("\n") == 1
    assert not (tmp_path / "calls.log").exists() and not out.exists()


@pytest.mark.parametrize("stdout, code, message", [
    ("{}", 3, "exited 3"), ("not json", 0, "printed no JSON result"),
    ("", 0, "printed no JSON result"), ('["metrics"]', 0, "printed no JSON result")],
    ids=["exit-3", "no-json", "no-output", "no-result"])
def test_a_failed_run_exits_2_without_a_file(ab, tmp_path, capsys, stdout, code, message):
    parent, change = _scripted(tmp_path, {})
    runs = json.loads((change / "script.json").read_text())
    runs[0] = {"stdout": stdout, "code": code}
    (change / "script.json").write_text(json.dumps(runs))
    out = tmp_path / "BENCH_1.json"
    assert ab.main([str(parent), str(change), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert (tmp_path / "calls.log").read_text().splitlines() == [
        "pa --workload all --seconds 20", "ch --workload all --seconds 20"]
    assert not out.exists()


def test_the_only_option_is_the_output_file(ab, capsys):
    with pytest.raises(SystemExit):
        ab.main(["--help"])
    usage = capsys.readouterr().out
    assert set(re.findall(r"--\w+", usage)) == {"--help", "--out"}
    assert "parent" in usage and "change" in usage
