"""Benchmark of qmf as its users run it: one CLI process per job.

Usage (from the repository root):

    python3 perfbench/run.py --workload bank-search --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # every workload, one summary
    python3 perfbench/run.py --workload statevector --seed 1 --smoke
    python3 perfbench/run.py --self-test                    # harness check at smoke sizes

Each workload is a fixed list of CLI jobs (see workloads.py) whose
inputs are generated from ``--seed`` into ``.perfbench_work/``.  One
client runs the jobs one at a time (a closed loop).  Every job is timed
from process start to exit, its peak RSS comes from ``os.wait4``, and
its outputs are checked after it exits.

``--trace 0`` measures the end-to-end metrics: the median set-up time of
bare ``import qmf.cli`` probes, then whole passes over the job list
until ``--seconds`` are used (at least one pass), reporting the median
pass time.  ``--trace 1`` runs one untraced pass and one pass under
launcher.py, which records spans around each layer's public functions,
and reports the per-layer metrics.  The last line of standard output is
the JSON result.  Run without the qmf sources beside it, the benchmark
exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = {False: 3, True: 1}
ENTRY = "import sys; from qmf.cli import main; sys.exit(main())"
COMMANDS = ("detect", "retrieve", "mf_snr", "mc_bench", "count_dist", "fail_bound",
            "cw_cost", "qsim_count", "qsim_search")
RSS_COMMANDS = ("count_dist", "detect", "mf_snr", "qsim_search")
LAYERS = ("cli", "io", "amplify", "pipeline", "dsp", "bank", "qsim")
# Per-layer metrics that count work and must repeat exactly for one seed.
EXACT_UNITS = ("count", "B", "ratio")


@dataclass
class JobResult:
    command: str
    wall_s: float
    rss_mb: float
    error: str | None


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


class Spawner:
    """Runs jobs through spawner.py; a context manager that stops it on exit."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawner.py")], env=_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()

    def run(self, cmd: list[str], cwd: Path) -> tuple[float, float, int, str]:
        """Run cmd to exit; return wall seconds, peak RSS in MB, exit code, stderr."""
        err_path = cwd / "job.stderr"
        self.proc.stdin.write(json.dumps({"cmd": cmd, "cwd": str(cwd),
                                          "stderr": str(err_path)}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        stderr = err_path.read_text().strip()
        err_path.unlink()
        return reply["wall_s"], reply["rss_kb"] / 1024.0, reply["code"], stderr


def run_pass(sp: Spawner, jobs, wd: Path, spans_dir: Path | None = None) -> list[JobResult]:
    """Run every job once, untraced or (with spans_dir) under the launcher."""
    results = []
    for i, job in enumerate(jobs):
        if spans_dir is None:
            cmd = [sys.executable, "-c", ENTRY, *job.argv]
        else:
            cmd = [sys.executable, str(HERE / "launcher.py"),
                   str(spans_dir / f"job{i}.npz"), str(i), "--", *job.argv]
        wall, rss, code, stderr = sp.run(cmd, wd)
        if code != 0:
            error = f"exit {code}: {stderr.splitlines()[-1] if stderr else ''}"
        else:
            try:
                error = job.check(wd)
            except Exception as exc:  # a malformed output fails the job, not the run
                error = f"check raised {type(exc).__name__}: {exc}"
        for name in job.outputs:
            (wd / name).unlink(missing_ok=True)
        results.append(JobResult(job.command, wall, rss, error))
        status = "ok" if error is None else f"FAILED ({error})"
        print(f"  {' '.join(job.argv[:1])} {wall:.3f} s {rss:.1f} MB {status}", flush=True)
    return results


def setup_time(sp: Spawner, probes: int) -> float:
    """Median wall time of a bare `import qmf.cli` process."""
    times = []
    for _ in range(probes):
        wall, _, code, stderr = sp.run([sys.executable, "-c", "import qmf.cli"], WORK)
        if code != 0:
            raise RuntimeError(f"import qmf.cli failed: {stderr}")
        times.append(wall)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# span aggregation

def aggregate_spans(span_files) -> dict[str, dict[str, float]]:
    """Per span name: inclusive s, calls, self_s, ledger and value sums."""
    import numpy as np

    acc: dict[str, dict[str, float]] = defaultdict(
        lambda: {"s": 0.0, "calls": 0, "self_s": 0.0, "ledger": 0, "value": 0})
    for path in span_files:
        with np.load(path) as z:
            dur = z["end"] - z["start"]
            parent = z["parent"]
            nested = parent >= 0
            child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
            own = dur - child
            for k, name in enumerate(z["names"].tolist()):
                sel = z["name_of"] == k
                a = acc[name]
                a["s"] += float(dur[sel].sum())
                a["calls"] += int(sel.sum())
                a["self_s"] += float(own[sel].sum())
                a["ledger"] += int(z["ledger"][sel].sum())
                a["value"] += int(z["value"][sel].sum())
    return acc


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(acc, untraced: list[JobResult], traced: list[JobResult]) -> dict:
    """The per-layer metrics, as name -> (value, unit)."""
    def get(name: str, key: str) -> float:
        return acc[name][key] if name in acc else 0

    m: dict[str, tuple[float, str]] = {}
    by_cmd = defaultdict(list)
    for r in untraced:
        by_cmd[r.command].append(r)
    for cmd in COMMANDS:
        runs = by_cmd.get(cmd, [])
        m[f"cli.{cmd}.s"] = (statistics.median(r.wall_s for r in runs) if runs else 0.0, "s")
    for cmd in RSS_COMMANDS:
        m[f"cli.{cmd}.rss_mb"] = (max((r.rss_mb for r in by_cmd.get(cmd, [])), default=0.0), "MB")

    def timed(layer: str, fn: str, calls: bool = True, s: bool = True) -> None:
        name = f"{layer}.{fn}"
        if s:
            m[f"{name}.s"] = (get(name, "s"), "s")
        if calls:
            m[f"{name}.calls"] = (get(name, "calls"), "count")

    timed("io", "write_csv")
    timed("io", "write_json", calls=False)
    timed("io", "read_time_series", calls=False)
    m["io.bytes_written"] = (get("io.write_csv", "value") + get("io.write_json", "value"), "B")
    for fn in ("counting_distribution", "max_fail_bound_argmax", "sample_b", "estimate_from_b"):
        timed("amplify", fn)
    timed("amplify", "p_match", s=False)
    m["amplify.dist_bytes"] = (get("amplify.counting_distribution", "value"), "B")
    for fn in ("scenario_from_config", "classical_search", "monte_carlo"):
        timed("pipeline", fn, calls=False)
    timed("pipeline", "oracle_eval", s=False)
    for fn in ("retrieve_until_success", "signal_detection", "template_retrieval"):
        timed("pipeline", fn)
    for stage, fn in (("setup", "classical_search"), ("detection", "signal_detection"),
                      ("retrieval", "template_retrieval")):
        m[f"pipeline.oracle_evals.{stage}"] = (get(f"pipeline.{fn}", "ledger"), "count")
    m["pipeline.detection_ratio"] = (_ratio(get("pipeline.signal_detection", "value"),
                                            get("pipeline.signal_detection", "calls")), "ratio")
    m["pipeline.retrieval_success_ratio"] = (
        _ratio(get("pipeline.template_retrieval", "value"),
               get("pipeline.template_retrieval", "calls")), "ratio")
    m["pipeline.match_fraction"] = (_ratio(get("pipeline.classical_search", "value"),
                                           get("pipeline.classical_search", "ledger")), "ratio")
    timed("dsp", "complex_template")
    timed("dsp", "forward_fft")
    for fn in ("normalize_template", "snr_series", "filter_series", "max_snr",
               "estimate_psd", "interpolate_psd"):
        timed("dsp", fn, calls=False)
    m["dsp.templates_per_s"] = (_ratio(get("dsp.complex_template", "calls"),
                                       get("dsp.complex_template", "s")), "1/s")
    timed("bank", "waveform")
    timed("bank", "index_to_params")
    for fn in ("init_state", "controlled_grover_powers", "string_oracle", "diffusion",
               "inverse_qft", "marginal_probs", "measure"):
        timed("qsim", fn, calls=False)
    timed("qsim", "grover_iteration")
    m["qsim.state_bytes"] = (get("qsim.init_state", "value"), "B")
    m["qsim.grover_amp_updates"] = (get("qsim.grover_iteration", "value"), "count")
    m["qsim.grover_amps_per_s"] = (_ratio(get("qsim.grover_iteration", "value"),
                                          get("qsim.grover_iteration", "s")), "1/s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(a["self_s"] for n, a in acc.items()
                                    if n.startswith(layer + ".")), "s")
    untraced_s = sum(r.wall_s for r in untraced)
    m["trace.overhead_frac"] = (_ratio(sum(r.wall_s for r in traced), untraced_s) - 1.0, "frac")
    return m


# ---------------------------------------------------------------------------
# one workload

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """Generate inputs, run, check and measure one workload; return the result."""
    import workloads

    shutil.rmtree(WORK, ignore_errors=True)
    inputs = WORK / "inputs"
    inputs.mkdir(parents=True)
    try:
        jobs = workloads.build(name, seed, inputs, smoke)
        digest = workloads.input_digest(inputs, jobs)
        print(f"{name} seed={seed} inputs sha256={digest} ({len(jobs)} jobs)", flush=True)
        with Spawner() as sp:
            if trace:
                untraced = run_pass(sp, jobs, inputs)
                spans_dir = WORK / "spans"
                spans_dir.mkdir()
                traced = run_pass(sp, jobs, inputs, spans_dir)
                results = untraced + traced
                acc = aggregate_spans(sorted(spans_dir.glob("job*.npz")))
                metrics = layer_metrics(acc, untraced, traced)
            else:
                setup_s = setup_time(sp, SETUP_PROBES[smoke])
                results, pass_walls = [], []
                start = time.perf_counter()
                while True:
                    res = run_pass(sp, jobs, inputs)
                    results += res
                    pass_walls.append(sum(r.wall_s for r in res))
                    if time.perf_counter() - start + pass_walls[-1] > seconds:
                        break
                metrics = {
                    "setup_s": (setup_s, "s"),
                    "wall_s": (statistics.median(pass_walls), "s"),
                    "peak_rss_mb": (max(r.rss_mb for r in results), "MB"),
                }
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    failed = sum(r.error is not None for r in results)
    if not trace:
        # ok_frac = 1 - failed_frac, so that the metric is never 0
        metrics["ok_frac"] = (1.0 - failed / len(results), "frac")
    return {
        "correct": failed == 0, "attempted": len(results), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "digest": digest,
    }


def _public(result: dict) -> dict:
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


# ---------------------------------------------------------------------------
# harness self-test

def self_test() -> int:
    """Smoke-size checks that the harness reports what BENCHMARK.json declares."""
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in workloads.WORKLOADS:
        runs = {}
        for trace, seed in ((False, 1), (True, 1), (True, 1), (True, 2)):
            res = run_workload(name, seed, 0.0, trace, smoke=True)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != declared[trace]:
                differ = sorted(set(got.items()) ^ set(declared[trace].items()))
                problems.append(f"{name} trace={int(trace)}: metrics or units differ "
                                f"from BENCHMARK.json: {differ}")
            if res["failed"]:
                problems.append(f"{name} trace={int(trace)}: {res['failed']} jobs failed")
            if not trace and res["metrics"]["ok_frac"]["value"] != 1.0:
                problems.append(f"{name}: ok_frac is not 1 (failed_frac is not 0)")
            runs.setdefault((trace, seed), []).append(res)
        first, again = runs[(True, 1)]
        for metric, v in first["metrics"].items():
            if v["unit"] in EXACT_UNITS and v["value"] != again["metrics"][metric]["value"]:
                problems.append(f"{name}: count {metric} differs between two runs of one seed")
        if first["digest"] != again["digest"]:
            problems.append(f"{name}: seed 1 gave two different inputs")
        if first["digest"] == runs[(True, 2)][0]["digest"]:
            problems.append(f"{name}: seeds 1 and 2 gave the same inputs")
    for p in problems:
        print("SELF-TEST FAIL:", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "qmf" / "cli.py").is_file():
        print(f"qmf sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for harness checks")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.smoke)
        print(json.dumps(_public(result)))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in workloads.WORKLOADS:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
        rows.append((name, res))
    for name, res in rows:
        line = "  ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items()
                         if args.trace or k != "ok_frac")
        failed_frac = res["failed"] / res["attempted"]
        print(f"{name:15s} {line}  failed_frac {failed_frac:.6g} frac")
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
