"""Seeded job lists for the qmf CLI benchmark, with their output checks.

Each workload is a fixed list of ``qmf`` CLI jobs.  ``build(name, seed,
workdir, smoke)`` writes every input file the jobs need into ``workdir``
and returns the jobs.  The seed chooses injection indices, noise seeds,
data bits and Monte Carlo seeds; it never changes the amount of work.
Every job carries a check that reads its output files and returns an
error message, or None when the output is correct.  Checks import qmf
in the benchmark process and run outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from qmf import amplify, bank, dsp, pipeline, qsim

# Exact mean oracle cost of the N = 2**17, r = 9, p = 11 scenario for each
# strategy, from the closed form over the counting distribution.
MC_EXACT_MEAN = {"reuse_k": 2180.78, "recount_each_try": 2312.66}
# The default cap of 10 000 rounds truncates reuse-k trials that decode an
# iteration count with per-attempt success near 7e-5, so most seeds of a
# 20k-trial run would report failed trials; the closed form has no cap.
MC_SCENARIO = {"n": 1 << 17, "r": 9, "p": 11, "max_attempts": 1_000_000}
MC_MAX_STDERR = 5.0

BANK_LATTICE = {"f0_min": 30.0, "f0_max": 180.0, "f1_min": 5.0, "f1_max": 50.0,
                "fs_hz": 512.0, "dur_s": 1.0}
# With unit-variance white noise a unit-amplitude chirp peaks near rho = 15.5,
# so a threshold of 10 always keeps the injected template in the match set.
INJECT_AMPLITUDE = 1.0
INJECT_SIGMA = 1.0
INJECT_RHO_THR = 10.0
MF_SNR_MIN_PEAK = 8.0
# The SNR peak of a 1 s chirp sweeping 5 Hz is 0.27 s wide at half maximum,
# so noise can move it by tens of samples; noise alone peaks near rho = 5.
MF_SNR_MAX_SHIFT_S = 0.25

FAIL_BOUND_MAX = 0.455
CW_SPEEDUP = 1e8

# Work per job.  The full sizes are the benchmark; the smoke sizes only
# exercise the harness.  Counting jobs are (data bits, ignored bits q,
# counting qubits p); q and the count of ones on the compared bits are
# fixed because the oracle's gate count depends on them.
SIZES = {
    False: {
        "bank_f0": 128, "bank_f1": 64, "bank_m": 1024, "mf_m": 1 << 20,
        "mc_trials": 20_000, "dist_n": 1 << 38, "dist_r": 1000,
        "r_max": 10, "big_n": 1 << 44, "big_r": 1000,
        "count_n": 8, "count_qp": ((1, 8), (2, 8)),
        "search_n": 20, "search_q": 10, "search_k": 4,
    },
    True: {
        "bank_f0": 16, "bank_f1": 8, "bank_m": 1024, "mf_m": 1 << 14,
        "mc_trials": 500, "dist_n": 1 << 20, "dist_r": 10,
        "r_max": 2, "big_n": 1 << 20, "big_r": 10,
        "count_n": 4, "count_qp": ((1, 3), (2, 3)),
        "search_n": 8, "search_q": 2, "search_k": 2,
    },
}


@dataclass
class Job:
    """One CLI call: its argv after ``qmf`` and a check of its outputs."""

    argv: list[str]
    check: Callable[[Path], str | None]
    outputs: list[str] = field(default_factory=list)

    @property
    def command(self) -> str:
        return self.argv[0].replace("-", "_")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _read_column(path: Path, col: int) -> np.ndarray:
    """One numeric column of a qmf CSV (provenance line and header skipped)."""
    return np.loadtxt(path, delimiter=",", skiprows=2, usecols=col, ndmin=1)


def input_digest(workdir: Path, jobs: list[Job]) -> str:
    """SHA-256 over the jobs' argv and every input file, in name order."""
    h = hashlib.sha256(json.dumps([job.argv for job in jobs]).encode())
    for p in sorted(workdir.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# bank-search

def _bank_config(size: dict, m: int) -> dict:
    return {**BANK_LATTICE, "n_f0": size["bank_f0"], "n_f1": size["bank_f1"],
            "m_samples": m}


def _injection_data(cfg: dict) -> tuple[bank.BankSpec, dsp.FrequencySeries, dsp.Psd]:
    """The data and PSD an injection scenario defines (see scenario_from_config)."""
    spec = bank.BankSpec.from_config(cfg["bank"])
    params = bank.index_to_params(spec, cfg["inject_index"])
    strain = cfg["amplitude"] * bank.waveform(params, spec.fs, spec.m_samples).samples
    noise = np.random.default_rng(cfg["noise_seed"]).normal(
        scale=cfg["noise_sigma"], size=strain.size)
    data = dsp.forward_fft(dsp.TimeSeries(strain + noise, dt=1.0 / spec.fs))
    psd = dsp.white_psd(spec.m_samples, 1.0 / spec.fs, sigma=max(cfg["noise_sigma"], 1.0))
    return spec, data, psd


def _passes_oracle(cfg: dict, index: int) -> bool:
    spec, data, psd = _injection_data(cfg)
    return pipeline.oracle_eval(spec, data, psd, index, cfg["rho_thr"],
                                pipeline.OracleCounter()) == 1


def _check_bank_detect(cfg: dict, out: str) -> Callable[[Path], str | None]:
    def check(wd: Path) -> str | None:
        res = _read_json(wd / out)
        n = bank.bank_size(bank.BankSpec.from_config(cfg["bank"]))
        if res["setup_evals"] != n:
            return f"setup_evals={res['setup_evals']}, bank size {n}"
        if res["oracle_evals"] != (1 << amplify.choose_p(n)) - 1:
            return f"detection charged {res['oracle_evals']} oracle evaluations"
        if not _passes_oracle(cfg, cfg["inject_index"]):
            return "injected template is not in the match set"
        return None
    return check


def _check_bank_retrieve(cfg: dict, out: str) -> Callable[[Path], str | None]:
    def check(wd: Path) -> str | None:
        res = _read_json(wd / out)
        if not res["succeeded"]:
            return "retrieval did not succeed"
        if not _passes_oracle(cfg, res["returned_index"]):
            return f"returned index {res['returned_index']} fails the oracle"
        return None
    return check


def _check_mf_snr(offset: int, max_shift: int, summary: str) -> Callable[[Path], str | None]:
    def check(wd: Path) -> str | None:
        res = _read_json(wd / summary)
        if abs(res["j_max"] - offset) > max_shift or not res["rho_max"] > MF_SNR_MIN_PEAK:
            return f"peak rho={res['rho_max']:.3g} at j={res['j_max']}, injected at {offset}"
        return None
    return check


def _bank_search(rng: np.random.Generator, wd: Path, size: dict) -> list[Job]:
    jobs = []
    bank_cfg = _bank_config(size, size["bank_m"])
    n = size["bank_f0"] * size["bank_f1"]
    for i in range(2):
        cfg = {"bank": bank_cfg, "inject_index": int(rng.integers(n)),
               "amplitude": INJECT_AMPLITUDE, "noise_sigma": INJECT_SIGMA,
               "noise_seed": int(rng.integers(1 << 31)), "rho_thr": INJECT_RHO_THR,
               "seed": int(rng.integers(1 << 31))}
        _write_json(wd / f"inject{i}.json", cfg)
        for cmd, make_check in (("detect", _check_bank_detect),
                                ("retrieve", _check_bank_retrieve)):
            out = f"{cmd}{i}.json"
            jobs.append(Job([cmd, "--config", f"inject{i}.json", "--out", out],
                            make_check(cfg, out), [out]))

    m = size["mf_m"]
    mf_cfg = _bank_config(size, m)
    _write_json(wd / "mf_bank.json", mf_cfg)
    spec = bank.BankSpec.from_config(mf_cfg)
    index = int(rng.integers(n))
    params = bank.index_to_params(spec, index)
    n_sig = int(round(params.dur * spec.fs))
    chirp = bank.waveform(params, spec.fs, n_sig).samples
    offset = int(rng.integers(m - n_sig))
    strain = rng.normal(scale=INJECT_SIGMA, size=m)
    strain[offset:offset + n_sig] += INJECT_AMPLITUDE * chirp
    strain.astype("<f8").tofile(wd / "strain.f64")
    _write_json(wd / "strain.f64.json", {"fs_hz": spec.fs, "t0_s": 0.0})
    jobs.append(Job(["mf-snr", "--data", "strain.f64", "--bank-config", "mf_bank.json",
                     "--index", str(index), "--out", "snr.csv"],
                    _check_mf_snr(offset, int(MF_SNR_MAX_SHIFT_S * spec.fs), "snr.summary.json"),
                    ["snr.csv", "snr.summary.json"]))
    return jobs


# ---------------------------------------------------------------------------
# counting-model

def _check_mc(strategy: str, out: str) -> Callable[[Path], str | None]:
    def check(wd: Path) -> str | None:
        res = _read_json(wd / out)
        if res["n_failed"] != 0:
            return f"{res['n_failed']} trials failed"
        stderr = res["stddev"] / math.sqrt(res["trials"])
        exact = MC_EXACT_MEAN[strategy]
        if abs(res["mean"] - exact) > MC_MAX_STDERR * stderr:
            return f"mean {res['mean']:.2f} vs exact {exact} (stderr {stderr:.2f})"
        return None
    return check


def _check_count_dist(out: str) -> Callable[[Path], str | None]:
    def check(wd: Path) -> str | None:
        total = math.fsum(_read_column(wd / out, 1))
        if abs(total - 1.0) > 1e-9:
            return f"probabilities sum to {total!r}"
        return None
    return check


def _check_fail_bound(out: str) -> Callable[[Path], str | None]:
    def check(wd: Path) -> str | None:
        worst = float(_read_column(wd / out, 2).max())
        if worst > FAIL_BOUND_MAX:
            return f"maximum bound {worst} > {FAIL_BOUND_MAX}"
        return None
    return check


def _check_synthetic_detect(p: int, out: str) -> Callable[[Path], str | None]:
    def check(wd: Path) -> str | None:
        res = _read_json(wd / out)
        if res["oracle_evals"] != (1 << p) - 1:
            return f"detection charged {res['oracle_evals']} oracle evaluations"
        return None
    return check


def _check_synthetic_retrieve(r: int, out: str) -> Callable[[Path], str | None]:
    def check(wd: Path) -> str | None:
        res = _read_json(wd / out)
        if not res["succeeded"] or not 0 <= res["returned_index"] < r:
            return f"retrieval returned {res['returned_index']} (succeeded={res['succeeded']})"
        return None
    return check


def _check_cw(out: str) -> Callable[[Path], str | None]:
    def check(wd: Path) -> str | None:
        speedup = _read_json(wd / out)["speedup"]
        if not CW_SPEEDUP / 2 <= speedup <= CW_SPEEDUP * 2:
            return f"speedup {speedup:.3g} not within a factor 2 of {CW_SPEEDUP:.0e}"
        return None
    return check


def _counting_model(rng: np.random.Generator, wd: Path, size: dict) -> list[Job]:
    jobs = []
    for strategy in MC_EXACT_MEAN:
        cfg = {**MC_SCENARIO, "strategy": strategy, "trials": size["mc_trials"],
               "seed": int(rng.integers(1 << 31))}
        _write_json(wd / f"mc_{strategy}.json", cfg)
        out = f"mc_{strategy}.out.json"
        jobs.append(Job(["mc-bench", "--config", f"mc_{strategy}.json", "--out", out],
                        _check_mc(strategy, out), [out, f"mc_{strategy}.out.hist.csv"]))

    jobs.append(Job(["count-dist", "--n-templates", str(size["dist_n"]),
                     "--matches", str(size["dist_r"]), "--out", "dist.csv"],
                    _check_count_dist("dist.csv"), ["dist.csv"]))
    jobs.append(Job(["fail-bound", "--r-max", str(size["r_max"]), "--out", "bound.csv"],
                    _check_fail_bound("bound.csv"), ["bound.csv"]))

    n, r = size["big_n"], size["big_r"]
    _write_json(wd / "large.json", {"n": n, "r": r, "seed": int(rng.integers(1 << 31))})
    jobs.append(Job(["detect", "--config", "large.json", "--out", "large.detect.json"],
                    _check_synthetic_detect(amplify.choose_p(n), "large.detect.json"),
                    ["large.detect.json"]))
    jobs.append(Job(["retrieve", "--config", "large.json", "--out", "large.retrieve.json"],
                    _check_synthetic_retrieve(r, "large.retrieve.json"),
                    ["large.retrieve.json"]))
    jobs.append(Job(["cw-cost", "--out", "cw.json"], _check_cw("cw.json"), ["cw.json"]))
    return jobs


# ---------------------------------------------------------------------------
# statevector

def _data_bits(rng: np.random.Generator, n: int, q: int) -> str:
    """Random n-bit string with exactly (n - q) // 2 ones on the compared bits.

    The oracle's X-gate count grows with the ones on the compared (high)
    bits, so fixing their number keeps the work equal across seeds.
    """
    high = np.zeros(n - q, dtype=int)
    high[: (n - q) // 2] = 1
    rng.shuffle(high)
    low = rng.integers(2, size=q)
    return "".join(map(str, np.concatenate([high, low])))


def _check_qsim_count(n: int, q: int, p: int, marginal: str) -> Callable[[Path], str | None]:
    def check(wd: Path) -> str | None:
        got = _read_column(wd / marginal, 1)
        want = amplify.counting_distribution(1 << n, 1 << q, p).probs
        err = float(np.max(np.abs(got - want))) if got.shape == want.shape else math.inf
        if err > 1e-9:
            return f"counting marginal differs from the analytic model by {err:.3g}"
        return None
    return check


def _check_qsim_search(bits: str, q: int, k: int, marginal: str) -> Callable[[Path], str | None]:
    def check(wd: Path) -> str | None:
        got = _read_column(wd / marginal, 1)
        hits = qsim.StringOracleSpec(bits, q).matching_states()
        mass = float(got[hits].sum())
        want = amplify.p_match(amplify.theta_of(1 << len(bits), 1 << q), k)
        if abs(mass - want) > 1e-9:
            return f"success mass {mass!r} vs p_match {want!r}"
        return None
    return check


def _statevector(rng: np.random.Generator, wd: Path, size: dict) -> list[Job]:
    jobs = []
    n = size["count_n"]
    for i, (q, p) in enumerate(size["count_qp"]):
        bits = _data_bits(rng, n, q)
        out, marginal = f"count{i}.csv", f"count{i}.marginal.csv"
        jobs.append(Job(["qsim-count", "--data-bits", bits, "--ignored", str(q),
                         "--p", str(p), "--seed", str(int(rng.integers(1 << 31))),
                         "--out", out],
                        _check_qsim_count(n, q, p, marginal), [out, marginal]))
    n, q, k = size["search_n"], size["search_q"], size["search_k"]
    bits = _data_bits(rng, n, q)
    jobs.append(Job(["qsim-search", "--data-bits", bits, "--ignored", str(q),
                     "--iterations", str(k), "--seed", str(int(rng.integers(1 << 31))),
                     "--out", "search.csv"],
                    _check_qsim_search(bits, q, k, "search.marginal.csv"),
                    ["search.csv", "search.marginal.csv"]))
    return jobs


_BUILDERS = {"bank-search": _bank_search, "counting-model": _counting_model,
             "statevector": _statevector}
WORKLOADS = tuple(_BUILDERS)


def build(name: str, seed: int, workdir: Path, smoke: bool = False) -> list[Job]:
    """Write the workload's inputs for this seed into workdir; return its jobs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return _BUILDERS[name](rng, workdir, SIZES[smoke])
