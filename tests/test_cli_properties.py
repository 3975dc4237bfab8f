"""Property test of the CLI boundary: any input ends in a known exit code.

Whatever the argv of ``qsim-count``, ``qsim-search``, ``count-dist`` and
``fail-bound``, whatever the scenario, bank or CW config, and whatever
``mf-snr``'s strain (raw with its sidecar, or CSV) and PSD file, a
command exits 0, 2, 3 or 4, writes at most one line to stderr and no
NumPy warning, leaves no output file when it fails and changes no input
file; it never ends in a traceback.  Now and then an output flag names
one of the call's input files: that call exits 2 on one line, before
any work.  A float drawn is now and then at or past the edge of
the float range, and an int past the int64 range.  Work-sizing numbers
(register widths, bank and series sizes, trial and round counts) are
drawn small so each example runs in milliseconds, or past the injection
byte budget, where an injection scenario exits 3 before it builds an
array.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qmf import cli  # noqa: E402

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_CAP, cli.EXIT_VALIDATION}
SETTINGS = settings(max_examples=60, deadline=None)

# A NumPy floating-point warning, in a worker too, raises and fails the example.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# A config key holds a number around its valid range most of the time,
# and now and then a value of the wrong JSON type.
junk = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                 st.lists(st.integers(0, 3), max_size=2), st.just({}))


def mostly(good, bad, weight=7):
    """A draw of ``good`` ``weight`` times in ``weight + 1``, else one of ``bad``.

    ``st.one_of`` would weight each branch of a nested ``one_of`` alike.
    """
    return st.sampled_from([good] * weight + [bad]).flatmap(lambda s: s)


# Numbers at or past the edge of the float range and of int64.
edge_float = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, 1e-320,
                              0.0, -0.0, 1e300, 1e-300])
edge_int = st.one_of(st.sampled_from([0, -1]), st.integers(2**62, 2**70))


def floats(lo=None, hi=None):
    """Floats in [lo, hi] (any float by default), or an edge float a quarter of the time."""
    return mostly(st.floats(lo, hi), edge_float, 3)


def ints(lo, hi):
    """Ints in [lo, hi], or an edge int a fifth of the time."""
    return mostly(st.integers(lo, hi), edge_int, 4)


small_int = ints(-3, 64)
small_float = st.one_of(floats(-10.0, 200.0), st.sampled_from([0.0, 0.5, 1e-9]))


def value(numbers):
    return mostly(numbers, junk)


def rarely(strategy):
    return mostly(st.none(), strategy, 3)


def config(required: dict, optional: dict):
    """Dicts with the required keys and any optional ones.

    Now and then a required key is dropped, or a misspelt key rides along.
    """
    drop = rarely(st.sampled_from(sorted(required))) if required else st.none()
    typo = rarely(st.sampled_from(["stratgy", "noise_sigm", "n_f2", "T_obs_yr"]))
    return st.tuples(st.fixed_dictionaries(required, optional=optional), drop, typo).map(
        lambda t: {**{k: v for k, v in t[0].items() if k != t[1]},
                   **({t[2]: 1.0} if t[2] else {})})


def around(valid, wider):
    return mostly(valid, wider, 3)


# Past the 1 GiB injection budget on their own: 9 bytes a template, and
# over 64 bytes a sample.  No size under the budget but slow is drawn.
past_budget_count = st.integers(2**27 + 1, 10**12)
past_budget_samples = st.integers(2**24, 10**13)

BANK = {
    "f0_min": value(around(floats(10.0, 60.0), small_float)),
    "f0_max": value(around(floats(60.0, 120.0), small_float)),
    "n_f0": value(around(ints(1, 4), st.one_of(st.integers(-1, 0), past_budget_count))),
    "f1_min": value(floats(-20.0, 60.0)), "f1_max": value(floats(-20.0, 60.0)),
    "n_f1": value(around(ints(1, 4), st.one_of(st.integers(-1, 0), past_budget_count))),
    "fs_hz": value(around(st.just(512.0), floats(-1.0, 1024.0))),
    "m_samples": value(around(st.just(128), st.one_of(ints(-1, 256), past_budget_samples))),
    "dur_s": value(around(floats(0.05, 0.25), floats(-0.1, 1.0))),
}
# The CLI's scenario keys are optional, but drawn like required ones, so
# that most runs get past the seed check.  The trial count, p and
# max_attempts size the work, so they draw no edge int: at n = 2**62, a
# p far under choose_p's with 2**62 rounds runs for hours.
CLI_KEYS = {"seed": value(ints(-2, 2**40)), "trials": value(st.integers(-1, 8))}
OPTIONAL = {"p": value(st.integers(-1, 16)),
            "strategy": value(st.sampled_from(["reuse_k", "recount_each_try", "reuse-k",
                                               "none"])),
            "max_attempts": value(st.integers(-1, 64))}
SYNTHETIC = config({**CLI_KEYS, "n": value(around(ints(2, 4096), st.integers(-2, 1))),
                    "r": value(small_int)}, OPTIONAL)
INJECTION = config(
    {**CLI_KEYS, "bank": mostly(config(BANK, {}), junk),
     "inject_index": value(ints(-1, 20)), "rho_thr": value(small_float)},
    {**OPTIONAL, "amplitude": value(small_float),
     "noise_sigma": value(floats(0.0, 3.0)), "noise_seed": value(ints(-1, 2**40))})
CW = config({}, {k: value(st.one_of(floats(), small_float))
                 for k in ("f_khz", "t_obs_yr", "delta_f_hz", "delta_f1_hz_s",
                           "delta_target")})


def run(argv, files=()):
    """Run ``qmf`` on argv in a fresh directory.

    Returns the exit code, stderr, the files it made and the input files
    whose bytes it changed.
    """
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        for name, write in files:
            write(Path(tmp) / name)
        inputs = {name: (Path(tmp) / name).read_bytes() for name in os.listdir(tmp)}
        argv = [a.replace("{tmp}", tmp) for a in argv]
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        made = set(os.listdir(tmp)) - set(inputs)
        changed = {name for name, data in inputs.items()
                   if not os.path.isfile(Path(tmp) / name)
                   or (Path(tmp) / name).read_bytes() != data}
    return code, err.getvalue(), made, changed


def assert_clean_exit(code, err, made, changed):
    assert code in EXIT_CODES, (code, err)
    assert err.count("\n") <= 1 and (err == "" or err.endswith("\n")), err
    assert "Warning" not in err, err
    assert code == cli.EXIT_OK or not made, (code, err, made)
    assert not changed, (code, err, changed)


def assert_clash_refused(code, err, made, changed):
    """An output that names an input file: exit 2 on one line, no file made or changed."""
    assert code == cli.EXIT_INPUT and err.count("\n") == 1 and "name one file" in err, err
    assert not made and not changed, (made, changed)


def write_json(payload):
    return lambda path: path.write_text(json.dumps(payload))


flag = mostly(st.integers(-3, 9).map(str), st.sampled_from(["", "x", "1.5", "99"]))


@SETTINGS
@given(command=st.sampled_from(["qsim-count", "qsim-search"]),
       bits=mostly(st.text(alphabet="01", min_size=1, max_size=8),
                   st.sampled_from(["", "012", "ab", " 1"])),
       flags=st.dictionaries(
           st.sampled_from(["--ignored", "--steps", "--shots", "--seed", "--cap"]), flag,
           max_size=5),
       unknown_flag=st.booleans(), keep_required=mostly(st.just(True), st.just(False), 3))
def test_qsim_argv(command, bits, flags, unknown_flag, keep_required):
    steps = "--p" if command == "qsim-count" else "--iterations"
    argv = [command, "--data-bits", bits, "--out", "{tmp}/shots.csv"]
    if keep_required:
        flags = {"--seed": "1", "--steps": "2", **flags}
    for key, val in flags.items():
        argv += [steps if key == "--steps" else key, val]
    if unknown_flag and not keep_required:
        argv += ["--bogus", "1"]
    assert_clean_exit(*run(argv))


@SETTINGS
@given(command=st.sampled_from(["detect", "retrieve", "mc-bench"]),
       cfg=mostly(st.one_of(SYNTHETIC, INJECTION), junk),
       clash=rarely(st.sampled_from(["--out", "--hist-out"])))
def test_scenario_config(command, cfg, clash):
    argv = [command, "--config", "{tmp}/scenario.json", "--out", "{tmp}/out.json"]
    if clash is not None:  # an output that names the config
        argv += ["--out" if command != "mc-bench" else clash, "{tmp}/scenario.json"]
    result = run(argv, [("scenario.json", write_json(cfg))])
    (assert_clean_exit if clash is None else assert_clash_refused)(*result)


@SETTINGS
@given(command=st.sampled_from(["detect", "retrieve", "mc-bench"]),
       size=st.one_of(st.fixed_dictionaries({"m_samples": past_budget_samples}),
                      st.fixed_dictionaries({"n_f0": past_budget_count}),
                      st.fixed_dictionaries({"n_f1": past_budget_count})))
def test_injection_past_the_byte_budget_exits_3(command, size):
    bank = {"f0_min": 40.0, "f0_max": 120.0, "n_f0": 2, "f1_min": 5.0, "f1_max": 45.0,
            "n_f1": 2, "fs_hz": 512.0, "m_samples": 128, "dur_s": 0.25, **size}
    cfg = {"bank": bank, "inject_index": 0, "rho_thr": 5.0, "seed": 1, "trials": 2}
    argv = [command, "--config", "{tmp}/scenario.json", "--out", "{tmp}/out.json"]
    code, err, _, _ = run(argv, [("scenario.json", write_json(cfg))])
    assert code == cli.EXIT_CAP, err
    assert err.startswith("resource cap: injection scenario needs ") and err.count("\n") == 1


# The sidecar of the strain, and the PSD file: a grid step and one level for every bin.
SIDECAR = config({"fs_hz": value(around(st.just(512.0), floats(-1.0, 1e4)))},
                 {"t0_s": value(floats(-1e3, 1e3))})
PSD = st.tuples(around(st.just(4.0), floats(0.5, 8.0)), floats(1e-6, 10.0))
# A CSV strain: rows of (t, sample), where a few fields hold an edge float,
# and now and then one row gets a stray third field or a number float() refuses.
CSV_EDGES = st.lists(st.tuples(st.integers(0, 127), st.integers(0, 1), edge_float), max_size=3)
CSV_FLAW = rarely(st.tuples(st.integers(0, 127), st.sampled_from([",0.0", ",", "x", "_"])))


@SETTINGS
@given(bank=mostly(config(BANK, {}), junk), index=ints(-1, 20),
       seg_len=st.one_of(st.none(), ints(-1, 300)),
       scale=around(st.just(1.0), floats(0.0, 1e300)), sidecar=mostly(SIDECAR, junk),
       psd=st.one_of(st.none(), PSD), suffix=st.sampled_from(["f64", "csv"]),
       edges=CSV_EDGES, flaw=CSV_FLAW,
       clash=rarely(st.tuples(st.sampled_from(["--out", "--summary-out"]),
                              st.sampled_from(["strain", "sidecar", "bank.json", "psd.csv"]))))
def test_bank_config(bank, index, seg_len, scale, sidecar, psd, suffix, edges, flaw, clash):
    def strain(path):
        with np.errstate(over="ignore"):  # a scale past 1e306 may give inf samples
            samples = np.random.default_rng(0).normal(size=128) * scale
        if suffix == "f64":
            samples.astype("<f8").tofile(path)
            path.with_name("strain.f64.json").write_text(json.dumps(sidecar))
            return
        rows = [[j / 512.0, s] for j, s in enumerate(samples.tolist())]
        for j, column, edge in edges:
            rows[j][column] = edge
        lines = [f"{t!r},{s!r}" for t, s in rows]
        if flaw is not None:
            lines[flaw[0]] += flaw[1]
        path.write_text("t,strain\n" + "".join(f"{line}\n" for line in lines))

    argv = ["mf-snr", "--data", f"{{tmp}}/strain.{suffix}", "--bank-config", "{tmp}/bank.json",
            "--index", str(index), "--out", "{tmp}/snr.csv"]
    files = [(f"strain.{suffix}", strain), ("bank.json", write_json(bank))]
    if seg_len is not None:
        argv += ["--seg-len", str(seg_len)]
    if psd is not None:
        df, level = psd
        files.append(("psd.csv", lambda path: path.write_text("f_hz,sn\n" + "".join(
            f"{k * df!r},{level!r}\n" for k in range(65)))))
        argv += ["--psd", "{tmp}/psd.csv"]
    if clash is None:
        assert_clean_exit(*run(argv, files))
        return
    # an output that names an input file; the strain stands in for one this call lacks
    flag, name = clash
    given = {"strain": f"strain.{suffix}", "bank.json": "bank.json",
             "sidecar": "strain.f64.json" if suffix == "f64" else None,
             "psd.csv": "psd.csv" if psd is not None else None}[name]
    argv += [flag, "{tmp}/" + (given or f"strain.{suffix}")]
    assert_clash_refused(*run(argv, files))


def int_flag(lo, hi):
    """An int flag in [lo, hi] or at an edge, and now and then one that does not parse."""
    return mostly(ints(lo, hi).map(str), st.sampled_from(["", "x", "1.5"]))


@SETTINGS
@given(n=int_flag(-2, 4096), r=int_flag(-2, 64),
       p=st.one_of(st.none(), st.integers(-1, 16).map(str)))
def test_count_dist_argv(n, r, p):
    argv = ["count-dist", "--n-templates", n, "--matches", r, "--out", "{tmp}/dist.csv"]
    if p is not None:
        argv += ["--p", p]
    assert_clean_exit(*run(argv))


@SETTINGS
@given(r_max=int_flag(-1, 3))
def test_fail_bound_argv(r_max):
    assert_clean_exit(*run(["fail-bound", "--r-max", r_max, "--out", "{tmp}/bound.csv"]))


@SETTINGS
@given(cfg=mostly(CW, junk))
def test_cw_config(cfg):
    argv = ["cw-cost", "--config", "{tmp}/cw.json", "--out", "{tmp}/cw.out.json"]
    assert_clean_exit(*run(argv, [("cw.json", write_json(cfg))]))
