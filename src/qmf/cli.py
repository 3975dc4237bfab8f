"""Command-line frontend.

One process per command; stochastic subcommands require an explicit
seed and re-running any command with the same configuration and seed
produces byte-identical data rows.  Exit codes: 0 success, 2 input
error, 3 resource cap exceeded, 4 numeric validation failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import os
import sys
from pathlib import Path

# No command calls BLAS, so numpy's import starts no OpenBLAS thread pool;
# a value set by the caller is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import amplify, bank, cw, dsp, fanout, io, pipeline, qsim
from .errors import CapExceededError, InputError, NonFiniteError, ValidationError, check_bytes


EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_VALIDATION = 4

# fail-bound spends about 17 ms per r on its grid scan and refinement.
_R_MAX_CAP = 10_000


def _provenance(args: argparse.Namespace, seed: int | None = None, **configs) -> str:
    """The provenance line of this call: its command, its seed, every flag and ``configs``."""
    flags = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    return io.provenance_line(args.command, {**flags, **configs}, seed=seed)


def _require_at_least(value: int, minimum: int, flag: str) -> None:
    if value < minimum:
        raise ValidationError(f"{flag} must be >= {minimum}, got {value}")


# Each command that writes a second output: its flag ``--<tag>-out``, and the
# suffix of the path ``<stem>.<tag><suffix>`` derived beside --out without it.
_SECOND_OUTPUT = {"mf-snr": ("--summary-out", ".json"), "mc-bench": ("--hist-out", ".csv"),
                  "qsim-count": ("--marginal-out", ".csv"),
                  "qsim-search": ("--marginal-out", ".csv")}
# The flags that name a file a call reads; a raw --data names its sidecar too.
_READS = ("--data", "--psd", "--bank-config", "--config")


def _second_out(args) -> str:
    """The path of this command's second output: its flag as given, else derived beside --out."""
    flag, suffix = _SECOND_OUTPUT[args.command]
    tag, p = flag[2:-4], Path(args.out)
    given = getattr(args, f"{tag}_out")
    return given if given is not None else str(p.with_name(f"{p.stem}.{tag}{suffix}"))


def _check_files(args) -> None:
    """Refuse, before the work, a write that is empty, a directory, in no directory, or the
    file of a read or of --out: ``os.path.samefile`` where both exist, else equal realpaths."""
    named = [(flag, getattr(args, flag[2:].replace("-", "_"), None)) for flag in _READS]
    named.append(("the sidecar of --data", named[0][1] and io.sidecar_path(named[0][1])))
    for flag in ("--out", *_SECOND_OUTPUT.get(args.command, ())[:1]):
        path = args.out if flag == "--out" else _second_out(args)  # derived once --out holds
        if not path:
            raise InputError(f"empty path for {flag}")
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            code = errno.EISDIR if os.path.isdir(path) else errno.ENOENT
            raise OSError(code, os.strerror(code), path)  # IsADirectory-, FileNotFoundError
        for other, p in named:
            if p and (os.path.realpath(p) == os.path.realpath(path) or os.path.exists(p)
                      and os.path.exists(path) and os.path.samefile(p, path)):
                raise InputError(f"{flag} and {other} name one file: {path!r}")
        named.append((flag, path))


# ---------------------------------------------------------------------------
# subcommands

def cmd_mf_snr(args) -> None:
    if args.seg_len is not None:
        _require_at_least(args.seg_len, 2, "--seg-len")
    spec = bank.BankSpec.from_config(io.read_json(args.bank_config))
    params = bank.index_to_params(spec, args.index)
    m = spec.m_samples
    # peak RSS over the interpreter at 2**20 samples: 54 bytes a sample raw, 55 as CSV
    check_bytes(f"mf-snr on {m} samples", 64 * m)
    ts = io.read_time_series(args.data, m)
    if not dsp.same_grid(1.0 / ts.dt, spec.fs):  # the filter's grid tolerance, put on the rates
        raise ValidationError(f"{args.data}: sampled at {1.0 / ts.dt!r} Hz but the bank "
                              f"at {spec.fs!r} Hz")
    if args.psd is not None:
        psd = io.read_psd(args.psd)
        top = (dsp.band(ts.m).stop - 1) / (ts.m * ts.dt)  # top bin of the analysis band
        reach = (psd.values.size - 1) * psd.df
        # short of the band top by more than the input-grid tolerance: refused, not extended
        if reach < top and not np.isclose(reach, top, **io.GRID_TOL):
            raise InputError(f"{args.psd}: PSD stops at {reach!r} Hz, below the top of "
                             f"the analysis band at {top!r} Hz")
    else:
        seg = args.seg_len or min(max(256, min(ts.m // 8, 4096)), ts.m // 2)
        if seg > ts.m // 2:
            raise ValidationError(f"--seg-len must be <= {ts.m // 2}, half the series, got {seg}")
    try:  # a number that overflows comes from the data or the PSD given
        if args.psd is None:
            psd = dsp.estimate_psd(ts, seg_len=seg)
        psd = dsp.interpolate_psd(psd, ts.m, ts.dt)
        qc = dsp.complex_template(bank.quadrature_spectra(params, spec.fs, m), psd)
        data = dsp.forward_fft(ts)
        t0, dt = ts.t0, 1.0 / (data.df * data.m_time)
        del ts  # each full-length array goes once used: the transform runs beside the PSD alone
        integrand = dsp.filter_integrand(data, qc, psd)
        del data, qc
        snr = dsp.snr_series(integrand, dt)
        del integrand
    except NonFiniteError as exc:
        given = f"--data {args.data}" + (f" or --psd {args.psd}" if args.psd else "")
        raise ValidationError(f"{given} overflows the matched filter: {exc}") from None
    rho_max, j_max = dsp.max_snr(snr)
    t_max = t0 + j_max * snr.dt
    prov = _provenance(args)
    io.write_snr(args.out, snr, prov, t0=t0)
    io.write_json(_second_out(args), {"rho_max": rho_max, "t_max": t_max, "j_max": j_max}, prov)
    print(f"rho_max={rho_max:.6g} at t={t_max:.6g}s -> {args.out}")


def cmd_count_dist(args) -> None:
    n, r = args.n_templates, args.matches
    p = args.p if args.p is not None else amplify.choose_p(n)
    amplify.check_register(p)  # refused here, before any worker is forked
    amplify.theta_of(n, r)
    prov = _provenance(args)
    # P(b) and P(2**p - b) are the same sum of the two branches, bit for
    # bit, so only rows 0..2**(p-1) are computed, in blocks on every CPU.
    # Each block comes back as the text of its rows and the bytes of its
    # mirrored rows, already in reverse order.  The mirrored texts wait in
    # an unnamed spill file and are copied back last block first, so one
    # block is held at a time.
    d = 1 << p
    h = d // 2

    def block(start: int) -> tuple[bytes, bytes]:
        probs = amplify.outcome_probs(n, r, p, start, min(start + io.ROW_BLOCK, h + 1))
        # outcomes killed by exactly destructive interference are omitted
        j = np.flatnonzero(probs > 0.0)
        b, text = start + j, io.repr_column(probs[j])
        # row 2**p - b repeats row b for 0 < b < 2**(p-1)
        lo, hi = np.searchsorted(j, [1 - start, h - start])
        return (io.csv_block([b, text]),
                io.csv_block([(d - b[lo:hi])[::-1], text[lo:hi][::-1]]))

    def rows(spill):
        sizes = []
        for lower, mirrored in fanout.fan_out(block, range(0, h + 1, io.ROW_BLOCK)):
            yield lower
            spill.write(mirrored)
            sizes.append(len(mirrored))
        end = spill.tell()
        for size in reversed(sizes):
            end -= size
            spill.seek(end)
            yield spill.read(size)

    with io.temp_beside(args.out) as spill:
        io.write_csv(args.out, "b,probability", rows(spill), prov)
    print(f"p={p}, {d} outcomes -> {args.out}")


def _draw_flags(args) -> None:
    """Fill in the default ``--cap``; refuse a shot count that the int64 draw cannot hold.

    The parser leaves ``--cap`` at None so that it does not load qsim for
    every command.  A negative seed is refused too.
    """
    if args.cap is None:
        args.cap = qsim.DEFAULT_QUBIT_CAP
    _require_at_least(args.shots, 1, "--shots")
    if args.shots > np.iinfo(np.int64).max:
        raise ValidationError(f"--shots must be <= 2**63 - 1, got {args.shots}")
    _require_at_least(args.seed, 0, "--seed")


def _sample_and_write(args, marginal: np.ndarray) -> None:
    counts = qsim.measure(marginal, args.shots, np.random.default_rng(args.seed))
    prov = _provenance(args, args.seed)
    bits = f"0{marginal.size.bit_length() - 1}b"  # w-bit strings for 2**w outcomes
    drawn = np.flatnonzero(counts)
    counted = counts[drawn]
    table = io.csv_block([np.array([format(b, bits) for b in drawn.tolist()], dtype="S"),
                          counted, np.array([c / args.shots for c in counted.tolist()])])
    io.write_csv(args.out, "outcome_bits,count,probability", [table], prov)
    io.write_csv(_second_out(args), "outcome_int,probability",
                 io.repr_rows(marginal.size, lambda j: (j, marginal[j])), prov)
    mode = format(int(np.argmax(counts)), bits)
    print(f"{args.shots} shots, modal outcome {mode} -> {args.out}")


def cmd_qsim_count(args) -> None:
    _require_at_least(args.p, 1, "--p")
    _draw_flags(args)
    spec = qsim.StringOracleSpec(args.data_bits, args.ignored)
    state = qsim.counting_state(spec.n, spec.matching_states(), args.p, cap=args.cap)
    marginal = qsim.marginal_probs(state, range(spec.n, state.num_qubits))
    del state  # freed before sampling, so the state and the draw never coexist
    _sample_and_write(args, marginal)


def cmd_qsim_search(args) -> None:
    _require_at_least(args.iterations, 0, "--iterations")
    _draw_flags(args)
    spec = qsim.StringOracleSpec(args.data_bits, args.ignored)
    state = qsim.search_state(spec.n, spec.matching_states(), args.iterations, cap=args.cap)
    marginal = qsim.marginal_probs(state, range(spec.n))
    del state  # freed before sampling, so the state and the draw never coexist
    _sample_and_write(args, marginal)


def _scenario_args(args) -> tuple[pipeline.Scenario, dict]:
    """The scenario of ``--config``, whose seed is ``--seed`` or the config's, and the config."""
    cfg = io.read_json(args.config)
    if args.seed is None and "seed" not in cfg:
        raise ValidationError("a seed is required (flag --seed or config key)")
    return pipeline.scenario_from_config(cfg, seed=args.seed), cfg


def cmd_mc_bench(args) -> None:
    scenario, cfg = _scenario_args(args)
    trials = args.trials if args.trials is not None else scenario.trials
    summary = pipeline.monte_carlo(scenario, trials, scenario.seed)
    prov = _provenance(args, scenario.seed, scenario=cfg)
    io.write_json(args.out, summary.to_dict(), prov)
    table = io.csv_block([np.array(column) for column in zip(*summary.histogram)])
    io.write_csv(_second_out(args), "evals,count", [table], prov)
    print(f"{trials} trials: mean={summary.mean:.1f} evals "
          f"(classical {summary.classical_evals}) -> {args.out}")


def cmd_fail_bound(args) -> None:
    _require_at_least(args.r_max, 1, "--r-max")
    if args.r_max > _R_MAX_CAP:
        raise CapExceededError(f"--r-max {args.r_max} exceeds the cap of {_R_MAX_CAP}")
    bound = amplify.max_fail_bound_argmax  # loaded here, once, not in each worker
    rows = fanout.fan_out(lambda r: (r, *bound(r)), range(1, args.r_max + 1))
    table = io.csv_block([np.array(column) for column in zip(*rows)])
    io.write_csv(args.out, "r,eps_p_argmax,max_bound", [table], _provenance(args))
    print(f"bounds for r=1..{args.r_max} -> {args.out}")


def cmd_cw_cost(args) -> None:
    cfg = io.read_json(args.config) if args.config else {}
    spec = cw.CwSearchSpec.from_config(cfg)
    report = cw.quantum_cost(spec)
    io.write_json(args.out, report, _provenance(args, spec=cfg))
    print(f"speedup {report['speedup']:.3g} -> {args.out}")


def cmd_detect(args) -> None:
    scenario, cfg = _scenario_args(args)
    counter = pipeline.OracleCounter()
    outcome = pipeline.signal_detection(scenario, np.random.default_rng(scenario.seed), counter)
    io.write_json(args.out, {
        **dataclasses.asdict(outcome), "detected": outcome.detected,
        "oracle_evals": counter.evaluations, "setup_evals": scenario.setup_evals,
    }, _provenance(args, scenario.seed, scenario=cfg))
    print(f"detected={outcome.detected} (b={outcome.b}, r*={outcome.r_star}) "
          f"-> {args.out}")


def cmd_retrieve(args) -> None:
    scenario, cfg = _scenario_args(args)
    record = pipeline.retrieve_until_success(scenario, np.random.default_rng(scenario.seed),
                                             pipeline.OracleCounter())
    io.write_json(args.out, {**dataclasses.asdict(record), "setup_evals": scenario.setup_evals},
                  _provenance(args, scenario.seed, scenario=cfg))
    print(f"succeeded={record.succeeded} index={record.returned_index} "
          f"evals={record.oracle_evals} -> {args.out}")


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line, without the usage text, and exits 2."""

    def error(self, message: str):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="qmf", description="Grover-accelerated matched filtering toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    # flags shared by the two state-vector commands
    draw = argparse.ArgumentParser(add_help=False)
    draw.add_argument("--data-bits", required=True, help="n-bit 0/1 data string")
    draw.add_argument("--ignored", type=int, default=0, help="low-order bits ignored")
    draw.add_argument("--shots", type=int, default=2048)
    draw.add_argument("--seed", type=int, required=True)
    draw.add_argument("--cap", type=int)
    draw.add_argument("--out", required=True)
    draw.add_argument("--marginal-out")
    # flags shared by the three scenario commands
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--config", required=True, help="scenario JSON")
    scenario.add_argument("--seed", type=int, help="override config seed")
    scenario.add_argument("--out", required=True, help="output JSON")

    p = sub.add_parser("mf-snr", help="matched-filter SNR series for one template")
    p.add_argument("--data", required=True, help="strain CSV or raw float64 file")
    p.add_argument("--bank-config", required=True, help="bank lattice JSON")
    p.add_argument("--index", type=int, required=True, help="template index")
    p.add_argument("--psd", help="PSD CSV (estimated from the data if omitted)")
    p.add_argument("--seg-len", type=int, help="Welch segment length")
    p.add_argument("--out", required=True, help="output SNR CSV")
    p.add_argument("--summary-out", help="summary JSON (derived from --out if omitted)")
    p.set_defaults(func=cmd_mf_snr)

    p = sub.add_parser("count-dist", help="exact counting-register distribution")
    p.add_argument("--n-templates", type=int, required=True)
    p.add_argument("--matches", type=int, required=True)
    p.add_argument("--p", type=int, help="counting qubits (auto if omitted)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_count_dist)

    p = sub.add_parser("qsim-count", parents=[draw], help="state-vector quantum counting run")
    p.add_argument("--p", type=int, required=True, help="counting qubits")
    p.set_defaults(func=cmd_qsim_count)

    p = sub.add_parser("qsim-search", parents=[draw], help="state-vector Grover search run")
    p.add_argument("--iterations", type=int, required=True, help="Grover iterations")
    p.set_defaults(func=cmd_qsim_search)

    p = sub.add_parser("mc-bench", parents=[scenario], help="Monte Carlo oracle-cost benchmark")
    p.add_argument("--trials", type=int, help="override config trials")
    p.add_argument("--hist-out", help="histogram CSV (derived if omitted)")
    p.set_defaults(func=cmd_mc_bench)

    p = sub.add_parser("fail-bound", help="retrieval failure bound sweep")
    p.add_argument("--r-max", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fail_bound)

    p = sub.add_parser("cw-cost", help="continuous-wave search cost report")
    p.add_argument("--config", help="CW spec JSON (defaults if omitted)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cw_cost)

    p = sub.add_parser("detect", parents=[scenario], help="one distribution-level detection run")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("retrieve", parents=[scenario], help="retrieve one matching template index")
    p.set_defaults(func=cmd_retrieve)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_files(args)
        with np.errstate(all="ignore"):  # the value types refuse what overflows
            args.func(args)
    except (CapExceededError, MemoryError, ChildProcessError) as exc:  # the last an OSError
        print(f"resource cap: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CAP
    except (OSError, InputError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
