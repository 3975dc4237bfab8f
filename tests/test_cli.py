"""CLI integration tests: subcommands, file formats, exit codes."""

import argparse
import errno
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from qmf import amplify, bank, cli, dsp, fanout, io, pipeline, qsim
from qmf.cli import EXIT_CAP, EXIT_INPUT, EXIT_OK, EXIT_VALIDATION

BANK_CFG = {"f0_min": 40.0, "f0_max": 120.0, "n_f0": 8,
            "f1_min": 5.0, "f1_max": 45.0, "n_f1": 8,
            "fs_hz": 512.0, "m_samples": 1024, "dur_s": 1.0}


def run(*argv):
    return cli.main([str(a) for a in argv])


def write_psd(path, psd, provenance):
    """PSD fixture as ``f_hz,sn`` CSV, the format ``io.read_psd`` reads."""
    rows = io.repr_rows(psd.values.size, lambda j: (j * psd.df, psd.values[j]))
    io.write_csv(path, "f_hz,sn", rows, provenance)


def data_rows(path):
    """CSV rows with the provenance comment stripped."""
    with open(path) as fh:
        return [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]


def assert_same(got, expected):
    """``got == expected`` for two texts, two byte strings or two lists of lines.

    Every byte is compared.  A mismatch names the first line that differs
    and shows both versions of it, in place of pytest's diff of the whole
    files, which takes minutes for a few hundred kilobytes.
    """
    if got == expected:
        return
    if not isinstance(got, list):
        got, expected = got.splitlines(keepends=True), expected.splitlines(keepends=True)
    j = next((j for j, (a, b) in enumerate(zip(got, expected)) if a != b),
             min(len(got), len(expected)))
    ours, theirs = (lines[j] if j < len(lines) else "(end of file)" for lines in (got, expected))
    pytest.fail(f"line {j + 1} differs: got {ours!r}, expected {theirs!r}", pytrace=False)


def _env_with_src():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}


@pytest.fixture()
def bank_cfg_file(tmp_path):
    path = tmp_path / "bank.json"
    path.write_text(json.dumps(BANK_CFG))
    return path


class TestMfSnr:
    def write_inputs(self, tmp_path, samples, fs=512.0):
        t = np.arange(samples.size) / fs
        lines = ["t,strain"] + [f"{float(ti)!r},{float(si)!r}" for ti, si in zip(t, samples)]
        data = tmp_path / "strain.csv"
        data.write_text("\n".join(lines) + "\n")
        psd = dsp.white_psd(samples.size, 1.0 / fs)
        psd_path = tmp_path / "psd.csv"
        write_psd(psd_path, psd, "# test psd")
        return data, psd_path

    def test_injection_recovered(self, tmp_path, bank_cfg_file):
        spec = bank.BankSpec.from_config(BANK_CFG)
        strain = np.roll(bank.waveform(bank.index_to_params(spec, 27),
                                       spec.fs, spec.m_samples).samples, 200)
        data, psd_path = self.write_inputs(tmp_path, strain)
        out = tmp_path / "snr.csv"
        assert run("mf-snr", "--data", data, "--bank-config", bank_cfg_file,
                   "--index", 27, "--psd", psd_path, "--out", out) == EXIT_OK
        summary = json.loads((tmp_path / "snr.summary.json").read_text())
        assert summary["j_max"] == 200
        rows = data_rows(out)
        assert rows[0] == "t,rho"
        assert len(rows) == 1 + spec.m_samples

    def test_zero_strain_gives_zero_peak(self, tmp_path, bank_cfg_file):
        data, psd_path = self.write_inputs(tmp_path, np.zeros(1024))
        out = tmp_path / "snr.csv"
        assert run("mf-snr", "--data", data, "--bank-config", bank_cfg_file,
                   "--index", 0, "--psd", psd_path, "--out", out) == EXIT_OK
        summary = json.loads((tmp_path / "snr.summary.json").read_text())
        assert summary["rho_max"] == 0.0

    def test_raw_input_with_sidecar(self, tmp_path, bank_cfg_file):
        spec = bank.BankSpec.from_config(BANK_CFG)
        strain = bank.waveform(bank.index_to_params(spec, 5), spec.fs,
                               spec.m_samples).samples
        raw = tmp_path / "strain.bin"
        strain.astype("<f8").tofile(raw)
        (tmp_path / "strain.bin.json").write_text(json.dumps({"fs_hz": 512.0}))
        psd_path = tmp_path / "psd.csv"
        write_psd(psd_path, dsp.white_psd(1024, 1 / 512.0), "# psd")
        out = tmp_path / "snr.csv"
        assert run("mf-snr", "--data", raw, "--bank-config", bank_cfg_file,
                   "--index", 5, "--psd", psd_path, "--out", out) == EXIT_OK
        summary = json.loads((tmp_path / "snr.summary.json").read_text())
        assert summary["j_max"] == 0

    def test_summary_beside_out_in_a_dotted_directory(self, tmp_path, bank_cfg_file):
        data, psd_path = self.write_inputs(tmp_path, np.zeros(1024))
        outdir = tmp_path / "out.csv.d"
        outdir.mkdir()
        assert run("mf-snr", "--data", data, "--bank-config", bank_cfg_file,
                   "--index", 0, "--psd", psd_path, "--out", outdir / "snr.csv") == EXIT_OK
        assert sorted(p.name for p in outdir.iterdir()) == ["snr.csv", "snr.summary.json"]

    def test_summary_out_replaces_the_derived_path(self, tmp_path, bank_cfg_file):
        data, psd_path = self.write_inputs(tmp_path, np.zeros(1024))
        summary = tmp_path / "peak.json"
        assert run("mf-snr", "--data", data, "--bank-config", bank_cfg_file, "--index", 0,
                   "--psd", psd_path, "--out", tmp_path / "snr.csv",
                   "--summary-out", summary) == EXIT_OK
        assert json.loads(summary.read_text())["rho_max"] == 0.0
        assert not (tmp_path / "snr.summary.json").exists()

    def test_seg_len_below_two_exits_4(self, tmp_path, bank_cfg_file, capsys):
        data, _ = self.write_inputs(tmp_path, np.zeros(1024))
        out = tmp_path / "snr.csv"
        assert run("mf-snr", "--data", data, "--bank-config", bank_cfg_file,
                   "--index", 0, "--seg-len", 0, "--out", out) == EXIT_VALIDATION
        assert capsys.readouterr().err == "validation error: --seg-len must be >= 2, got 0\n"
        assert not out.exists()

    def test_seg_len_above_half_the_series_exits_4(self, tmp_path, bank_cfg_file, capsys):
        noise = np.random.default_rng(0).normal(size=1024)
        data, _ = self.write_inputs(tmp_path, noise)
        out = tmp_path / "snr.csv"
        assert run("mf-snr", "--data", data, "--bank-config", bank_cfg_file,
                   "--index", 0, "--seg-len", 4096, "--out", out) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--seg-len must be <= 512" in err
        assert not out.exists()
        assert run("mf-snr", "--data", data, "--bank-config", bank_cfg_file,
                   "--index", 0, "--seg-len", 512, "--out", out) == EXIT_OK

    def test_welch_psd_below_the_band_top_is_not_refused(self, tmp_path, bank_cfg_file):
        # 257-sample segments top out at 128 fs / 257, below the band top
        noise = np.random.default_rng(1).normal(size=1024)
        data, _ = self.write_inputs(tmp_path, noise)
        assert run("mf-snr", "--data", data, "--bank-config", bank_cfg_file, "--index", 0,
                   "--seg-len", 257, "--out", tmp_path / "snr.csv") == EXIT_OK

    def test_peak_within_the_stated_bytes(self, tmp_path, monkeypatch):
        # README: the transform runs beside the PSD alone (4 bytes a sample)
        # in the integrand's buffer (16); pocketfft's scratch is not traced.
        # The traced peak is the template build, 36.7: the strain (8), the
        # PSD (4), the template's two spectra (16), normalized in their own
        # buffer, and the band's |s|^2 that normalizes them (8).  511
        # segments of 1024 fill 15 Welch blocks of 32 and part of a 16th,
        # each an eighth of the series.
        m = 2**18
        (tmp_path / "bank.json").write_text(json.dumps({**BANK_CFG, "m_samples": m}))
        np.random.default_rng(3).normal(size=m).astype("<f8").tofile(tmp_path / "s.f64")
        (tmp_path / "s.f64.json").write_text('{"fs_hz": 512.0}')
        argv = ("mf-snr", "--data", tmp_path / "s.f64", "--bank-config", tmp_path / "bank.json",
                "--index", 5, "--seg-len", 1024, "--out", tmp_path / "o.csv")
        assert run(*argv) == EXIT_OK  # first run: lazy imports are not counted
        at_transform = []
        snr_series = dsp.snr_series

        def transform(*args):
            at_transform.append(tracemalloc.get_traced_memory()[0])
            return snr_series(*args)

        monkeypatch.setattr(dsp, "snr_series", transform)
        tracemalloc.start()
        try:
            assert run(*argv) == EXIT_OK
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert at_transform[0] < 21 * m
        assert peak < 48 * m

    @pytest.mark.parametrize("suffix,m", [
        (".f64", 2**15), (".f64", 2**16), (".csv", 2**15), (".csv", 2**16)],
        ids=["raw-32768", "raw-65536", "csv-32768", "csv-65536"])
    def test_peak_within_the_byte_budget_formula(self, tmp_path, suffix, m):
        # README "Resource limits": the byte budget counts 64 bytes a sample of
        # either format; the CSV reader holds its rows as float64s, 16 bytes a row.
        (tmp_path / "bank.json").write_text(json.dumps({**BANK_CFG, "m_samples": m}))
        strain = np.random.default_rng(3).normal(size=m)
        data = tmp_path / f"s{suffix}"
        if suffix == ".csv":
            data.write_bytes(b"t,strain\n" + io.csv_block([np.arange(m) / 512.0, strain]))
        else:
            strain.astype("<f8").tofile(data)
            (tmp_path / "s.f64.json").write_text('{"fs_hz": 512.0}')
        argv = ("mf-snr", "--data", data, "--bank-config", tmp_path / "bank.json",
                "--index", 5, "--seg-len", 1024, "--out", tmp_path / "o.csv")
        assert run(*argv) == EXIT_OK  # first run: lazy imports are not counted
        tracemalloc.start()
        try:
            assert run(*argv) == EXIT_OK
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * m

    def test_csv_and_raw_strains_give_the_same_bytes(self, tmp_path, bank_cfg_file):
        # The CSV reader keeps each float() as a float64: -0.0, a subnormal and
        # a field that float() reads past an underscore keep the raw file's bits.
        strain = np.random.default_rng(4).normal(size=1024)
        strain[[10, 11, 12]] = -0.0, 5e-324, 10.0
        fields = [repr(s) for s in strain.tolist()]
        fields[12] = "1_0"
        csv = tmp_path / "s.csv"
        csv.write_text("t,strain\n" + "".join(f"{j / 512.0!r},{field}\n"
                                              for j, field in enumerate(fields)))
        raw = tmp_path / "s.f64"
        strain.astype("<f8").tofile(raw)
        (tmp_path / "s.f64.json").write_text('{"fs_hz": 512.0}')
        assert io.read_time_series(csv, 1024).samples.tobytes() == raw.read_bytes()
        outputs = []
        for data in (csv, raw):
            out = tmp_path / f"snr-{data.suffix[1:]}.csv"
            assert run("mf-snr", "--data", data, "--bank-config", bank_cfg_file,
                       "--index", 5, "--out", out) == EXIT_OK
            summary = json.loads(out.with_suffix(".summary.json").read_text())
            del summary["provenance"]
            outputs.append((data_rows(out), summary))
        assert_same(outputs[0][0], outputs[1][0])
        assert outputs[0][1] == outputs[1][1]

    def test_missing_file_exits_2(self, tmp_path, bank_cfg_file):
        assert run("mf-snr", "--data", tmp_path / "absent.csv",
                   "--bank-config", bank_cfg_file, "--index", 0,
                   "--out", tmp_path / "o.csv") == EXIT_INPUT

    def test_malformed_csv_exits_2(self, tmp_path, bank_cfg_file):
        path = tmp_path / "bad.csv"
        path.write_text("t,strain\n0.0,zero\n")
        assert run("mf-snr", "--data", path, "--bank-config", bank_cfg_file,
                   "--index", 0, "--out", tmp_path / "o.csv") == EXIT_INPUT


@pytest.mark.parametrize("cpus", [1, 2], ids=["cpus1", "cpus2"], indirect=True)
def test_no_caller_reads_a_consumed_pair(tmp_path, monkeypatch, cpus):
    """``dsp.complex_template`` consumes its pair, and neither caller reads it after.

    The bank search (7 rows fit its budget, so blocks of 7 and of 3 end in a
    short one) and mf-snr give the same bytes when every row of a pair that
    the template does not hold is NaN once the call returns.
    """
    monkeypatch.setattr(pipeline, "_BLOCK_BYTES", 7 * 64 * BANK_CFG["m_samples"])
    spec = bank.BankSpec.from_config(BANK_CFG)
    psd = dsp.white_psd(spec.m_samples, 1.0 / spec.fs)
    data = dsp.forward_fft(bank.waveform(bank.index_to_params(spec, 27), spec.fs,
                                         spec.m_samples))
    for name, content in _mf_snr_files().items():
        (tmp_path / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    argv = ("mf-snr", "--data", tmp_path / "s.f64", "--bank-config", tmp_path / "bank.json",
            "--index", 5, "--out", tmp_path / "snr.csv")

    def outputs():
        assert run(*argv) == EXIT_OK
        peaks = pipeline._peak_snrs(spec, data, psd, range(bank.bank_size(spec)))
        return peaks.tobytes(), (tmp_path / "snr.csv").read_bytes()

    expected = outputs()
    consume, poisoned = dsp.complex_template, []

    def poisoning(pair, psd, out=None):
        template = consume(pair, psd, out=out)
        for row in pair.bins:
            if not np.may_share_memory(row, template.bins):
                row[...] = np.nan
                poisoned.append(row.shape)
        return template

    monkeypatch.setattr(dsp, "complex_template", poisoning)
    assert outputs() == expected
    assert poisoned  # mf-snr's pair, in this process


class TestInputErrors:
    """Malformed inputs on the bank and mf-snr path: one line, no traceback."""

    def raw_strain(self, tmp_path, sidecar_text):
        raw = tmp_path / "strain.f64"
        np.zeros(BANK_CFG["m_samples"]).astype("<f8").tofile(raw)
        (tmp_path / "strain.f64.json").write_text(sidecar_text)
        return raw

    def mf_snr(self, tmp_path, raw, bank_path):
        return run("mf-snr", "--data", raw, "--bank-config", bank_path, "--index", 0,
                   "--out", tmp_path / "snr.csv")

    def assert_one_line(self, capsys, prefix):
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(prefix)

    def test_sidecar_not_json(self, tmp_path, bank_cfg_file, capsys):
        raw = self.raw_strain(tmp_path, "{fs_hz: 512")
        assert self.mf_snr(tmp_path, raw, bank_cfg_file) == EXIT_INPUT
        self.assert_one_line(capsys, "input error: ")

    def test_sidecar_without_fs(self, tmp_path, bank_cfg_file, capsys):
        raw = self.raw_strain(tmp_path, json.dumps({"t0_s": 0.0}))
        assert self.mf_snr(tmp_path, raw, bank_cfg_file) == EXIT_INPUT
        self.assert_one_line(capsys, "input error: ")

    @pytest.mark.parametrize("sidecar,key", [
        ('{"fs_hz": true}', "'fs_hz' must be a number, got True"),
        ('{"fs_hz": 512.0, "t0": 1.5}', "unknown keys ['t0']")], ids=["bool-rate", "misspelt-t0"])
    def test_sidecar_key_refused_like_a_config_key(self, tmp_path, bank_cfg_file, capsys,
                                                   sidecar, key):
        raw = self.raw_strain(tmp_path, sidecar)
        assert self.mf_snr(tmp_path, raw, bank_cfg_file) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("input error: ") and key in err
        assert not (tmp_path / "snr.csv").exists()

    @pytest.mark.parametrize("t0", ["NaN", "Infinity"])
    def test_sidecar_t0_not_finite(self, tmp_path, bank_cfg_file, capsys, t0):
        raw = self.raw_strain(tmp_path, f'{{"fs_hz": 512.0, "t0_s": {t0}}}')
        assert self.mf_snr(tmp_path, raw, bank_cfg_file) == EXIT_INPUT
        self.assert_one_line(capsys, "input error: ")
        assert not (tmp_path / "snr.csv").exists()

    @pytest.mark.parametrize("fs", ["1e-320", "Infinity"])
    def test_sidecar_sample_spacing_not_finite(self, tmp_path, bank_cfg_file, capsys, fs):
        # 1/fs_hz overflows to inf for a subnormal rate; an infinite one is not finite
        raw = self.raw_strain(tmp_path, f'{{"fs_hz": {fs}}}')
        assert self.mf_snr(tmp_path, raw, bank_cfg_file) == EXIT_INPUT
        self.assert_one_line(capsys, "input error: ")
        assert not (tmp_path / "snr.csv").exists()

    @pytest.mark.parametrize("raw_bytes,code,message", [
        (np.zeros(1024).tobytes() + b"xyz", EXIT_INPUT,
         "input error: 8195 bytes is not a whole number of float64"),
        (np.zeros(1).tobytes(), EXIT_INPUT, "input error: need at least 2 samples"),
        (np.zeros(1023).tobytes(), EXIT_VALIDATION,
         "validation error: data has 1023 samples but the bank expects 1024")],
        ids=["stray-bytes", "one-sample", "wrong-length"])
    def test_raw_strain_not_whole_samples_or_too_short_exits_2(self, tmp_path, bank_cfg_file,
                                                              capsys, monkeypatch, raw_bytes,
                                                              code, message):
        # each is refused from the file's size, before a sample is read; a count
        # other than the bank's exits 4
        def fromfile(*args, **kwargs):
            raise AssertionError("the strain was read")

        monkeypatch.setattr(np, "fromfile", fromfile)
        raw = self.raw_strain(tmp_path, json.dumps({"fs_hz": 512.0}))
        raw.write_bytes(raw_bytes)
        assert self.mf_snr(tmp_path, raw, bank_cfg_file) == code
        err = capsys.readouterr().err
        prefix, text = message.split(": ", 1)
        assert err.count("\n") == 1 and err.startswith(prefix) and text in err
        assert not (tmp_path / "snr.csv").exists()

    @pytest.mark.parametrize("rel,code", [(5e-10, EXIT_OK), (2e-9, EXIT_VALIDATION)],
                             ids=["within", "past"])
    def test_strain_rate_one_tolerance_at_the_read_and_in_the_filter(
            self, tmp_path, bank_cfg_file, capsys, rel, code):
        # a rate the read lets through, the filter's grid check passes too
        raw = self.raw_strain(tmp_path, json.dumps({"fs_hz": 512.0 * (1 + rel)}))
        raw.write_bytes(np.random.default_rng(3).normal(size=1024).astype("<f8").tobytes())
        assert self.mf_snr(tmp_path, raw, bank_cfg_file) == code
        assert ("Hz but the bank at 512.0 Hz" in capsys.readouterr().err) == (code != EXIT_OK)

    def mf_snr_on_csv(self, tmp_path, bank_cfg_file, header, text):
        """mf-snr with ``text`` below ``header`` as its CSV strain or as its CSV PSD."""
        path = tmp_path / "two_columns.csv"
        path.write_text(f"# provenance\n{header}\n{text}")
        if header == "t,strain":
            return self.mf_snr(tmp_path, path, bank_cfg_file)
        raw = self.raw_strain(tmp_path, json.dumps({"fs_hz": 512.0}))
        return run("mf-snr", "--data", raw, "--bank-config", bank_cfg_file, "--index", 0,
                   "--psd", path, "--out", tmp_path / "snr.csv")

    @pytest.mark.parametrize("header", ["t,strain", "f_hz,sn"], ids=["strain", "psd"])
    @pytest.mark.parametrize("row,message", [
        ("1.0,0.5,0.5", "line 6: expected two columns, got 3"),
        ("1.0", "line 6: expected two columns, got 1"),
        ("1.0,zero", "line 6: malformed row (could not convert string to float: 'zero')")],
        ids=["three-fields", "one-field", "not-a-number"])
    def test_csv_row_refused_by_its_line(self, tmp_path, bank_cfg_file, capsys, header, row,
                                         message):
        # lines 1 and 2 are the comment and the header, line 4 is blank
        text = f"0.0,1.0\n\n0.5,1.0\n{row}\n1.5,1.0\n"
        assert self.mf_snr_on_csv(tmp_path, bank_cfg_file, header, text) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("input error: ")
        assert err.endswith(f"two_columns.csv: {message}\n")
        assert not (tmp_path / "snr.csv").exists()

    @pytest.mark.parametrize("header,message", [
        ("t,strain", "need at least 2 samples"), ("f_hz,sn", "need at least 2 PSD bins")],
        ids=["strain", "psd"])
    def test_csv_header_without_rows_is_too_short(self, tmp_path, bank_cfg_file, capsys,
                                                  header, message):
        assert self.mf_snr_on_csv(tmp_path, bank_cfg_file, header, "") == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith(f"two_columns.csv: {message}\n")
        assert not (tmp_path / "snr.csv").exists()

    def test_bank_count_not_a_number(self, tmp_path, capsys):
        raw = self.raw_strain(tmp_path, json.dumps({"fs_hz": 512.0}))
        bank_path = tmp_path / "bank.json"
        bank_path.write_text(json.dumps({**BANK_CFG, "n_f0": "eight"}))
        assert self.mf_snr(tmp_path, raw, bank_path) == EXIT_VALIDATION
        self.assert_one_line(capsys, "validation error: ")

    def test_injection_bank_count_not_a_number(self, tmp_path, capsys):
        cfg = tmp_path / "inject.json"
        cfg.write_text(json.dumps({"bank": {**BANK_CFG, "n_f1": "x"}, "inject_index": 3,
                                   "rho_thr": 5.0, "seed": 1}))
        assert run("detect", "--config", cfg, "--out", tmp_path / "d.json") == EXIT_VALIDATION
        self.assert_one_line(capsys, "validation error: ")

    def test_config_is_a_list(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps([{"n": 64, "r": 2}]))
        assert run("detect", "--config", cfg, "--seed", 1,
                   "--out", tmp_path / "d.json") == EXIT_INPUT
        self.assert_one_line(capsys, "input error: ")

    @pytest.mark.parametrize("text", [
        '{"n": ' + "9" * 5000 + ', "r": 1, "seed": 1}',  # beyond the int digit limit
        "[" * 100_000 + "]" * 100_000])  # beyond the recursion limit
    def test_json_that_python_refuses(self, tmp_path, capsys, text):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(text)
        assert run("detect", "--config", cfg, "--out", tmp_path / "d.json") == EXIT_INPUT
        self.assert_one_line(capsys, "input error: ")

    @pytest.mark.parametrize("f_hz,message", [
        # the spacing doubles after 128 Hz
        (np.concatenate([np.arange(0.0, 128.0, 0.5), np.arange(128.0, 256.5, 1.0)]),
         "not uniformly sampled"),
        (10.0 + 0.5 * np.arange(513), "must start at 0 Hz, got 10.0")])
    def test_psd_off_the_uniform_grid_from_0_hz(self, tmp_path, bank_cfg_file, capsys,
                                                f_hz, message):
        raw = self.raw_strain(tmp_path, json.dumps({"fs_hz": 512.0}))
        psd = tmp_path / "psd.csv"
        io.write_csv(psd, "f_hz,sn", [io.csv_block([f_hz, np.ones(f_hz.size)])], "# psd")
        assert run("mf-snr", "--data", raw, "--bank-config", bank_cfg_file, "--index", 0,
                   "--psd", psd, "--out", tmp_path / "snr.csv") == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("input error: ") and message in err

    @pytest.mark.parametrize("top_hz,code", [
        (128.0, EXIT_INPUT), (255.0, EXIT_INPUT), (255.5, EXIT_OK), (256.0, EXIT_OK)])
    def test_psd_short_of_the_band_top_exits_2(self, tmp_path, bank_cfg_file, capsys,
                                               top_hz, code):
        # 1024 samples at 512 Hz: the analysis band tops out at bin 511, 255.5 Hz
        raw = self.raw_strain(tmp_path, json.dumps({"fs_hz": 512.0}))
        psd = tmp_path / "psd.csv"
        f_hz = 0.5 * np.arange(int(top_hz / 0.5) + 1)
        io.write_csv(psd, "f_hz,sn", [io.csv_block([f_hz, np.ones(f_hz.size)])], "# psd")
        out = tmp_path / "snr.csv"
        assert run("mf-snr", "--data", raw, "--bank-config", bank_cfg_file, "--index", 0,
                   "--psd", psd, "--out", out) == code
        if code == EXIT_INPUT:
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith("input error: ")
            assert f"PSD stops at {top_hz!r} Hz, below the top of the analysis band" in err
            assert not out.exists()

    def test_integral_float_config_accepted(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"n": 64.0, "r": 2.0, "p": 5.0, "seed": 1.0}))
        assert run("detect", "--config", path, "--out", tmp_path / "o.json") == EXIT_OK

    def test_config_is_a_directory(self, tmp_path, capsys):
        cfg = tmp_path / "configs"
        cfg.mkdir()
        assert run("detect", "--config", cfg, "--seed", 1,
                   "--out", tmp_path / "d.json") == EXIT_INPUT
        self.assert_one_line(capsys, "input error: ")

    @pytest.mark.parametrize("command,cfg,key", [
        ("detect", {"n": "abc", "r": 2, "seed": 1}, "'n'"),
        ("detect", {"bank": BANK_CFG, "inject_index": 27, "rho_thr": 10.0,
                    "amplitude": "x", "seed": 1}, "'amplitude'"),
        ("mc-bench", {"n": 64, "r": 2, "max_attempts": "many", "trials": 5, "seed": 1},
         "'max_attempts'"),
        ("detect", {"n": 64, "r": 2, "seed": "one"}, "'seed'"),
        ("retrieve", {"n": 64, "r": 2, "seed": -1}, "seed"),
        ("retrieve", {"n": 64, "r": 2, "strategy": 5, "seed": 1}, "strategy"),
        ("retrieve", {"n": 64, "r": 2, "seed": 1, "max_attempts": 0}, "'max_attempts'"),
        ("detect", {"n": 64.9, "r": 2.7, "seed": 1}, "'n'"),
        ("detect", {"n": 64, "r": True, "seed": 1}, "'r'"),
        # noise_seed is converted, and refused below 0, with or without noise
        ("detect", {"bank": BANK_CFG, "inject_index": 27, "rho_thr": 10.0,
                    "noise_seed": "x", "seed": 1}, "'noise_seed'"),
        ("detect", {"bank": BANK_CFG, "inject_index": 27, "rho_thr": 10.0,
                    "noise_sigma": 1.0, "noise_seed": -1, "seed": 1}, "'noise_seed'"),
        ("detect", {"bank": BANK_CFG, "inject_index": 27, "rho_thr": 10.0,
                    "noise_sigma": -1.0, "seed": 1}, "'noise_sigma'"),
        # trials is read by mc-bench alone, but every command converts it
        ("detect", {"n": 64, "r": 2, "trials": "x", "seed": 1}, "'trials'"),
        # a non-finite amplitude is refused before it scales the waveform
        ("detect", {"bank": BANK_CFG, "inject_index": 27, "rho_thr": 10.0,
                    "amplitude": math.inf, "seed": 1}, "'amplitude'"),
        ("detect", {"bank": BANK_CFG, "inject_index": 27, "rho_thr": 10.0,
                    "amplitude": math.nan, "seed": 1}, "'amplitude'"),
        # so are an infinite threshold and noise that is infinite or overflows
        ("detect", {"bank": BANK_CFG, "inject_index": 27, "rho_thr": math.inf,
                    "seed": 1}, "'rho_thr'"),
        ("detect", {"bank": BANK_CFG, "inject_index": 27, "rho_thr": 10.0,
                    "noise_sigma": math.inf, "seed": 1}, "'noise_sigma'"),
        ("detect", {"bank": BANK_CFG, "inject_index": 27, "rho_thr": 10.0,
                    "noise_sigma": 1e308, "seed": 1}, "'noise_sigma'"),
    ])
    def test_scenario_key_rejected(self, tmp_path, capsys, command, cfg, key):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        assert run(command, "--config", path, "--out", tmp_path / "o.json") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("validation error: ")
        assert key in err

    def test_config_seed_checked_under_the_flag(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"n": 64, "r": 2, "seed": "x"}))
        assert run("detect", "--config", path, "--seed", 1,
                   "--out", tmp_path / "o.json") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == "validation error: config key 'seed' must be a number, got 'x'\n"
        assert not (tmp_path / "o.json").exists()


    @pytest.mark.parametrize("command,cfg,keys", [
        ("detect", {"n": 64, "r": 2, "seed": 1, "stratgy": "recount_each_try",
                    "max_attempt": 0}, "unknown keys ['max_attempt', 'stratgy']"),
        ("detect", {"bank": BANK_CFG, "inject_index": 27, "rho_thr": 10.0,
                    "noise_sigm": 1.0, "seed": 1}, "unknown keys ['noise_sigm']"),
        ("retrieve", {"bank": BANK_CFG, "inject_index": 27, "seed": 1},
         "missing keys ['rho_thr']"),
        ("mc-bench", {"n": 64, "seed": 1, "trials": 5, "p": 5, "extra": 1},
         "missing keys ['r'], unknown keys ['extra']"),
        ("detect", {"bank": {**BANK_CFG, "n_f2": 4}, "inject_index": 27, "rho_thr": 10.0,
                    "seed": 1}, "unknown keys ['n_f2']"),
        ("cw-cost", {"f_khz": 1.0, "t_ob_yr": 2.0}, "unknown keys ['t_ob_yr']"),
    ])
    def test_config_key_typo_exits_4_naming_it(self, tmp_path, capsys, command, cfg, keys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert run(command, "--config", path, "--out", tmp_path / "o.json") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("validation error: ")
        assert keys in err
        assert not (tmp_path / "o.json").exists()

    def test_bank_config_unknown_key_exits_4(self, tmp_path, capsys):
        raw = self.raw_strain(tmp_path, json.dumps({"fs_hz": 512.0}))
        bank_path = tmp_path / "bank.json"
        bank_path.write_text(json.dumps({**BANK_CFG, "n_f2": 8}))
        assert self.mf_snr(tmp_path, raw, bank_path) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("validation error: bank config: ")
        assert "unknown keys ['n_f2']" in err
        assert not (tmp_path / "snr.csv").exists()


class TestRowWriters:
    """The writers' bytes equal those of per-element rows joined one by one."""

    @staticmethod
    def per_element_text(header, rows):
        return "# prov\n" + header + "\n" + "".join(
            ",".join(map(str, row)) + "\n" for row in rows)

    def test_write_snr(self, tmp_path):
        rng = np.random.default_rng(4)
        snr = dsp.SnrSeries(rho=rng.random(5000) * 20.0, dt=1.0 / 4096.0)
        t0 = 1126259462.4
        io.write_snr(tmp_path / "snr.csv", snr, "# prov", t0=t0)
        rows = ((repr(t0 + j * snr.dt), repr(float(v))) for j, v in enumerate(snr.rho))
        assert_same((tmp_path / "snr.csv").read_text(), self.per_element_text("t,rho", rows))

    def test_write_psd(self, tmp_path):
        psd = dsp.Psd(values=np.random.default_rng(5).random(3000), df=1.0 / 7.3)
        write_psd(tmp_path / "psd.csv", psd, "# prov")
        rows = ((repr(k * psd.df), repr(float(v))) for k, v in enumerate(psd.values))
        assert_same((tmp_path / "psd.csv").read_text(), self.per_element_text("f_hz,sn", rows))

    POOLS = pytest.mark.parametrize("pool", [
        [0.0, -0.0, 1.5],
        [math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308],
        # the widest reprs, 24 characters, beside narrow ones
        [-2.2250738585072014e-308, -1.7976931348623157e+308, 0.1, -0.0],
        [7, -3, 0, 2**62, -2**63],
        [2**63 - 1, -2**63, 0, -1, 10, -10],
    ], ids=["signed-zeros", "inf-nan-subnormal", "24-char-reprs", "int", "int64-extremes"])

    @POOLS
    def test_repr_rows_equal_per_element_repr(self, tmp_path, pool):
        # Every block holds every value, so repeats straddle each block
        # boundary, and n is not a multiple of the block.
        n = 2 * io.ROW_BLOCK + 123
        col = np.resize(np.array(pool), n)
        io.write_csv(tmp_path / "x.csv", "j,v",
                     io.repr_rows(n, lambda j: (j, col[j])), "# prov")
        rows = ((repr(j), repr(v)) for j, v in enumerate(col.tolist()))
        assert_same((tmp_path / "x.csv").read_text(), self.per_element_text("j,v", rows))

    @POOLS
    def test_repr_rows_at_every_worker_count(self, tmp_path, cpus, pool):
        self.test_repr_rows_equal_per_element_repr(tmp_path, pool)

    @staticmethod
    def one_repeat(rng, n):
        col = rng.random(n)
        col[-1] = col[n // 3]
        return col

    # Two float columns beside the distinct row index: one with no repeats
    # and one with few distinct values.
    @pytest.mark.parametrize("n, second", [
        (io.ROW_BLOCK, lambda rng, n: np.resize([0.25, -0.0, 0.0], n)),
        (io.ROW_BLOCK, one_repeat),
        (1, lambda rng, n: np.array([-0.0])),
        (io.ROW_BLOCK + 1, lambda rng, n: np.resize([1.5, 2.5], n)),
    ], ids=["mixed", "one-repeat", "n1", "block-plus-one"])
    def test_block_equal_per_element_repr(self, tmp_path, cpus, n, second):
        rng = np.random.default_rng(7)
        a, b = rng.random(n), second(rng, n)
        io.write_csv(tmp_path / "x.csv", "j,a,b",
                     io.repr_rows(n, lambda j: (j, a[j], b[j])), "# prov")
        rows = ((repr(j), repr(x), repr(y))
                for j, (x, y) in enumerate(zip(a.tolist(), b.tolist())))
        assert_same((tmp_path / "x.csv").read_text(), self.per_element_text("j,a,b", rows))

    def test_equal_floats_take_repr_once(self, monkeypatch):
        monkeypatch.setattr(fanout, "cpus", lambda: 1)  # repr runs in this process
        calls = []

        def counted(value):
            calls.append(value)
            return repr(value)

        monkeypatch.setattr(io, "repr", counted, raising=False)
        # the row index is an int column: its digits take no ``repr`` call
        col = np.full(io.ROW_BLOCK, 0.1)
        text = b"".join(io.repr_rows(io.ROW_BLOCK, lambda j: (j, col[j]))).decode()
        assert_same(text, "".join(f"{j},0.1\n" for j in range(io.ROW_BLOCK)))
        assert calls == [0.1]

    def test_repr_rows_hold_a_few_blocks(self, tmp_path, monkeypatch):
        # the parent holds the text a worker sent, not the rows behind it
        monkeypatch.setattr(fanout, "cpus", lambda: 2)
        n = 2**18
        col = np.random.default_rng(6).random(n)
        path = tmp_path / "x.csv"
        io.write_csv(path, "j,v", io.repr_rows(64, lambda j: (j, col[j])), "# prov")  # warm
        tracemalloc.start()
        try:
            io.write_csv(path, "j,v", io.repr_rows(n, lambda j: (j, col[j])), "# prov")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_text = path.stat().st_size * io.ROW_BLOCK / n
        assert peak <= 5 * block_text

    def test_mixed_fields(self, tmp_path):
        rows = [(3, "0110", 0.1), (17, "1000", 2.5e-300)]
        columns = [np.array(c, dtype="S" if isinstance(c[0], str) else None) for c in zip(*rows)]
        io.write_csv(tmp_path / "x.csv", "a,b,c", [io.csv_block(columns)], "# prov")
        assert_same((tmp_path / "x.csv").read_text(), self.per_element_text("a,b,c", rows))


class TestCsvBlock:
    """``io.csv_block`` equals ``str`` of each int and each string, field by field.

    Float columns, and ints at the int64 extremes, are checked through
    ``repr_rows`` in TestRowWriters, across block edges.
    """

    @staticmethod
    def per_element(*columns):
        return "".join(",".join(map(str, row)) + "\n" for row in zip(*columns)).encode()

    @pytest.mark.parametrize("values", [
        [0],
        [0, -1, 1, 9, -9, 10, -10, 99, 100, -100, 12345, -70000],
    ], ids=["zero", "negatives"])
    def test_int_column(self, values):
        col = np.array(values, dtype=np.int64)
        assert io.csv_block([col]) == self.per_element(col.tolist())

    def test_str_column(self):
        col = np.array([b"0110", b"1", b"10000000000000000000000000", b"0"], dtype="S")
        got = io.csv_block([col, np.arange(4)])
        assert got == self.per_element([c.decode() for c in col.tolist()], range(4))

    def test_empty_block(self):
        assert io.csv_block([np.arange(0), np.zeros(0)]) == b""


@pytest.mark.parametrize("command", ["detect", "mf-snr"])
def test_does_not_import_scipy(tmp_path, bank_cfg_file, command):
    if command == "detect":
        cfg = tmp_path / "inject.json"
        cfg.write_text(json.dumps({"bank": BANK_CFG, "inject_index": 27, "rho_thr": 10.0,
                                   "noise_sigma": 1.0, "noise_seed": 2, "seed": 3}))
        argv = ["detect", "--config", cfg, "--out", tmp_path / "d.json"]
    else:  # no --psd, so the PSD is the Welch estimate
        noise = np.random.default_rng(8).normal(size=BANK_CFG["m_samples"])
        lines = ["t,strain"] + [f"{j / BANK_CFG['fs_hz']!r},{v!r}"
                                for j, v in enumerate(noise.tolist())]
        data = tmp_path / "strain.csv"
        data.write_text("\n".join(lines) + "\n")
        argv = ["mf-snr", "--data", data, "--bank-config", bank_cfg_file,
                "--index", 27, "--out", tmp_path / "snr.csv"]
    script = ("import sys; from qmf.cli import main; "
              f"code = main({[str(a) for a in argv]!r}); "
              "print(code, any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=_env_with_src(), check=True).stdout
    assert out.split()[-2:] == ["0", "False"]


def test_fanned_out_detect_imports_no_pool(tmp_path):
    cfg = tmp_path / "inject.json"
    cfg.write_text(json.dumps({"bank": BANK_CFG, "inject_index": 27, "rho_thr": 10.0,
                               "noise_sigma": 1.0, "noise_seed": 2, "seed": 3}))
    argv = ["detect", "--config", str(cfg), "--out", str(tmp_path / "d.json")]
    # 2 CPUs and a 16-row budget: the 64-template search runs in 8 blocks on 2 workers
    script = ("import os, sys; from qmf import fanout, pipeline; from qmf.cli import main; "
              "fanout.cpus = lambda: 2; pipeline._BLOCK_BYTES = 16 * 64 * 1024; "
              "forks = []; os.register_at_fork(after_in_parent=lambda: forks.append(1)); "
              f"code = main({argv!r}); "
              "print(len(forks), code, any(m.split('.')[0] in ('multiprocessing', 'concurrent') "
              "for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=_env_with_src(), check=True).stdout
    assert out.split()[-3:] == ["2", "0", "False"]


# Prints the qmf layers whose body has run after ``import qmf.cli``, then,
# given a command line, after the command.  A layer not yet loaded is a
# lazy module, not a plain ``types.ModuleType``.
_RAN_LAYERS = """
import sys, types
import qmf.cli

def ran():
    return " ".join(sorted(k.removeprefix("qmf.") for k, m in sys.modules.items()
                           if k.startswith("qmf.") and type(m) is types.ModuleType))

layers = ("amplify", "bank", "cw", "dsp", "pipeline", "qsim")
assert all(sys.modules[f"qmf.{name}"] is getattr(qmf.cli, name) for name in layers)
print(ran())
if sys.argv[1:]:
    assert qmf.cli.main(sys.argv[1:]) == 0
    print(ran())
"""


class TestLayerLoading:
    """A command runs the bodies of only the layers it uses."""

    @staticmethod
    def ran(tmp_path, *argv):
        """The layers run after the import, and after the command (its own line between)."""
        out = subprocess.run([sys.executable, "-c", _RAN_LAYERS, *map(str, argv)],
                             capture_output=True, text=True, cwd=tmp_path,
                             env=_env_with_src(), check=True).stdout.splitlines()
        return set(out[0].split()), set(out[-1].split())

    def test_import_runs_no_layer(self, tmp_path):
        after_import, _ = self.ran(tmp_path)
        assert after_import == {"cli", "errors", "fanout", "io"}

    def test_qsim_search_runs_only_qsim(self, tmp_path):
        _, after = self.ran(tmp_path, "qsim-search", "--data-bits", "0110", "--iterations", 1,
                            "--seed", 1, "--out", "s.csv")
        assert after == {"cli", "errors", "fanout", "io", "qsim"}

    def test_synthetic_detect_runs_neither_qsim_nor_cw(self, tmp_path):
        (tmp_path / "scenario.json").write_text(json.dumps({"n": 64, "r": 2, "seed": 1}))
        _, after = self.ran(tmp_path, "detect", "--config", "scenario.json", "--out", "d.json")
        assert after == {"cli", "errors", "fanout", "io", "pipeline", "amplify", "seeding"}

    @pytest.mark.parametrize("command", ["retrieve", "mc-bench"])
    def test_synthetic_scenario_runs_neither_bank_nor_dsp(self, tmp_path, command):
        (tmp_path / "scenario.json").write_text(json.dumps({"n": 64, "r": 2, "seed": 1,
                                                            "trials": 3}))
        _, after = self.ran(tmp_path, command, "--config", "scenario.json", "--out", "o.json")
        # retrieve draws from seeding's stream; mc-bench's one span of 3 trials runs
        # in this process, and seeds its trials
        assert after == {"cli", "errors", "fanout", "io", "pipeline", "amplify", "seeding"}

    def test_injection_detect_runs_bank_and_dsp(self, tmp_path):
        (tmp_path / "scenario.json").write_text(json.dumps(
            {"bank": BANK_CFG, "inject_index": 27, "rho_thr": 10.0, "seed": 1}))
        _, after = self.ran(tmp_path, "detect", "--config", "scenario.json", "--out", "d.json")
        assert after == {"cli", "errors", "fanout", "io", "pipeline", "amplify", "bank", "dsp",
                         "seeding"}

    def test_fail_bound_loads_amplify_before_its_workers(self, tmp_path):
        script = ("import sys, types; from qmf import fanout; from qmf.cli import main; "
                  "fan_out, seen = fanout.fan_out, []; "
                  "fanout.fan_out = lambda fn, items: seen.append("
                  "type(sys.modules['qmf.amplify']) is types.ModuleType) or fan_out(fn, items); "
                  "code = main(['fail-bound', '--r-max', '2', '--out', 'b.csv']); "
                  "print(code, seen)")
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             cwd=tmp_path, env=_env_with_src(), check=True).stdout
        assert out.splitlines()[-1] == "0 [True]"

    def test_an_imported_layer_is_kept(self, tmp_path):
        script = ("import sys, types; import qmf.pipeline as before; import qmf.cli; "
                  "print(sys.modules['qmf.pipeline'] is before is qmf.cli.pipeline, "
                  "type(sys.modules['qmf.qsim']) is types.ModuleType)")
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=_env_with_src(), check=True).stdout
        assert out.split() == ["True", "False"]


# Runs a command line with ``fanout.cpus`` at argv[1].  Each unit of work the
# command fans out, in a worker or in this process, writes to stderr whether
# numpy.random is loaded once it is done; then the process prints its exit
# code and the same.
_LOADS_NUMPY_RANDOM = """
import os, sys
from qmf import fanout
from qmf.cli import main

fan_out = fanout.fan_out

def reporting(fn):
    def run(item):
        result = fn(item)
        os.write(2, f"unit {'numpy.random' in sys.modules}\\n".encode())
        return result
    return run

fanout.cpus = lambda: int(sys.argv[1])
fanout.fan_out = lambda fn, items, workers=None: fan_out(reporting(fn), items, workers)
print(main(sys.argv[2:]), "numpy.random" in sys.modules)
"""


class TestNumpyRandomLoading:
    """numpy.random (about 6 MB of RSS) loads only for a vector or a non-uniform draw."""

    @staticmethod
    def loaded(tmp_path, cpus, *argv):
        """The exit code and whether the process loaded numpy.random; what each unit saw."""
        proc = subprocess.run([sys.executable, "-c", _LOADS_NUMPY_RANDOM, str(cpus),
                               *map(str, argv)], capture_output=True, text=True, cwd=tmp_path,
                              env=_env_with_src(), check=True)
        units = [line.split()[1] for line in proc.stderr.splitlines() if line.startswith("unit ")]
        return proc.stdout.split()[-2:], units

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("command", ["detect", "retrieve", "mc-bench"])
    def test_synthetic_scenario_never_loads_it(self, tmp_path, command, cpus):
        # 1000 trials are two spans: at 2 CPUs each runs in its own worker
        (tmp_path / "scenario.json").write_text(json.dumps(
            {"n": 2**17, "r": 9, "p": 11, "seed": 1, "trials": 1000}))
        loaded, units = self.loaded(tmp_path, cpus, command, "--config", "scenario.json",
                                    "--out", "o.json")
        assert loaded == ["0", "False"]
        assert units == (["False", "False"] if command == "mc-bench" else [])

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_injection_noise_loads_it(self, tmp_path, cpus):
        (tmp_path / "scenario.json").write_text(json.dumps(
            {"bank": BANK_CFG, "inject_index": 27, "rho_thr": 10.0, "noise_sigma": 1.0,
             "noise_seed": 2, "seed": 3}))
        loaded, _ = self.loaded(tmp_path, cpus, "detect", "--config", "scenario.json",
                                "--out", "d.json")
        assert loaded == ["0", "True"]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_qsim_shots_load_it(self, tmp_path, cpus):
        loaded, _ = self.loaded(tmp_path, cpus, "qsim-search", "--data-bits", "0110",
                                "--iterations", 1, "--seed", 1, "--out", "s.csv")
        assert loaded == ["0", "True"]


class TestBlasThreads:
    """No command calls BLAS, so the CLI asks OpenBLAS for one thread unless told otherwise."""

    # the variable and the threads of a fresh interpreter after ``import qmf.cli``
    SCRIPT = ("import os, qmf.cli; "
              "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') "
              "else 1; print(os.environ.get('OPENBLAS_NUM_THREADS'), tasks)")

    def after_import(self, **preset):
        env = {k: v for k, v in _env_with_src().items() if k != "OPENBLAS_NUM_THREADS"}
        return subprocess.run([sys.executable, "-c", self.SCRIPT], capture_output=True,
                              text=True, env={**env, **preset}, check=True).stdout.split()

    def test_one_thread_by_default(self):
        assert self.after_import() == ["1", "1"]

    def test_a_preset_value_is_kept(self):
        assert self.after_import(OPENBLAS_NUM_THREADS="2")[0] == "2"


class TestCountDist:
    def test_peaks_for_reference_case(self, tmp_path):
        out = tmp_path / "dist.csv"
        assert run("count-dist", "--n-templates", 64, "--matches", 2,
                   "--p", 5, "--out", out) == EXIT_OK
        rows = data_rows(out)[1:]
        table = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
        top2 = sorted(table, key=table.get)[-2:]
        assert set(top2) == {2, 30}

    def test_no_match_single_row(self, tmp_path):
        out = tmp_path / "dist.csv"
        assert run("count-dist", "--n-templates", 64, "--matches", 0,
                   "--p", 5, "--out", out) == EXIT_OK
        rows = data_rows(out)[1:]
        assert rows == ["0,1.0"]

    def test_large_bank_normalized(self, tmp_path):
        out = tmp_path / "dist.csv"
        assert run("count-dist", "--n-templates", 131072, "--matches", 9,
                   "--p", 11, "--out", out) == EXIT_OK
        total = sum(float(r.split(",")[1]) for r in data_rows(out)[1:])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_auto_p(self, tmp_path):
        out = tmp_path / "dist.csv"
        assert run("count-dist", "--n-templates", 1024, "--matches", 1,
                   "--out", out) == EXIT_OK
        assert len(data_rows(out)) - 1 == 128  # p=7

    # the writer formats only the lower half and mirrors it; at p = 14
    # the mirrored rows cross the edges of the 4096-row blocks, at p = 13
    # the last lower-half block holds the one row b = 2**12, and at r = 0
    # every row but b = 0 is an exact zero and is omitted
    CASES = pytest.mark.parametrize("n,r,p", [(64, 2, 5), (131072, 9, 11), (64, 0, 5),
                                              (4, 1, 1), (2**20, 7, 14), (2**20, 7, 13)])

    @CASES
    def test_rows_equal_per_element_repr(self, tmp_path, n, r, p):
        out = tmp_path / "dist.csv"
        assert run("count-dist", "--n-templates", n, "--matches", r,
                   "--p", p, "--out", out) == EXIT_OK
        probs = amplify.counting_distribution(n, r, p).probs
        expected = ["b,probability"] + [f"{b},{float(v)!r}" for b, v in enumerate(probs)
                                        if v > 0.0]
        assert_same(data_rows(out), expected)

    @CASES
    def test_rows_at_every_worker_count(self, tmp_path, cpus, n, r, p):
        self.test_rows_equal_per_element_repr(tmp_path, n, r, p)

    @pytest.mark.parametrize("r,p,code", [(2, 28, EXIT_CAP), (2, 0, EXIT_VALIDATION),
                                          (65, 5, EXIT_VALIDATION)])
    def test_refused_before_any_worker(self, tmp_path, capsys, monkeypatch, r, p, code):
        def no_workers(fn, items):
            raise AssertionError("workers started")

        monkeypatch.setattr(fanout, "fan_out", no_workers)
        assert run("count-dist", "--n-templates", 64, "--matches", r, "--p", p,
                   "--out", tmp_path / "dist.csv") == code
        err = capsys.readouterr().err
        prefix = "resource cap: " if code == EXIT_CAP else "validation error: "
        assert err.count("\n") == 1 and err.startswith(prefix)
        assert os.listdir(tmp_path) == []

    def test_peak_does_not_grow_with_p(self, tmp_path):
        # the mirrored rows wait in a spill file, so p = 18 (32 lower-half
        # blocks) holds about what p = 14 (3 blocks) does
        def peak(p):
            tracemalloc.start()
            try:
                assert run("count-dist", "--n-templates", 2**38, "--matches", 1000,
                           "--p", p, "--out", tmp_path / "dist.csv") == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(14)  # first run: lazy imports are not counted
        assert peak(18) <= peak(14) + (1 << 20)

    def test_leaves_only_the_output(self, tmp_path):
        assert run("count-dist", "--n-templates", 2**20, "--matches", 7,
                   "--p", 14, "--out", tmp_path / "dist.csv") == EXIT_OK
        assert os.listdir(tmp_path) == ["dist.csv"]

    # p = 15 has lower-half blocks 0..4; block 3 is the last one with
    # mirrored rows, so the spill file holds nearly every mirrored row
    @pytest.mark.parametrize("failing_block", [1, 3])
    def test_failed_write_leaves_the_prior_output(self, tmp_path, capsys, monkeypatch,
                                                  failing_block):
        out = tmp_path / "dist.csv"
        out.write_text("prior\n")
        outcome_probs = amplify.outcome_probs

        def failing(n, r, p, start, stop):
            if start == failing_block * io.ROW_BLOCK:
                raise OSError("No space left on device")
            return outcome_probs(n, r, p, start, stop)

        monkeypatch.setattr(amplify, "outcome_probs", failing)
        assert run("count-dist", "--n-templates", 2**20, "--matches", 7,
                   "--p", 15, "--out", out) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("input error: ")
        assert out.read_text() == "prior\n"
        assert os.listdir(tmp_path) == ["dist.csv"]

    @pytest.mark.parametrize("failing_block", [1, 3])
    def test_failed_write_at_every_worker_count(self, tmp_path, capsys, monkeypatch, cpus,
                                                failing_block):
        self.test_failed_write_leaves_the_prior_output(tmp_path, capsys, monkeypatch,
                                                       failing_block)

    def test_peak_rss_stays_below_the_large_detect(self, tmp_path):
        # count-dist holds one block in each process, the parent and its
        # workers alike; ru_maxrss from os.wait4 is the largest of them.
        # detect at p = 24 draws from 2**16-outcome chunks.  A job's peak
        # counts the RSS of the process that starts it, so a small one does.
        (tmp_path / "large.json").write_text(json.dumps({"n": 2**44, "r": 1000, "seed": 5}))
        starter = ("import os, subprocess, sys; "
                   "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL); "
                   "_, status, usage = os.wait4(proc.pid, 0); "
                   "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")

        def peak_kb(*argv):
            out = subprocess.run([sys.executable, "-c", starter, sys.executable, "-m",
                                  "qmf.cli", *map(str, argv)], cwd=tmp_path,
                                 env=_env_with_src(), capture_output=True, text=True,
                                 check=True).stdout
            code, peak = map(int, out.split())
            assert code == EXIT_OK
            return peak

        detect = peak_kb("detect", "--config", "large.json", "--out", "d.json")
        assert peak_kb("count-dist", "--n-templates", 2**38, "--matches", 1000,
                       "--p", 21, "--out", "dist.csv") < detect


class TestQsim:
    def test_count_modal_outcome(self, tmp_path):
        out = tmp_path / "shots.csv"
        assert run("qsim-count", "--data-bits", "000110", "--ignored", 1,
                   "--p", 5, "--shots", 2048, "--seed", 17, "--out", out) == EXIT_OK
        rows = data_rows(out)[1:]
        counts = {r.split(",")[0]: int(r.split(",")[1]) for r in rows}
        modal = max(counts, key=counts.get)
        assert int(modal, 2) in (2, 30)
        marginal = data_rows(tmp_path / "shots.marginal.csv")[1:]
        assert len(marginal) == 32

    def test_search_recovers_pair(self, tmp_path):
        out = tmp_path / "shots.csv"
        assert run("qsim-search", "--data-bits", "000110", "--ignored", 1,
                   "--iterations", 4, "--shots", 2048, "--seed", 17,
                   "--out", out) == EXIT_OK
        rows = data_rows(out)[1:]
        counts = {r.split(",")[0]: int(r.split(",")[1]) for r in rows}
        hits = counts.get("000110", 0) + counts.get("000111", 0)
        sigma = math.sqrt(0.999 * 0.001 / 2048)
        assert hits / 2048 > 0.99 - 3 * sigma

    def test_single_shot_single_row(self, tmp_path):
        out = tmp_path / "shots.csv"
        assert run("qsim-search", "--data-bits", "0011", "--ignored", 0,
                   "--iterations", 0, "--shots", 1, "--seed", 3,
                   "--out", out) == EXIT_OK
        assert len(data_rows(out)) - 1 == 1

    @pytest.mark.parametrize("command,flags,outcomes", [
        ("qsim-count", ("--p", 3), 8), ("qsim-search", ("--iterations", 1), 16)])
    def test_marginal_out_replaces_the_derived_path(self, tmp_path, command, flags, outcomes):
        marginal = tmp_path / "probs.csv"
        assert run(command, "--data-bits", "0101", *flags, "--seed", 1,
                   "--out", tmp_path / "shots.csv", "--marginal-out", marginal) == EXIT_OK
        rows = data_rows(marginal)
        assert rows[0] == "outcome_int,probability" and len(rows) == 1 + outcomes
        assert not (tmp_path / "shots.marginal.csv").exists()

    def test_cap_exceeded_exits_3(self, tmp_path, capsys):
        assert run("qsim-count", "--data-bits", "0" * 22, "--p", 8,
                   "--shots", 1, "--seed", 1, "--cap", 26,
                   "--out", tmp_path / "x.csv") == EXIT_CAP
        assert capsys.readouterr().err == ("resource cap: a state of 2**30 amplitudes needs "
                                           "17179869184 bytes, over the budget of 1073741824\n")
        # a negative cap is a budget of 0 bytes, not a shift by a negative count
        assert run("qsim-count", "--data-bits", "01", "--p", 1, "--seed", 1, "--cap", -3,
                   "--out", tmp_path / "x.csv") == EXIT_CAP
        assert capsys.readouterr().err == ("resource cap: a state of 2**3 amplitudes needs "
                                           "128 bytes, over the budget of 0\n")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command,flags", [
        ("qsim-count", ("--p", 1)), ("qsim-search", ("--iterations", 0))],
        ids=["count", "search"])
    def test_cap_beyond_the_addressable_exits_3(self, tmp_path, capsys, command, flags):
        # 2**62 amplitudes are 2**66 bytes, more than an array can address; the
        # check counts a state past 2**58 amplitudes as 2**59, and the cap as 2**58
        assert run(command, "--data-bits", "1" * 62, *flags, "--seed", 0, "--cap", 100,
                   "--out", tmp_path / "s.csv") == EXIT_CAP
        assert capsys.readouterr().err == (
            "resource cap: a state of over 2**58 amplitudes needs 9223372036854775808 bytes, "
            "over the budget of 4611686018427387904\n")
        assert not (tmp_path / "s.csv").exists()
        # a cap far past the addressable is clamped before it is shifted
        assert run(command, "--data-bits", "0101", *flags, "--seed", 0, "--cap", 10**18,
                   "--out", tmp_path / "s.csv") == EXIT_OK

    @pytest.mark.parametrize("message", ["Unable to allocate 64.0 GiB", ""],
                             ids=["numpy-message", "bare"])
    def test_out_of_memory_exits_3(self, tmp_path, capsys, monkeypatch, message):
        def full(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(qsim.np, "full", full)
        assert run("qsim-search", "--data-bits", "0101", "--iterations", 1, "--seed", 0,
                   "--out", tmp_path / "s.csv") == EXIT_CAP
        err = capsys.readouterr().err
        assert err == f"resource cap: {message or 'out of memory'}\n"
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("command,flags,flag", [
        ("qsim-count", ("--p", 0), "--p"),
        ("qsim-count", ("--p", -2), "--p"),
        ("qsim-count", ("--p", 5, "--shots", 0), "--shots"),
        ("qsim-search", ("--iterations", -1), "--iterations"),
        ("qsim-search", ("--iterations", 2, "--shots", 0), "--shots"),
        ("qsim-count", ("--p", 5, "--seed", -1), "--seed"),
        ("qsim-search", ("--iterations", 1, "--seed", -1), "--seed"),
    ])
    def test_bad_flag_exits_4_naming_it(self, tmp_path, capsys, command, flags, flag):
        # a --seed among the flags overrides the valid one before them
        assert run(command, "--data-bits", "000110", "--seed", 1, *flags,
                   "--out", tmp_path / "x.csv") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{flag} must be >=" in err
        assert not (tmp_path / "x.csv").exists()

    def test_cli_runs_the_template_vector_path(self, tmp_path, monkeypatch):
        from qmf import qsim

        def refuse(*args, **kwargs):
            raise AssertionError("gate-level reference reached from the CLI")

        for name in ("controlled_grover_powers", "string_oracle", "grover_iteration",
                     "init_state", "inverse_qft"):
            monkeypatch.setattr(qsim, name, refuse)
        assert run("qsim-count", "--data-bits", "000110", "--ignored", 1, "--p", 5,
                   "--seed", 1, "--out", tmp_path / "c.csv") == EXIT_OK
        assert run("qsim-search", "--data-bits", "000110", "--ignored", 1,
                   "--iterations", 4, "--seed", 1, "--out", tmp_path / "s.csv") == EXIT_OK

    @pytest.mark.parametrize("command,flags", [
        ("qsim-count", ("--p", 5)), ("qsim-search", ("--iterations", 4))])
    def test_one_marginal_built_after_the_state_is_released(self, tmp_path, monkeypatch,
                                                            command, flags):
        from qmf import qsim

        states, marginals, snapshots = [], [], []
        make = {"qsim-count": "counting_state", "qsim-search": "search_state"}[command]
        original_make, original_marginal = getattr(qsim, make), qsim.marginal_probs
        original_measure = qsim.measure

        def making(*args, **kwargs):
            state = original_make(*args, **kwargs)
            states.append(weakref.ref(state))
            return state

        def marginal(*args):
            marginals.append(original_marginal(*args))
            snapshots.append(marginals[-1].copy())  # the draw normalizes the marginal in place
            return marginals[-1]

        def measure(probs, *args):
            assert states[0]() is None, "the state is alive while sampling"
            assert probs is marginals[0]
            return original_measure(probs, *args)

        monkeypatch.setattr(qsim, make, making)
        monkeypatch.setattr(qsim, "marginal_probs", marginal)
        monkeypatch.setattr(qsim, "measure", measure)
        out = tmp_path / "shots.csv"
        assert run(command, "--data-bits", "000110", "--ignored", 1, *flags,
                   "--seed", 1, "--out", out) == EXIT_OK
        assert len(marginals) == 1
        written = [float(r.split(",")[1]) for r in data_rows(tmp_path / "shots.marginal.csv")[1:]]
        assert written == snapshots[0].tolist()

    @pytest.mark.parametrize("command,flags", [
        ("qsim-count", ("--data-bits", "0" * 10, "--p", 8)),
        ("qsim-search", ("--data-bits", "0" * 18, "--iterations", 4))])
    def test_peak_within_the_stated_bytes(self, tmp_path, command, flags):
        # README: search holds 24 bytes an amplitude (the state and its
        # marginal), then 16 (the marginal, normalised in place, and the
        # counts); counting holds the state and its small marginal.  Both
        # also hold one block of the marginal reduction.
        from qmf import qsim

        block = 8 << qsim._BLOCK_LOG2
        stated = {"qsim-count": (16 << 18) + (8 << 8), "qsim-search": 24 << 18}[command]
        argv = (command, *flags, "--seed", 1, "--out", tmp_path / "o.csv")
        assert run(*argv) == EXIT_OK  # first run: lazy imports are not counted
        tracemalloc.start()
        try:
            assert run(*argv) == EXIT_OK
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * (stated + block)

    def test_search_draw_holds_the_marginal_and_the_counts(self, tmp_path, monkeypatch):
        # README: the draw holds 16 bytes an amplitude, the marginal normalised
        # in place and the int64 counts, where a normalised copy made it 24
        from qmf import qsim

        n, peaks = 18, []
        measure = qsim.measure

        def traced(*args):
            tracemalloc.reset_peak()
            counts = measure(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return counts

        monkeypatch.setattr(qsim, "measure", traced)
        argv = ("qsim-search", "--data-bits", "0" * n, "--iterations", 4, "--seed", 1,
                "--out", tmp_path / "o.csv")
        assert run(*argv) == EXIT_OK  # first run: lazy imports are not counted
        tracemalloc.start()
        try:
            assert run(*argv) == EXIT_OK
        finally:
            tracemalloc.stop()
        assert peaks[-1] <= (16 << n) + (128 << 10)

    def test_seed_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "shots.csv"
        args = ("qsim-count", "--data-bits", "000110", "--ignored", 1,
                "--p", 5, "--shots", 512, "--seed", 7, "--out", out)
        assert run(*args) == EXIT_OK
        first = out.read_bytes()
        assert run(*args) == EXIT_OK
        assert_same(out.read_bytes(), first)


class TestMcBench:
    def scenario(self, tmp_path, **overrides):
        cfg = {"n": 4096, "r": 3, "p": 8, "strategy": "reuse_k",
               "trials": 200, "seed": 11}
        cfg.update(overrides)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_summary_and_histogram(self, tmp_path):
        cfg = self.scenario(tmp_path)
        out = tmp_path / "mc.json"
        assert run("mc-bench", "--config", cfg, "--out", out) == EXIT_OK
        summary = json.loads(out.read_text())
        assert summary["trials"] == 200
        assert summary["classical_evals"] == 4096
        assert summary["mean"] < 4096
        hist_rows = data_rows(tmp_path / "mc.hist.csv")[1:]
        assert sum(int(r.split(",")[1]) for r in hist_rows) == 200

    def test_summary_keys_in_output_order(self, tmp_path):
        out = tmp_path / "mc.json"
        assert run("mc-bench", "--config", self.scenario(tmp_path, trials=20),
                   "--out", out) == EXIT_OK
        summary = json.loads(out.read_text())
        assert list(summary) == ["provenance", "trials", "mean", "median", "stddev",
                                 "n_failed", "classical_evals", "histogram"]
        assert list(summary["histogram"][0]) == ["evals", "count"]

    def test_histogram_beside_out_in_a_dotted_directory(self, tmp_path):
        cfg = self.scenario(tmp_path, trials=20)
        outdir = tmp_path / "res.json.d"
        outdir.mkdir()
        assert run("mc-bench", "--config", cfg, "--out", outdir / "mc.json") == EXIT_OK
        assert sorted(p.name for p in outdir.iterdir()) == ["mc.hist.csv", "mc.json"]

    def test_hist_out_replaces_the_derived_path(self, tmp_path):
        hist = tmp_path / "evals.csv"
        assert run("mc-bench", "--config", self.scenario(tmp_path, trials=20),
                   "--out", tmp_path / "mc.json", "--hist-out", hist) == EXIT_OK
        assert sum(int(r.split(",")[1]) for r in data_rows(hist)[1:]) == 20
        assert not (tmp_path / "mc.hist.csv").exists()

    def test_trials_flag_overrides_the_config(self, tmp_path):
        out = tmp_path / "mc.json"
        assert run("mc-bench", "--config", self.scenario(tmp_path, trials=20),
                   "--trials", 7, "--out", out) == EXIT_OK
        assert json.loads(out.read_text())["trials"] == 7

    def test_zero_trials_exits_4(self, tmp_path):
        cfg = self.scenario(tmp_path, trials=0)
        assert run("mc-bench", "--config", cfg,
                   "--out", tmp_path / "mc.json") == EXIT_VALIDATION

    def test_no_match_exits_4(self, tmp_path, capsys):
        cfg = self.scenario(tmp_path, r=0)
        assert run("mc-bench", "--config", cfg,
                   "--out", tmp_path / "mc.json") == EXIT_VALIDATION
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "mc.json").exists()

    def test_missing_seed_exits_4(self, tmp_path):
        cfg_path = tmp_path / "s.json"
        cfg_path.write_text(json.dumps({"n": 64, "r": 2, "trials": 5}))
        assert run("mc-bench", "--config", cfg_path,
                   "--out", tmp_path / "mc.json") == EXIT_VALIDATION

    def test_seed_rerun_identical(self, tmp_path):
        cfg = self.scenario(tmp_path, trials=150)
        out = tmp_path / "mc.json"
        assert run("mc-bench", "--config", cfg, "--out", out) == EXIT_OK
        first = out.read_bytes()
        hist_first = (tmp_path / "mc.hist.csv").read_bytes()
        assert run("mc-bench", "--config", cfg, "--out", out) == EXIT_OK
        assert_same(out.read_bytes(), first)
        assert_same((tmp_path / "mc.hist.csv").read_bytes(), hist_first)


class TestFailBound:
    def test_sweep(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert run("fail-bound", "--r-max", 3, "--out", out) == EXIT_OK
        rows = data_rows(out)[1:]
        assert len(rows) == 3
        r1 = float(rows[0].split(",")[2])
        assert r1 == pytest.approx(0.453, abs=0.002)
        assert all(float(r.split(",")[2]) <= 0.455 for r in rows)

    def test_bad_rmax_exits_4(self, tmp_path, capsys):
        assert run("fail-bound", "--r-max", 0,
                   "--out", tmp_path / "b.csv") == EXIT_VALIDATION
        assert capsys.readouterr().err == "validation error: --r-max must be >= 1, got 0\n"

    def test_rmax_above_cap_exits_3_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_work(r):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(amplify, "max_fail_bound_argmax", no_work)
        assert run("fail-bound", "--r-max", 100_000_000,
                   "--out", tmp_path / "b.csv") == EXIT_CAP
        err = capsys.readouterr().err
        assert err == "resource cap: --r-max 100000000 exceeds the cap of 10000\n"
        assert not (tmp_path / "b.csv").exists()

    def test_rows_at_every_worker_count(self, tmp_path, cpus):
        out = tmp_path / "bounds.csv"
        assert run("fail-bound", "--r-max", 7, "--out", out) == EXIT_OK
        rows = [(r, *amplify.max_fail_bound_argmax(r)) for r in range(1, 8)]
        assert_same(data_rows(out), ["r,eps_p_argmax,max_bound"] + [
            f"{r},{x!r},{y!r}" for r, x, y in rows])


class TestCwCost:
    def test_defaults(self, tmp_path):
        out = tmp_path / "cw.json"
        assert run("cw-cost", "--out", out) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["ell"] == 6
        assert 0.5e8 <= report["speedup"] <= 2e8

    def test_tighter_target(self, tmp_path):
        cfg = tmp_path / "cw.json"
        cfg.write_text(json.dumps({"delta_target": 1e-9}))
        out = tmp_path / "report.json"
        assert run("cw-cost", "--config", cfg, "--out", out) == EXIT_OK
        assert json.loads(out.read_text())["ell"] == 9

    @pytest.mark.parametrize("cfg", [
        {"f_khz": "x"}, {"f_khz": None}, {"f_khz": 1e308, "t_obs_yr": 1e308},
        {"f_khz": float("inf")}])
    def test_malformed_config_exits_4_with_one_line(self, tmp_path, capsys, cfg):
        path = tmp_path / "cw.json"
        path.write_text(json.dumps(cfg))
        assert run("cw-cost", "--config", path,
                   "--out", tmp_path / "r.json") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("validation error: ")
        assert not (tmp_path / "r.json").exists()

    def test_boolean_exits_4_naming_the_key(self, tmp_path, capsys):
        path = tmp_path / "cw.json"
        path.write_text(json.dumps({"f_khz": True}))
        assert run("cw-cost", "--config", path,
                   "--out", tmp_path / "r.json") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("validation error: ")
        assert "'f_khz'" in err

    def test_subnormal_target_exits_4_with_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "cw.json"
        cfg.write_text(json.dumps({"delta_target": 5e-324}))
        assert run("cw-cost", "--config", cfg,
                   "--out", tmp_path / "o.json") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "1/target finite" in err

    def test_negative_span_exits_4(self, tmp_path):
        cfg = tmp_path / "cw.json"
        cfg.write_text(json.dumps({"t_obs_yr": -2.0}))
        assert run("cw-cost", "--config", cfg,
                   "--out", tmp_path / "r.json") == EXIT_VALIDATION


def _json_with(cfg, key, literal):
    """``cfg`` as JSON text with ``key`` written as the JSON literal ``literal`` (NaN, 1e400)."""
    return json.dumps({**cfg, key: "@"}).replace('"@"', literal)


def _mf_snr_files(bank=json.dumps(BANK_CFG), strain=1.0, sidecar='{"fs_hz": 512.0}', **more):
    """mf-snr's inputs: the bank, noise strain times ``strain`` and its sidecar, and ``more``."""
    noise = np.random.default_rng(3).normal(size=BANK_CFG["m_samples"]) * strain
    return {"bank.json": bank, "s.f64": noise.astype("<f8").tobytes(), "s.f64.json": sidecar,
            **more}


_MF_SNR = ["mf-snr", "--data", "s.f64", "--bank-config", "bank.json", "--index", 5]
_INJECTION = {"bank": BANK_CFG, "inject_index": 27, "rho_thr": 10.0, "seed": 1}
_SYNTHETIC = {"c.json": json.dumps({"n": 64, "r": 2, "seed": 1, "trials": 3})}
_TINY_PSD = io.csv_block([0.5 * np.arange(513), np.full(513, 5e-324)])


def _refusals():
    """(cpus, input files, argv, exit code, what the line names) of each input refused.

    Every config float that is not finite, each overflow of a result, a
    strain or PSD file's value that its value type refuses, a strain's
    sample count or rate that is not the bank's, an mf-snr index outside
    the bank, the int64
    bounds on the lattice and the trial count, and for every
    command that writes an output in a missing directory, an empty output
    path, an output path, given or derived beside ``--out``, that names a
    directory (a ``None`` file), a second output that names the file of
    ``--out`` or sits in a missing directory, and a write that names a
    file the call reads, by a ``./``, a symbolic-link or a hard-link alias
    too (an ``(os.symlink or os.link, target)`` file), and a read or a write
    whose path holds a NUL byte or cannot be encoded.  The injections that
    overflow run on 1, 2 and 3 CPUs: the search's workers fork inside
    the command's ``np.errstate``.
    """
    config = ["--config", "c.json"]
    for value in ("Infinity", "NaN", "1e400"):
        bank = _json_with(BANK_CFG, "f0_max", value)
        yield pytest.param(1, _mf_snr_files(bank), _MF_SNR, EXIT_VALIDATION,
                           "'f0_max' must be finite", id=f"mf-snr-f0_max-{value}")
        yield pytest.param(1, {"c.json": _json_with(_INJECTION, "bank", bank)},
                           ["detect", *config], EXIT_VALIDATION, "'f0_max' must be finite",
                           id=f"detect-f0_max-{value}")
    for key, value in (("t_obs_yr", "Infinity"), ("f_khz", "NaN")):
        yield pytest.param(1, {"c.json": _json_with({}, key, value)}, ["cw-cost", *config],
                           EXIT_VALIDATION, f"'{key}' must be finite", id=f"cw-{key}-{value}")
    for key in ("rho_thr", "amplitude", "noise_sigma"):
        for value in ("Infinity", "NaN"):
            yield pytest.param(1, {"c.json": _json_with(_INJECTION, key, value)},
                               ["detect", *config], EXIT_VALIDATION, f"'{key}' must be finite",
                               id=f"{key}-{value}")
    for key, value, names in (("amplitude", "1e305", "'amplitude' 1e+305 overflows the bank "
                                                     "search: template 3 has a non-finite peak"),
                              ("amplitude", "1e308", "'amplitude' 1e+308"),
                              ("noise_sigma", "1e306", "'noise_sigma' 1e+306"),
                              ("noise_sigma", "1e308", "'noise_sigma' 1e+308")):
        for w in (1, 2, 3):
            yield pytest.param(w, {"c.json": _json_with(_INJECTION, key, value)},
                               ["detect", *config], EXIT_VALIDATION, names,
                               id=f"cpus{w}-{key}-{value}")
    for key in ("t0_s", "fs_hz"):
        sidecar = _json_with({"fs_hz": 512.0}, key, "Infinity")
        yield pytest.param(1, _mf_snr_files(sidecar=sidecar), _MF_SNR, EXIT_INPUT,
                           f"'{key}' must be finite", id=f"sidecar-{key}-Infinity")
    yield pytest.param(1, _mf_snr_files(**{"psd.csv": b"f_hz,sn\n" + _TINY_PSD}),
                       [*_MF_SNR, "--psd", "psd.csv"], EXIT_VALIDATION,
                       "--psd psd.csv overflows the matched filter: non-finite SNR",
                       id="mf-snr-psd-5e-324")
    yield pytest.param(1, _mf_snr_files(strain=1e306), _MF_SNR, EXIT_VALIDATION,
                       "--data s.f64 overflows the matched filter: PSD values must be finite",
                       id="mf-snr-strain-1e306")
    # a value that the value types refuse: the line names the file it came from
    bad_bin = np.full(513, 2.0 / 512)
    for name, level in (("negative", -1.0), ("nan", math.nan)):
        bad_bin[7] = level
        psd = b"f_hz,sn\n" + io.csv_block([0.5 * np.arange(513), bad_bin])
        yield pytest.param(1, _mf_snr_files(**{"psd.csv": psd}), [*_MF_SNR, "--psd", "psd.csv"],
                           EXIT_VALIDATION, "psd.csv: PSD values must be finite and non-negative",
                           id=f"psd-{name}-bin")
    nan_at_3 = np.where(np.arange(BANK_CFG["m_samples"]) == 3, math.nan, 1.0)
    yield pytest.param(1, _mf_snr_files(strain=nan_at_3), _MF_SNR, EXIT_VALIDATION,
                       "s.f64: non-finite sample at index 3", id="strain-nan-sample")
    backwards = io.csv_block([-np.arange(BANK_CFG["m_samples"]) / 512.0,
                              np.zeros(BANK_CFG["m_samples"])])
    yield pytest.param(1, {"bank.json": json.dumps(BANK_CFG),
                           "s.csv": b"t,strain\n" + backwards},
                       ["mf-snr", "--data", "s.csv", *_MF_SNR[3:]], EXIT_VALIDATION,
                       "s.csv: dt must be positive, got -0.001953125", id="csv-strain-t-decreasing")
    # a strain that does not fit the bank, and an index outside it, named before any work
    noise = np.random.default_rng(3).normal(size=BANK_CFG["m_samples"])
    csv_at = {rate: b"t,strain\n" + io.csv_block([np.arange(n) / rate, noise[:n]])
              for rate, n in ((512.0, 1000), (1024.0, noise.size))}
    short = {"bank.json": json.dumps(BANK_CFG), "s.f64": noise[:1000].astype("<f8").tobytes(),
             "s.f64.json": '{"fs_hz": 512.0}', "s.csv": csv_at[512.0]}
    for name in ("s.f64", "s.csv"):
        yield pytest.param(1, short, ["mf-snr", "--data", name, *_MF_SNR[3:]], EXIT_VALIDATION,
                           f"{name}: data has 1000 samples but the bank expects 1024",
                           id=f"strain-count-{name}")
    yield pytest.param(1, short, [*_MF_SNR[:-1], 99], EXIT_VALIDATION,
                       "template index 99 outside [0, 64)", id="mf-snr-index-before-strain")
    fast = {**_mf_snr_files(sidecar='{"fs_hz": 1024.0}'), "s.csv": csv_at[1024.0],
            "psd.csv": b"f_hz,sn\n" + io.csv_block([0.5 * np.arange(513), np.full(513, 1.0)])}
    for name, more in (("s.f64", []), ("s.f64", ["--psd", "psd.csv"]), ("s.csv", [])):
        yield pytest.param(1, fast, ["mf-snr", "--data", name, *_MF_SNR[3:], *more],
                           EXIT_VALIDATION, f"{name}: sampled at 1024.0 Hz but the bank at "
                           "512.0 Hz", id=f"strain-rate-{name}{'-psd' if more else ''}")
    huge = {**BANK_CFG, "n_f0": 10**20}
    yield pytest.param(1, _mf_snr_files(json.dumps(huge)), _MF_SNR, EXIT_VALIDATION,
                       "n_f0 * n_f1 exceeds 2**63 - 1", id="mf-snr-n_f0-1e20")
    yield pytest.param(1, {"c.json": json.dumps({**_INJECTION, "bank": huge})},
                       ["detect", *config], EXIT_VALIDATION, "n_f0 * n_f1 exceeds 2**63 - 1",
                       id="detect-n_f0-1e20")
    yield pytest.param(1, {"c.json": json.dumps({"n": 64, "r": 2, "seed": 1, "trials": 10**23})},
                       ["mc-bench", *config], EXIT_VALIDATION, "trials must be",
                       id="mc-bench-config-trials-1e23")
    yield pytest.param(1, _SYNTHETIC, ["mc-bench", *config, "--trials", 10**23],
                       EXIT_VALIDATION, "trials must be", id="mc-bench-flag-trials-1e23")
    for files, argv in (
            (_mf_snr_files(), _MF_SNR),
            ({}, ["count-dist", "--n-templates", 64, "--matches", 2]),
            ({}, ["qsim-count", "--data-bits", "0101", "--p", 3, "--seed", 1]),
            ({}, ["qsim-search", "--data-bits", "0101", "--iterations", 1, "--seed", 1]),
            (_SYNTHETIC, ["mc-bench", *config]), ({}, ["fail-bound", "--r-max", 2]),
            ({}, ["cw-cost"]), (_SYNTHETIC, ["detect", *config]),
            (_SYNTHETIC, ["retrieve", *config])):
        yield pytest.param(1, files, [*argv, "--out", "missing/out"], EXIT_INPUT,
                           "No such file or directory: 'missing/out'", id=f"out-{argv[0]}")
        yield pytest.param(1, {**files, "dir": None}, [*argv, "--out", "dir"], EXIT_INPUT,
                           "Is a directory: 'dir'", id=f"out-dir-{argv[0]}")
        yield pytest.param(1, files, [*argv, "--out", ""], EXIT_INPUT, "empty path for --out",
                           id=f"out-empty-{argv[0]}")
    for flag, derived, files, argv in (
            ("--summary-out", "o.summary.json", _mf_snr_files(), _MF_SNR),
            ("--marginal-out", "o.marginal.csv", {},
             ["qsim-count", "--data-bits", "0101", "--p", 3, "--seed", 1]),
            ("--marginal-out", "o.marginal.csv", {},
             ["qsim-search", "--data-bits", "0101", "--iterations", 1, "--seed", 1]),
            ("--hist-out", "o.hist.csv", _SYNTHETIC, ["mc-bench", *config])):
        yield pytest.param(1, {**files, derived: None}, [*argv, "--out", "o.csv"], EXIT_INPUT,
                           f"Is a directory: '{derived}'", id=f"derived-dir-{argv[0]}")
        if argv[0] == "qsim-search":  # its flag's refusals are qsim-count's
            continue
        yield pytest.param(1, {**files, "dir": None}, [*argv, flag, "dir"], EXIT_INPUT,
                           "Is a directory: 'dir'", id=f"{flag[2:]}-dir-{argv[0]}")
        yield pytest.param(1, files, [*argv, flag, ""], EXIT_INPUT, f"empty path for {flag}",
                           id=f"{flag[2:]}-empty-{argv[0]}")
    for flag, same, files, argv in (
            ("--summary-out", "o.json", _mf_snr_files(), _MF_SNR),
            ("--marginal-out", "./o.json", {},
             ["qsim-count", "--data-bits", "0101", "--p", 3, "--seed", 1]),
            ("--marginal-out", "o.json", {},
             ["qsim-search", "--data-bits", "0101", "--iterations", 1, "--seed", 1]),
            ("--hist-out", "o.json", _SYNTHETIC, ["mc-bench", *config])):
        yield pytest.param(1, files, [*argv, "--out", "o.json", flag, same], EXIT_INPUT,
                           f"{flag} and --out name one file: '{same}'",
                           id=f"{flag[2:]}-same-{argv[0]}")
    # a write that names a file the call reads: as --out, and as the second output
    psd = b"f_hz,sn\n" + io.csv_block([0.5 * np.arange(513), np.full(513, 1.0)])
    csv = b"t,strain\n" + io.csv_block([np.arange(1024) / 512.0, np.zeros(1024)])
    mf_snr = _mf_snr_files(**{"s.csv": csv, "psd.csv": psd})
    for read, name, argv in (
            ("--data", "s.f64", _MF_SNR), ("--data", "s.csv", ["mf-snr", "--data", "s.csv",
                                                             *_MF_SNR[3:]]),
            ("the sidecar of --data", "s.f64.json", _MF_SNR),
            ("--psd", "psd.csv", [*_MF_SNR, "--psd", "psd.csv"]),
            ("--bank-config", "bank.json", _MF_SNR)):
        for flag, more in (("--out", []), ("--summary-out", ["--out", "o.csv"])):
            yield pytest.param(1, mf_snr, [*argv, *more, flag, name], EXIT_INPUT,
                               f"{flag} and {read} name one file: '{name}'",
                               id=f"{flag[2:]}-is-{name}-mf-snr")
    for command in ("detect", "retrieve", "mc-bench", "cw-cost"):
        files = {"c.json": "{}"} if command == "cw-cost" else _SYNTHETIC
        yield pytest.param(1, files, [command, *config, "--out", "c.json"], EXIT_INPUT,
                           "--out and --config name one file: 'c.json'",
                           id=f"out-is-config-{command}")
    yield pytest.param(1, _SYNTHETIC, ["mc-bench", *config, "--out", "o.json", "--hist-out",
                                       "c.json"], EXIT_INPUT,
                       "--hist-out and --config name one file: 'c.json'",
                       id="hist-out-is-config-mc-bench")
    yield pytest.param(1, _mf_snr_files(**{"o.summary.json": "{}"}),
                       ["mf-snr", "--data", "s.f64", "--bank-config", "o.summary.json",
                        "--index", 5, "--out", "o.csv"], EXIT_INPUT,
                       "--summary-out and --bank-config name one file: 'o.summary.json'",
                       id="derived-is-bank-config-mf-snr")
    # a --data with no file name, whose sidecar path is still made
    yield pytest.param(1, _mf_snr_files(), ["mf-snr", "--data", ".", *_MF_SNR[3:]], EXIT_INPUT,
                       "raw input . needs a sidecar ..json", id="data-is-a-directory")
    # one file by another name: ./, a symbolic link, a hard link
    for name, alias in (("./s.f64", None), ("sym.f64", (os.symlink, "s.f64")),
                        ("hard.f64", (os.link, "s.f64"))):
        files = _mf_snr_files() if alias is None else {**_mf_snr_files(), name: alias}
        yield pytest.param(1, files, [*_MF_SNR, "--out", name], EXIT_INPUT,
                           f"--out and --data name one file: '{name}'",
                           id=f"out-is-data-as-{name}")
    # a NUL byte, which no file name holds: a read refused before its realpath, a write
    # before the work
    for files, argv in (
            ({"c.json": "{}"}, ["cw-cost", "--config", "c\0.json"]),
            (_SYNTHETIC, ["detect", "--config", "c\0.json"]),
            (_mf_snr_files(), ["mf-snr", *_MF_SNR[3:], "--data", "s\0.f64"]),
            ({}, ["count-dist", "--n-templates", 64, "--matches", 2, "--out", "a\0b"])):
        flag, path = argv[-2:]
        yield pytest.param(1, files, argv, EXIT_INPUT,
                           f"NUL byte in the path for {flag}: {path!r}", id=f"nul-{argv[0]}")
    # a path the file system cannot encode, a lone surrogate: refused before the work
    for argv, flag, path in ((["count-dist", "--n-templates", 64, "--matches", 2], "--out",
                              "\ud800"),
                             (["cw-cost", "--out", "o.json"], "--config", "\ud800.json")):
        yield pytest.param(1, {}, [*argv, flag, path], EXIT_INPUT,
                           f"the path for {flag} cannot be encoded: {path!r}",
                           id=f"unencodable-{argv[0]}")
    # a second output in a missing directory, refused before --out is written
    for flag, files, argv in (
            ("--summary-out", _mf_snr_files(), _MF_SNR),
            ("--marginal-out", {}, ["qsim-count", "--data-bits", "0101", "--p", 3,
                                    "--seed", 1]),
            ("--hist-out", _SYNTHETIC, ["mc-bench", *config])):
        yield pytest.param(1, files, [*argv, "--out", "o.csv", flag, "missing/s"], EXIT_INPUT,
                           "No such file or directory: 'missing/s'",
                           id=f"{flag[2:]}-missing-dir-{argv[0]}")


@pytest.mark.filterwarnings("error")  # a NumPy warning, in a worker too, fails the run
@pytest.mark.parametrize("cpus,files,argv,code,names", _refusals(), indirect=["cpus"])
def test_refused_on_one_line(tmp_path, monkeypatch, capfd, cpus, files, argv, code, names):
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        if content is None:
            (tmp_path / name).mkdir()
        elif isinstance(content, tuple):  # (os.symlink or os.link, the file it names)
            content[0](content[1], name)
        else:
            (tmp_path / name).write_bytes(
                content if isinstance(content, bytes) else content.encode())
    if "--out" not in argv:
        argv = [*argv, "--out", "out"]
    assert run(*argv) == code
    err = capfd.readouterr().err
    assert err.count("\n") == 1 and "Warning" not in err and names in err
    assert sorted(os.listdir()) == sorted(files)
    for name, content in files.items():  # every input as it was
        if isinstance(content, tuple):
            assert os.path.samefile(name, content[1])
        elif content is not None:
            assert (tmp_path / name).read_bytes() == (
                content if isinstance(content, bytes) else content.encode())


def test_every_file_flag_is_in_the_rule():
    """Each option whose value is a path is a read or a write of ``cli._check_files``."""
    not_paths = {"--data-bits"}  # the one string option that names no file
    writes = {"--out", *(flag for flag, _ in cli._SECOND_OUTPUT.values())}
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    strings = set()
    for command, parser in commands.items():
        for action in parser._actions:
            if action.option_strings and action.type is None and action.nargs is None \
                    and isinstance(action, argparse._StoreAction):
                flag, = action.option_strings
                strings.add(flag)
                assert action.dest == flag[2:].replace("-", "_"), flag  # how the rule reads it
        if command in cli._SECOND_OUTPUT:
            assert cli._SECOND_OUTPUT[command][0] in parser._option_string_actions
    assert strings - not_paths == set(cli._READS) | writes
    assert not set(cli._READS) & writes


@pytest.mark.parametrize("cpus", [2], indirect=True)
class TestLostWorker:
    """A worker that dies, or one that cannot be forked, is a resource failure: exit 3."""

    def test_a_worker_that_dies_exits_3(self, tmp_path, capfd, monkeypatch, cpus):
        bound = amplify.max_fail_bound_argmax
        # as a worker the OOM killer takes ends: no result, no exception
        monkeypatch.setattr(amplify, "max_fail_bound_argmax",
                            lambda r: os._exit(9) if r == 2 else bound(r))
        monkeypatch.chdir(tmp_path)
        assert run("fail-bound", "--r-max", 3, "--out", "b.csv") == EXIT_CAP
        err = capfd.readouterr().err
        assert err == "resource cap: a worker ended before sending its result\n"
        assert os.listdir() == []

    def test_a_fork_that_fails_exits_3(self, tmp_path, capfd, monkeypatch, cpus):
        def fork():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.chdir(tmp_path)
        assert run("fail-bound", "--r-max", 3, "--out", "b.csv") == EXIT_CAP
        err = capfd.readouterr().err
        assert err == ("resource cap: cannot fork a worker: [Errno 11] Resource temporarily "
                       "unavailable\n")
        assert os.listdir() == []


class TestOverflow:
    @pytest.mark.parametrize("argv", [
        ("count-dist", "--n-templates", "9" * 400, "--matches", 1),
        ("qsim-count", "--data-bits", "0101", "--p", 3, "--shots", 2**63, "--seed", 1),
        ("qsim-search", "--data-bits", "0101", "--iterations", 1, "--shots", 2**63,
         "--seed", 1),
    ])
    def test_exits_4_with_one_line(self, tmp_path, capsys, argv):
        out = tmp_path / "o.csv"
        assert run(*argv, "--out", out) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("validation error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["detect", "retrieve"])
    @pytest.mark.parametrize("cfg,message", [
        ({"n": 10**400, "r": 3}, "float range"),
        ({"n": 10**400, "r": 5 * 10**399, "p": 5}, "float range"),
        ({"n": 2**70, "r": 2**65, "p": 10}, "2**63 - 1")])
    def test_synthetic_scenario_exits_4(self, tmp_path, capsys, command, cfg, message):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({**cfg, "seed": 1}))
        assert run(command, "--config", path, "--out", tmp_path / "o.json") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    def test_largest_shot_count_is_drawn(self, tmp_path):
        out = tmp_path / "o.csv"
        assert run("qsim-count", "--data-bits", "0101", "--p", 3, "--shots", 2**63 - 1,
                   "--seed", 1, "--out", out) == EXIT_OK
        assert sum(int(row.split(",")[1]) for row in data_rows(out)[1:]) == 2**63 - 1


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        (), ("no-such-command",), ("fail-bound", "--out", "b.csv"),
        ("fail-bound", "--r-max", "ten", "--out", "b.csv"),
        ("detect", "--config", "s.json", "--out", "d.json", "--bogus", "1"),
    ])
    def test_one_line_and_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("qmf")
        assert "error: " in err and "usage" not in err


class TestDetectRetrieve:
    @pytest.mark.parametrize("command", ["detect", "retrieve"])
    def test_large_register_never_builds_the_distribution(self, tmp_path, monkeypatch,
                                                          command):
        # p = 24: 2**24 outcomes, drawn from a streamed cdf
        def dense(*args):
            raise AssertionError("the dense distribution was built")

        monkeypatch.setattr(amplify, "counting_distribution", dense)
        cfg = tmp_path / "large.json"
        cfg.write_text(json.dumps({"n": 2**44, "r": 1000, "seed": 5}))
        out = tmp_path / "out.json"
        assert run(command, "--config", cfg, "--out", out) == EXIT_OK
        res = json.loads(out.read_text())
        if command == "detect":
            assert res["oracle_evals"] == (1 << 24) - 1
        else:
            assert res["succeeded"] and 0 <= res["returned_index"] < 1000

    @pytest.mark.parametrize("command", ["detect", "retrieve"])
    def test_register_beyond_the_scan_budget_exits_3(self, tmp_path, capsys, command):
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"n": 2**52, "r": 3, "p": 28, "seed": 1}))
        assert run(command, "--config", cfg, "--out", tmp_path / "o.json") == EXIT_CAP
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("resource cap: ")
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("command", ["detect", "retrieve", "mc-bench"])
    @pytest.mark.parametrize("bank_keys", [
        {"m_samples": 10**12},  # the strain alone would be 7.3 TiB
        {"n_f0": 10**5, "n_f1": 10**5}])  # the search's peak array alone 75 GiB
    def test_injection_over_the_byte_budget_exits_3(self, tmp_path, capsys, command,
                                                     bank_keys):
        cfg = tmp_path / "inject.json"
        cfg.write_text(json.dumps({"bank": {**BANK_CFG, **bank_keys}, "inject_index": 3,
                                   "rho_thr": 5.0, "seed": 1, "trials": 2}))
        assert run(command, "--config", cfg, "--out", tmp_path / "o.json") == EXIT_CAP
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("resource cap: injection scenario needs ")
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("key,value,code", [
        ("rho_thr", 0.0, EXIT_VALIDATION), ("rho_thr", math.nan, EXIT_VALIDATION),
        ("p", 0, EXIT_VALIDATION), ("p", 28, EXIT_CAP), ("seed", -1, EXIT_VALIDATION),
        ("rho_thr", math.inf, EXIT_VALIDATION), ("amplitude", math.inf, EXIT_VALIDATION),
        ("noise_sigma", math.inf, EXIT_VALIDATION),
        ("noise_sigma", 1e308, EXIT_VALIDATION)])  # the draw overflows
    def test_injection_refused_before_the_search(self, tmp_path, capsys, monkeypatch,
                                                 key, value, code):
        def no_search(*args):
            raise AssertionError("the bank search ran")

        monkeypatch.setattr(pipeline, "_peak_snrs", no_search)
        cfg = tmp_path / "inject.json"
        cfg.write_text(json.dumps({"bank": BANK_CFG, "inject_index": 27, "rho_thr": 10.0,
                                   "seed": 1, key: value}))
        assert run("detect", "--config", cfg, "--out", tmp_path / "d.json") == code
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "d.json").exists()

    @pytest.mark.parametrize("command", ["mf-snr", "detect", "retrieve", "mc-bench"])
    def test_bank_past_nyquist_refused_before_the_search(self, tmp_path, capsys,
                                                         monkeypatch, command):
        # template 0 is valid; the corner f0 = 120, f1 = 200 is not
        def no_work(*args):
            raise AssertionError("the strain was read or the bank searched")

        monkeypatch.setattr(pipeline, "_peak_snrs", no_work)
        monkeypatch.setattr(io, "read_time_series", no_work)
        bad_bank = {**BANK_CFG, "f1_max": 200.0}
        cfg = tmp_path / "cfg.json"
        if command == "mf-snr":
            cfg.write_text(json.dumps(bad_bank))
            argv = ["--data", tmp_path / "strain.csv", "--bank-config", cfg, "--index", 0]
        else:
            cfg.write_text(json.dumps({"bank": bad_bank, "inject_index": 0, "rho_thr": 10.0,
                                       "seed": 1, "trials": 2}))
            argv = ["--config", cfg]
        assert run(command, *argv, "--out", tmp_path / "out") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == ("validation error: instantaneous frequency 320.0 Hz reaches "
                       "Nyquist 256.0 Hz\n")
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("data,m,read", [
        ("strain.f64", 2**24, True), ("strain.f64", 2**24 + 1, False),
        ("strain.csv", 2**24, True), ("strain.csv", 2**24 + 1, False)],
        ids=["raw-at-budget", "raw-past-budget", "csv-at-budget", "csv-past-budget"])
    def test_mf_snr_held_to_the_byte_budget_before_the_read(self, tmp_path, capsys,
                                                            monkeypatch, data, m, read):
        # 64 bytes a sample of a strain in either format, against 2**30
        def no_work(*args):
            raise AssertionError("the strain was read or the bank searched")

        monkeypatch.setattr(io, "read_time_series", no_work)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**BANK_CFG, "m_samples": m}))
        argv = ["mf-snr", "--data", tmp_path / data, "--bank-config", cfg, "--index", 0,
                "--out", tmp_path / "out"]
        if read:
            with pytest.raises(AssertionError, match="the strain was read"):
                run(*argv)
        else:
            assert run(*argv) == EXIT_CAP
            assert capsys.readouterr().err == (f"resource cap: mf-snr on {m} samples needs "
                                               f"{64 * m} bytes, over the budget of 1073741824\n")
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("bank_keys", [
        {"fs_hz": 1e300, "dur_s": 1e300}, {"fs_hz": math.inf}])  # json writes Infinity
    def test_bank_sample_count_past_float_range_exits_4(self, tmp_path, capsys, bank_keys):
        cfg = tmp_path / "inject.json"
        cfg.write_text(json.dumps({"bank": {**BANK_CFG, "n_f0": 2, "n_f1": 2, **bank_keys},
                                   "inject_index": 0, "rho_thr": 10.0, "seed": 1}))
        assert run("detect", "--config", cfg, "--out", tmp_path / "d.json") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("validation error: ")
        # the config reader refuses an Infinity before the chirp rules see it
        infinite = bank_keys["fs_hz"] == math.inf
        assert ("'fs_hz' must be finite" if infinite else "finite sample count") in err
        assert not (tmp_path / "d.json").exists()

    def test_retrieve_keys_in_output_order(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"n": 64, "r": 2, "p": 5}))
        out = tmp_path / "ret.json"
        assert run("retrieve", "--config", cfg, "--seed", 3, "--out", out) == EXIT_OK
        assert list(json.loads(out.read_text())) == [
            "provenance", "succeeded", "returned_index", "attempts", "oracle_evals",
            "setup_evals"]

    @pytest.mark.parametrize("command", ["detect", "retrieve"])
    def test_synthetic_match_set_is_never_built(self, tmp_path, command):
        # 2**61 matches: a built match set would not fit in memory
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps({"n": 2**62, "r": 2**61, "p": 10, "seed": 1}))
        out = tmp_path / "out.json"
        assert run(command, "--config", cfg, "--out", out) == EXIT_OK
        res = json.loads(out.read_text())
        if command == "retrieve":
            assert res["succeeded"] and 0 <= res["returned_index"] < 2**61

    def test_detect_and_retrieve(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"n": 2**17, "r": 9, "p": 11}))
        det_out = tmp_path / "det.json"
        assert run("detect", "--config", cfg, "--seed", 12,
                   "--out", det_out) == EXIT_OK
        det = json.loads(det_out.read_text())
        assert det["oracle_evals"] == 2047
        assert det["detected"] == (det["b"] != 0)
        ret_out = tmp_path / "ret.json"
        assert run("retrieve", "--config", cfg, "--seed", 12,
                   "--out", ret_out) == EXIT_OK
        ret = json.loads(ret_out.read_text())
        assert ret["succeeded"]
        assert 0 <= ret["returned_index"] < 9

    def test_no_match_retrieval_exits_4(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"n": 64, "r": 0}))
        assert run("retrieve", "--config", cfg, "--seed", 1,
                   "--out", tmp_path / "r.json") == EXIT_VALIDATION
        assert not (tmp_path / "r.json").exists()

    def test_missing_config_exits_2(self, tmp_path):
        assert run("detect", "--config", tmp_path / "none.json", "--seed", 1,
                   "--out", tmp_path / "d.json") == EXIT_INPUT

    def test_provenance_line_present(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"n": 64, "r": 2, "p": 5}))
        out = tmp_path / "det.json"
        run("detect", "--config", cfg, "--seed", 3, "--out", out)
        payload = json.loads(out.read_text())
        assert payload["provenance"].startswith("# qmf 0.1.0 | cmd=detect | seed=3")


@pytest.mark.parametrize("umask", [0o022, 0o077])
@pytest.mark.parametrize("command", ["count-dist", "cw-cost"])
def test_output_mode_follows_the_umask(tmp_path, command, umask):
    # the atomic write's temp file is made 0o600; the output is not
    argv = (["--n-templates", 64, "--matches", 2] if command == "count-dist" else [])
    before = os.umask(umask)
    try:
        assert run(command, *argv, "--out", tmp_path / "out") == EXIT_OK
    finally:
        os.umask(before)
    assert (tmp_path / "out").stat().st_mode & 0o777 == 0o666 & ~umask


class TestProvenance:
    """Every file a command writes opens with its command, its seed and every flag."""

    SCENARIO = {"n": 64, "r": 2, "p": 5, "trials": 20, "seed": 11}

    def calls(self, tmp_path):
        """command -> (argv after the command, seed, flags and configs in the echo)."""
        t = str(tmp_path)
        (tmp_path / "scenario.json").write_text(json.dumps(self.SCENARIO))
        (tmp_path / "cw.json").write_text(json.dumps({"delta_target": 1e-9}))
        (tmp_path / "bank.json").write_text(json.dumps(BANK_CFG))
        noise = np.random.default_rng(0).normal(size=BANK_CFG["m_samples"])
        noise.astype("<f8").tofile(tmp_path / "strain.f64")
        (tmp_path / "strain.f64.json").write_text(json.dumps({"fs_hz": 512.0}))
        draw = {"data_bits": "0101", "ignored": 0, "shots": 16, "seed": 5,
                "cap": qsim.DEFAULT_QUBIT_CAP, "out": f"{t}/o.csv", "marginal_out": None}
        scenario = {"config": f"{t}/scenario.json", "seed": 3, "out": f"{t}/o.json",
                    "scenario": self.SCENARIO}
        return {
            "mf-snr": (["--data", f"{t}/strain.f64", "--bank-config", f"{t}/bank.json",
                        "--index", 0, "--out", f"{t}/o.csv"], None,
                       {"data": f"{t}/strain.f64", "bank_config": f"{t}/bank.json",
                        "index": 0, "psd": None, "seg_len": None, "out": f"{t}/o.csv",
                        "summary_out": None}),
            "count-dist": (["--n-templates", 64, "--matches", 2, "--out", f"{t}/o.csv"], None,
                           {"n_templates": 64, "matches": 2, "p": None, "out": f"{t}/o.csv"}),
            "qsim-count": (["--data-bits", "0101", "--p", 3, "--shots", 16, "--seed", 5,
                            "--out", f"{t}/o.csv"], 5, {**draw, "p": 3}),
            "qsim-search": (["--data-bits", "0101", "--iterations", 1, "--shots", 16,
                             "--seed", 5, "--out", f"{t}/o.csv"], 5,
                            {**draw, "iterations": 1}),
            "mc-bench": (["--config", f"{t}/scenario.json", "--out", f"{t}/o.json"], 11,
                         {**scenario, "seed": None, "trials": None, "hist_out": None}),
            "fail-bound": (["--r-max", 2, "--out", f"{t}/o.csv"], None,
                           {"r_max": 2, "out": f"{t}/o.csv"}),
            "cw-cost": (["--config", f"{t}/cw.json", "--out", f"{t}/o.json"], None,
                        {"config": f"{t}/cw.json", "out": f"{t}/o.json",
                         "spec": {"delta_target": 1e-9}}),
            "detect": (["--config", f"{t}/scenario.json", "--seed", 3, "--out", f"{t}/o.json"],
                       3, scenario),
            "retrieve": (["--config", f"{t}/scenario.json", "--seed", 3,
                          "--out", f"{t}/o.json"], 3, scenario),
        }

    @pytest.mark.parametrize("command", ["mf-snr", "count-dist", "qsim-count", "qsim-search",
                                         "mc-bench", "fail-bound", "cw-cost", "detect",
                                         "retrieve"])
    def test_every_output_echoes_the_call(self, tmp_path, command):
        argv, seed, echo = self.calls(tmp_path)[command]
        inputs = set(tmp_path.iterdir())
        assert run(command, *argv) == EXIT_OK
        written = sorted(set(tmp_path.iterdir()) - inputs)
        assert written and any(p.name.startswith("o.") for p in written)
        for path in written:
            with open(path) as fh:
                line = (json.load(fh)["provenance"] if path.suffix == ".json"
                        else fh.readline().rstrip("\n"))
            head, blob = line.split(" | config=")
            assert head == f"# qmf 0.1.0 | cmd={command} | seed={seed}"
            assert json.loads(blob) == echo
