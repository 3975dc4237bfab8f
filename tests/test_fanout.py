"""The fan-out: results in item order, errors at their item, no worker left behind."""

import errno
import json
import os

import pytest

from qmf import cli, dsp, fanout, io, pipeline
from qmf.bank import BankSpec, index_to_params, waveform
from qmf.errors import ValidationError

# a 2-sample chirp is all taper: tukey_window(2, 0.1) is [0, 0]
ZERO_ENERGY_BANK = {"f0_min": 40.0, "f0_max": 120.0, "n_f0": 8, "f1_min": 5.0, "f1_max": 45.0,
                    "n_f1": 8, "fs_hz": 512.0, "m_samples": 1024, "dur_s": 2 / 512.0}


@pytest.fixture()
def two_workers(monkeypatch):
    monkeypatch.setattr(fanout, "cpus", lambda: 2)
    # 16 rows fit the budget: a 64-template bank is searched in 8 blocks of 8
    monkeypatch.setattr(pipeline, "_BLOCK_BYTES", 16 * 64 * 1024)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def square(x):
    return x * x


def test_results_in_item_order(cpus):
    assert list(fanout.fan_out(square, range(11))) == [x * x for x in range(11)]
    assert_no_child_left()


def test_workers_capped(monkeypatch):
    forks = []
    monkeypatch.setattr(fanout, "cpus", lambda: 3)
    monkeypatch.setattr(os, "fork", lambda fork=os.fork: forks.append(1) or fork())
    assert list(fanout.fan_out(square, range(5), 2)) == [0, 1, 4, 9, 16]
    assert list(fanout.fan_out(square, range(1))) == [0]
    assert len(forks) == 2
    assert_no_child_left()


def test_consumer_stopping_early_stops_the_workers(two_workers):
    # a range this long is sliced by each worker, never listed
    results = fanout.fan_out(square, range(10**15))
    assert next(results) == 0
    results.close()
    assert_no_child_left()


def test_error_raised_at_its_item(two_workers):
    def fn(x):
        if x == 5:
            raise ValidationError("item 5 is bad")
        return x

    got = []
    with pytest.raises(ValidationError, match="^item 5 is bad$"):
        for value in fanout.fan_out(fn, range(9)):
            got.append(value)
    assert got == [0, 1, 2, 3, 4]
    assert_no_child_left()


def test_failed_fork_raised_as_a_lost_worker(two_workers, monkeypatch):
    forks = []

    def fork(fork=os.fork):
        forks.append(1)
        if len(forks) == 2:  # the second worker cannot be had; the first is reaped
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(ChildProcessError, match="^cannot fork a worker: .Errno 11.") as info:
        list(fanout.fan_out(square, range(9)))
    assert isinstance(info.value.__cause__, BlockingIOError)
    assert_no_child_left()


def test_worker_death_raised_at_its_item(two_workers):
    def fn(x):
        if x == 5:
            os._exit(1)  # the worker dies without sending a result
        return x

    got = []
    with pytest.raises(ChildProcessError, match="^a worker ended before sending its result$"):
        for value in fanout.fan_out(fn, range(9)):
            got.append(value)
    assert got == [0, 1, 2, 3, 4]
    assert_no_child_left()


def test_search_error_reaches_the_caller(monkeypatch, two_workers):
    spec = BankSpec.from_config(ZERO_ENERGY_BANK)
    psd = dsp.white_psd(spec.m_samples, 1.0 / spec.fs)
    strain = waveform(index_to_params(spec, 0), spec.fs, spec.m_samples).samples
    data = dsp.forward_fft(dsp.TimeSeries(strain + 1.0, dt=1.0 / spec.fs))
    errors = []
    for w in (1, 2):
        monkeypatch.setattr(fanout, "cpus", lambda: w)
        with pytest.raises(ValidationError) as exc:
            pipeline.classical_search(spec, data, psd, 5.0, pipeline.OracleCounter())
        errors.append((type(exc.value), str(exc.value)))
    assert errors[0] == errors[1]
    assert "zero energy" in errors[0][1]
    assert_no_child_left()


def test_detect_on_a_worker_error_exits_4(tmp_path, capsys, two_workers):
    cfg = tmp_path / "inject.json"
    cfg.write_text(json.dumps({"bank": ZERO_ENERGY_BANK, "inject_index": 0, "rho_thr": 5.0,
                               "seed": 1}))
    out = tmp_path / "d.json"
    assert cli.main(["detect", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == "validation error: template has zero energy in the analysis band\n"
    assert not out.exists()
    assert_no_child_left()


def test_worker_write_error_leaves_no_temp_file(tmp_path, capsys, monkeypatch, two_workers):
    # the marginal of 13 data bits is 2 blocks; the worker of the second fails,
    # and the marginal is written before the draw, so the shots are never written
    digit_matrix = io._digit_matrix

    def failing(col):
        if col.dtype.kind == "i" and col[0] >= io.ROW_BLOCK:
            raise OSError("No space left on device")
        return digit_matrix(col)

    monkeypatch.setattr(io, "_digit_matrix", failing)
    assert cli.main(["qsim-search", "--data-bits", "0001101000110", "--iterations", "1",
                     "--shots", "16", "--seed", "1",
                     "--out", str(tmp_path / "shots.csv")]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == "input error: No space left on device\n"
    assert os.listdir(tmp_path) == []
    assert_no_child_left()


def test_parent_write_error_stops_the_workers(tmp_path, two_workers):
    def text():
        chunks = io.repr_rows(4 * io.ROW_BLOCK, lambda j: (j,))
        yield next(chunks)
        raise OSError("No space left on device")

    with pytest.raises(OSError, match="No space left"):
        io.write_csv(tmp_path / "x.csv", "j", text(), "# prov")
    assert os.listdir(tmp_path) == []
    assert_no_child_left()


def test_results_of_every_size(two_workers):
    # frames larger than a pipe's buffer arrive whole
    sizes = [0, 1, 1 << 16, 3 << 16, 7]
    got = list(fanout.fan_out(lambda k: bytes([k % 251]) * k, sizes))
    assert got == [bytes([k % 251]) * k for k in sizes]
