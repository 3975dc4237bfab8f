"""File formats shared by the CLI and tests.

Time series come in as CSV with a ``t,strain`` header or as raw
little-endian float64 with a JSON sidecar ``{"fs_hz": ..., "t0_s": ...}``.
PSDs come in as ``f_hz,sn`` CSV on a uniform grid from 0 Hz; SNR series go
out as ``t,rho`` CSV.
Every JSON object read, a config or a sidecar, goes through ``read_config``.
Every file written here opens with a provenance comment carrying the
tool version, the full configuration echo and the seed, and is written
atomically (temp file + rename) so concurrent readers never see a
partial file.

Every CSV table is built as bytes by ``csv_block``, a block of rows at a
time, from numpy columns: ``str`` of each int, ``repr`` of each float
and each ``S`` string as it is.  Each column becomes a NUL-padded uint8
matrix: an int column's digits by numpy arithmetic, a float column's
``repr`` gathered from a table of its distinct bit patterns.  The block
is the matrices side by side with the commas and newlines, written out
with its NULs deleted.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence

import numpy as np

from . import __version__, dsp, fanout
from .errors import InputError, ValidationError


def provenance_line(command: str, config: dict, seed: int | None) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return f"# qmf {__version__} | cmd={command} | seed={seed} | config={blob}"


def temp_beside(path: str | Path, make: Callable = tempfile.TemporaryFile, **kwargs):
    """``make(dir=...)``: a temp file beside ``path``, whose OSError names ``path``."""
    try:
        return make(dir=Path(path).parent, **kwargs)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def _atomic_write(path: str | Path, write: Callable[[BinaryIO], object]) -> None:
    """Call ``write`` on a temp file beside ``path``, then rename it over ``path``.

    The file gets the mode ``open`` would give it, 0o666 less the umask,
    not the 0o600 of ``mkstemp``.
    """
    fd, tmp = temp_beside(path, tempfile.mkstemp, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str | Path, header: str, chunks, provenance: str) -> None:
    """Stream the chunks, bytes of CSV lines, into the file below its header."""

    def write(fh: BinaryIO) -> None:
        fh.write(f"{provenance}\n{header}\n".encode())
        fh.writelines(chunks)

    _atomic_write(path, write)


def write_json(path: str | Path, payload: dict, provenance: str) -> None:
    body = {"provenance": provenance, **payload}
    text = json.dumps(body, indent=2, sort_keys=False) + "\n"
    _atomic_write(path, lambda fh: fh.write(text.encode()))


def read_json(path: str | Path) -> dict:
    """Load a JSON object (a config or a sidecar) from a file."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (ValueError, RecursionError) as exc:  # also too many digits, too deep
        raise InputError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise InputError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    return payload


def config_number(cfg: dict, key: str, kind: type):
    """``kind(cfg[key])``.

    A value that does not convert raises a ValidationError naming the key,
    and so does one that converts only by changing its meaning: a boolean,
    or a float with a fractional part where ``kind`` is ``int``; so does a
    non-finite ``float``: ``NaN``, ``Infinity``, or a ``1e400`` that json reads as inf.
    """
    value = cfg[key]
    if isinstance(value, bool):
        raise ValidationError(f"config key {key!r} must be a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValidationError(
            f"config key {key!r} must be a number with no fractional part, got {value!r}")
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"config key {key!r} must be a number, got {value!r}") from None
    if kind is float and not np.isfinite(number):
        raise ValidationError(f"config key {key!r} must be finite, got {value!r}")
    return number


def read_config(cfg: dict, what: str, kinds: dict, required: tuple = ()) -> dict:
    """The keys of ``cfg`` in the order of ``kinds``, each converted by ``config_number``.

    Refuses a required key missing or a key not in ``kinds`` (a misspelt
    one).  A key of kind ``None`` keeps its value as it is.
    """
    if not isinstance(cfg, dict):
        raise ValidationError(f"{what} config must be a JSON object")
    missing = [k for k in required if k not in cfg]
    unknown = sorted(set(cfg) - set(kinds))
    if missing or unknown:
        raise ValidationError(f"{what} config: missing keys {missing}, unknown keys {unknown}")
    return {k: cfg[k] if kind is None else config_number(cfg, k, kind)
            for k, kind in kinds.items() if k in cfg}


def read_time_series(path: str | Path, m: int) -> dsp.TimeSeries:
    """The m samples of a strain: CSV (t,strain) by a ``.csv`` suffix, else raw float64.

    A raw file must hold a whole number of 8-byte samples, and either
    format at least 2 samples.  Any count but m is refused: a raw file's
    from its size, before it is read, a CSV's once it is parsed.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    csv = path.suffix.lower() == ".csv"
    if csv:
        t, samples = _read_two_columns(path, ("t", "strain"))
        count = samples.size
    else:
        dt, t0 = _read_sidecar(path)
        size = path.stat().st_size
        if size % 8:
            raise InputError(f"{path}: {size} bytes is not a whole number of float64 samples")
        count = size // 8
    if count < 2:
        raise InputError(f"{path}: need at least 2 samples")
    if csv:
        dt, t0 = _grid_step(path, t, "time"), float(t[0])
    if count != m:
        raise ValidationError(f"{path}: data has {count} samples but the bank expects {m}")
    if not csv:
        samples = np.fromfile(path, dtype="<f8", count=m)
    return _named(path, dsp.TimeSeries, samples=samples, dt=dt, t0=t0)


def _read_sidecar(path: Path) -> tuple[float, float]:
    """The sample step and start time that a raw file's JSON sidecar gives."""
    sidecar = path.with_suffix(path.suffix + ".json")
    if not sidecar.exists():
        raise FileNotFoundError(f"raw input {path} needs a sidecar {sidecar}")
    meta = _named(sidecar, read_config, read_json(sidecar), "sidecar",
                  {"fs_hz": float, "t0_s": float}, ("fs_hz",), error=InputError)
    fs, t0 = meta["fs_hz"], meta.get("t0_s", 0.0)
    if not fs > 0.0:
        raise InputError(f"{sidecar}: fs_hz must be positive, got {fs}")
    dt = 1.0 / fs
    if dt == np.inf:  # a subnormal fs_hz
        raise InputError(f"{sidecar}: 1/fs_hz overflows for fs_hz {fs}")
    return dt, t0


# The one tolerance (np.isclose keywords) of grid values that files give.
GRID_TOL = {"rtol": 1e-6, "atol": 1e-12}


def read_psd(path: str | Path) -> dsp.Psd:
    """Load a PSD whose bin k sits at k * df from 0 Hz; what ``Psd`` refuses names the file."""
    f, sn = _read_two_columns(Path(path), ("f_hz", "sn"))
    if f.size < 2:
        raise InputError(f"{path}: need at least 2 PSD bins")
    df = _grid_step(path, f, "frequency")
    if not np.isclose(f[0], 0.0, **GRID_TOL):
        raise InputError(f"{path}: frequency column must start at 0 Hz, got {float(f[0])!r}")
    return _named(path, dsp.Psd, values=sn, df=df)


def _named(path: str | Path, make: Callable, *args, error: type | None = None, **kwargs):
    """``make(...)``; its ValidationError is raised again naming ``path``, as ``error`` if set."""
    try:
        return make(*args, **kwargs)
    except ValidationError as exc:
        raise (error or type(exc))(f"{path}: {exc}") from None


def _grid_step(path: str | Path, x: np.ndarray, what: str) -> float:
    """The step of a uniformly sampled column: every gap within tolerance of the first."""
    step = float(x[1] - x[0])
    if not np.allclose(np.diff(x), step, **GRID_TOL):
        raise InputError(f"{path}: {what} column is not uniformly sampled")
    return step


# Rows built at a time: bounds the memory a large file costs while keeping
# the work in whole-array calls.
ROW_BLOCK = 1 << 12


def repr_rows(n: int, columns) -> Iterator[bytes]:
    """CSV lines of ``columns``, one ``csv_block`` per block of rows.

    ``columns(j)`` returns the int or float column arrays at the row
    indices ``j``.  The bytes are the same as with ``repr(t0 + j * dt)``
    or ``repr(float(v))`` per row.  The blocks of ``ROW_BLOCK`` rows are
    built on every CPU (see :mod:`qmf.fanout`).
    """

    def block(start: int) -> bytes:
        return csv_block(columns(np.arange(start, min(start + ROW_BLOCK, n))))

    return fanout.fan_out(block, range(0, n, ROW_BLOCK))


def csv_block(columns: Sequence[np.ndarray]) -> bytes:
    """CSV lines of equal-length columns: ``str`` of an int, ``repr`` of a float, ``S`` as is.

    Each column is a NUL-padded uint8 matrix; they are laid side by side
    with a comma after each and a newline in place of the last comma,
    and the NULs are deleted from the whole block at once.
    """
    if len(columns[0]) == 0:
        return b""
    fields = [_byte_matrix(col) for col in columns]
    block = np.empty((len(columns[0]), sum(f.shape[1] + 1 for f in fields)), np.uint8)
    at = 0
    for field in fields:
        width = field.shape[1]
        block[:, at:at + width] = field
        block[:, at + width] = ord(",")
        at += width + 1
    block[:, -1] = ord("\n")
    # bytes.translate deletes the NULs about twice as fast as np.compress
    return block.tobytes().translate(None, b"\0")


def _byte_matrix(col: np.ndarray) -> np.ndarray:
    """The column's fields as a (rows, width) uint8 matrix, NUL-padded."""
    kind = col.dtype.kind
    if kind in "iu":
        return _digit_matrix(col)
    if kind == "f":
        col = repr_column(col)
    elif kind != "S":
        raise TypeError(f"no CSV field format for dtype {col.dtype}")
    return np.ascontiguousarray(col).view(np.uint8).reshape(col.size, col.itemsize)


def _digit_matrix(col: np.ndarray) -> np.ndarray:
    """``str`` of each int: a sign column, then the digits, leading zeros left NUL."""
    negative = col < 0
    mag = col.astype(np.uint64)  # a negative value wraps to 2**64 - |value|
    np.negative(mag, out=mag, where=negative)
    width = len(str(int(mag.max())))
    out = np.zeros((col.size, width + 1), np.uint8)
    out[:, 0] = negative * ord("-")
    for k in range(width, 0, -1):
        rest = mag // 10  # numpy divides by a scalar several times faster than it takes %
        digit = (mag - rest * 10).astype(np.uint8) + ord("0")
        out[:, k] = digit if k == width else digit * (mag > 0)
        mag = rest
    return out


def repr_column(col: np.ndarray) -> np.ndarray:
    """``repr`` of each float as a NUL-padded ``S`` array, one ``repr`` per distinct value.

    The distinct values come from a sort of the bit patterns and a
    comparison of neighbours, so -0.0 and 0.0, which are equal but
    format differently, stay apart.
    """
    bits = col.view(f"i{col.itemsize}")
    order = np.argsort(bits)
    ranked = bits[order]
    first = np.empty(bits.size, bool)
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    # 24 bytes hold the longest repr of a float, as in -2.2250738585072014e-308
    table = np.array(list(map(repr, ranked[first].view(col.dtype).tolist())), dtype="S24")
    inverse = np.empty(bits.size, np.intp)
    inverse[order] = np.cumsum(first) - 1
    return table[inverse]


def write_snr(path: str | Path, snr: dsp.SnrSeries, provenance: str, t0: float = 0.0) -> None:
    rows = repr_rows(snr.rho.size, lambda j: (t0 + j * snr.dt, snr.rho[j]))
    write_csv(path, "t,rho", rows, provenance)


def _read_two_columns(path: Path, expected: tuple[str, str]) -> np.ndarray:
    """The two columns below the header, as the two rows of a view of one float64 array."""
    with open(path) as fh:
        rows = ((k, ln.strip().split(",")) for k, ln in enumerate(fh, 1)
                if ln.strip() and not ln.startswith("#"))
        _, header = next(rows, (0, None))
        if header is None:
            raise InputError(f"{path}: empty file")
        if tuple(c.strip() for c in header) != expected:
            raise InputError(f"{path}: expected header {','.join(expected)!r}")
        values = bytearray()
        for k, fields in rows:
            if len(fields) != 2:
                raise InputError(f"{path}: line {k}: expected two columns, got {len(fields)}")
            try:
                values += struct.pack("dd", *map(float, fields))
            except ValueError as exc:
                raise InputError(f"{path}: line {k}: malformed row ({exc})") from None
    return np.frombuffer(values).reshape(-1, 2).T
