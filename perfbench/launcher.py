"""Run one qmf CLI call with spans recorded around each layer's public functions.

Usage: python3 launcher.py SPANS_OUT.npz JOB_ID -- <qmf argv...>

Replaces the functions listed in ``TRACED`` in every ``qmf`` module
namespace that holds them (``pipeline`` imports ``index_to_params`` and
``waveform`` by name, for example), then calls ``qmf.cli.main`` under a
``cli.main`` span.  Spans stay in memory and are written to SPANS_OUT
when the call ends, tagged with JOB_ID, as parallel arrays: name id,
parent span, start, end, the change of the OracleCounter passed in (the
query ledger) and one per-function value (see ``_VALUES``).
``fail_bound`` (20 001 calls per r in a ``fail-bound`` sweep) and the
private kernels are left unwrapped.  The exit code is the CLI's.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

import numpy as np

# Functions without a metric of their own (write_snr, read_psd, counting_state,
# search_state) are wrapped so that their time counts for their own layer and
# not as self time of the caller.
TRACED = {
    "io": ("write_csv", "write_json", "write_snr", "read_time_series", "read_psd"),
    "amplify": ("counting_distribution", "max_fail_bound_argmax", "sample_b",
                "estimate_from_b", "p_match"),
    "pipeline": ("scenario_from_config", "classical_search", "oracle_eval",
                 "monte_carlo", "retrieve_until_success", "signal_detection",
                 "template_retrieval"),
    "dsp": ("complex_template", "normalize_template", "forward_fft", "snr_series",
            "filter_series", "max_snr", "estimate_psd", "interpolate_psd"),
    "bank": ("waveform", "index_to_params"),
    "qsim": ("init_state", "counting_state", "search_state", "controlled_grover_powers",
             "grover_iteration", "string_oracle", "diffusion", "inverse_qft",
             "marginal_probs", "measure"),
}


def _file_size(args, kwargs, result) -> int:
    path = kwargs["path"] if "path" in kwargs else args[0]
    return os.path.getsize(path)


# Per-function value recorded on each span: (args, kwargs, result) -> int.
# qsim values are computed from register sizes, not measured allocations.
_VALUES = {
    "io.write_csv": _file_size,
    "io.write_json": _file_size,
    "amplify.counting_distribution": lambda a, k, r: r.probs.nbytes,
    "pipeline.classical_search": lambda a, k, r: len(r),
    "pipeline.signal_detection": lambda a, k, r: int(r.detected),
    "pipeline.template_retrieval": lambda a, k, r: int(r is not None),
    "qsim.init_state": lambda a, k, r: 16 << r.num_qubits,
    "qsim.grover_iteration": lambda a, k, r: 1 << r.num_qubits,
}


class Recorder:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.ledger: list[int] = []
        self.value: list[int] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        value_of = _VALUES.get(name)
        params = list(inspect.signature(fn).parameters)
        counter_pos = params.index("counter") if "counter" in params else None
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counter = kwargs.get("counter")
            if counter is None and counter_pos is not None and len(args) > counter_pos:
                counter = args[counter_pos]
            before = counter.evaluations if counter is not None else 0
            idx = len(rec.name_of)
            rec.name_of.append(nid)
            rec.parent.append(rec.stack[-1] if rec.stack else -1)
            rec.start.append(0.0)
            rec.end.append(0.0)
            rec.ledger.append(0)
            rec.value.append(0)
            rec.stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                rec.stack.pop()
                rec.start[idx] = t0
                rec.end[idx] = t1
            if counter is not None:
                rec.ledger[idx] = counter.evaluations - before
            if value_of is not None:
                rec.value[idx] = value_of(args, kwargs, result)
            return result

        return traced

    def save(self, path: str, job: int) -> None:
        np.savez(
            path, job=np.int64(job), names=np.array(self.names),
            name_of=np.array(self.name_of, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64), start=np.array(self.start),
            end=np.array(self.end), ledger=np.array(self.ledger, dtype=np.int64),
            value=np.array(self.value, dtype=np.int64),
        )


def install(rec: Recorder) -> None:
    """Swap each traced function for its wrapper in every qmf namespace."""
    import qmf.cli  # noqa: F401  (imports every layer)

    modules = [m for k, m in sys.modules.items() if k == "qmf" or k.startswith("qmf.")]
    for layer, funcs in TRACED.items():
        owner = sys.modules[f"qmf.{layer}"]
        for fname in funcs:
            original = getattr(owner, fname)
            wrapped = rec.wrap(f"{layer}.{fname}", original)
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    if obj is original:
                        setattr(mod, attr, wrapped)


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        print("usage: launcher.py SPANS_OUT.npz JOB_ID -- <qmf argv...>", file=sys.stderr)
        return 2
    spans_out, job, argv = sys.argv[1], int(sys.argv[2]), sys.argv[4:]
    rec = Recorder()
    install(rec)
    from qmf import cli

    run = rec.wrap("cli.main", cli.main)
    try:
        return run(argv)
    finally:
        rec.save(spans_out, job)


if __name__ == "__main__":
    sys.exit(main())
