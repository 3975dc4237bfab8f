"""Independent units of work spread over the CPUs this process may run on.

``fan_out(fn, items)`` yields ``fn(item)`` for each item, in order.  With
w >= 2 workers it forks them, and worker k computes ``items[k::w]``: the
fork hands ``fn`` and the items over, so neither is pickled.  Each result
comes back down the worker's own pipe as one pickle, which marks its own
end, and a worker whose pipe is full waits, so the parent holds about one
result per worker.  An exception ``fn`` raises is sent back and raised
again in the parent at that item's place; a worker that ends before
sending a result raises ``ChildProcessError`` there.

A worker leaves only by ``os._exit``: it never returns into the caller's
code, never runs the caller's ``finally`` or ``except`` blocks, and never
flushes the buffers it inherited.  The parent kills and reaps every
worker when the results end, when one is an error, and when the consumer
stops early.  With one CPU, or without ``fork``, it is ``map`` in this
process.

The fork copies only the calling thread.  A qmf process has no other:
no unit of work calls BLAS, and the CLI asks OpenBLAS for one thread
before numpy is imported, so numpy starts no pool.
"""

from __future__ import annotations

import os
import pickle
import signal
from collections.abc import Callable, Iterator, Sequence
from typing import BinaryIO, NoReturn


def cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return 1


def fan_out(fn: Callable, items: Sequence, workers: int | None = None) -> Iterator:
    """``fn(item)`` for each item in order, on at most ``workers`` (default every) CPUs."""
    w = min(len(items), cpus() if workers is None else workers)
    if w < 2 or not hasattr(os, "fork"):
        yield from map(fn, items)
        return
    pids: list[int] = []
    readers: list[BinaryIO] = []
    try:
        for k in range(w):
            r, wr = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(wr)
                raise
            if pid == 0:
                _work(fn, items[k::w], wr, [r, *(f.fileno() for f in readers)])
            pids.append(pid)
            os.close(wr)
            readers.append(open(r, "rb"))
        for i in range(len(items)):
            try:
                ok, value = pickle.load(readers[i % w])
            except (EOFError, pickle.UnpicklingError):
                raise ChildProcessError("a worker ended before sending its result") from None
            if not ok:
                raise value
            yield value
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for reader in readers:
            reader.close()


def _work(fn: Callable, items: Sequence, out: int, parent_fds: list[int]) -> NoReturn:
    """A worker's whole life: send (True, result) per item, or (False, exc) and stop."""
    try:
        for fd in parent_fds:  # a dead parent leaves no reader: the next write fails
            os.close(fd)
        writer = open(out, "wb")
        for item in items:
            try:
                result = (True, fn(item))
            except Exception as exc:
                result = (False, exc)
            pickle.dump(result, writer, pickle.HIGHEST_PROTOCOL)
            writer.flush()
            if not result[0]:
                break
    finally:
        os._exit(0)
