"""Start benchmark jobs from a small process and report what each one cost.

Reads one JSON request per line on stdin, ``{"cmd": [...], "cwd": ...,
"stderr": ...}``, runs the command to exit and answers with one JSON
line ``{"wall_s": ..., "rss_kb": ..., "code": ...}``.  The wall time runs
from process start to exit; the peak RSS comes from ``os.wait4``.  A job
still running after ``JOB_TIMEOUT_S`` is killed.

Linux records the peak RSS of the process that starts a job in the
job's own peak, so jobs are started from here, a process that never
loads numpy or qmf, and not from the benchmark process.  Exits when
stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time

JOB_TIMEOUT_S = 150


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stderr"], "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], stdout=subprocess.DEVNULL,
                                    stderr=err)
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall, "rss_kb": usage.ru_maxrss,
                          "code": proc.returncode}), flush=True)


if __name__ == "__main__":
    main()
