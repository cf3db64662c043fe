"""Run one command to exit and report its wall time, CPU time, peak RSS and exit code.

Usage: python3 -S perfbench/launch.py LOG TIMEOUT_S ARG...

The command's standard output and error go to LOG; it is killed after
TIMEOUT_S seconds. One JSON object is printed: wall_s (spawn to exit), cpu_s
(user + system), rss_mb (ru_maxrss of the command alone) and code.

The command is started from this small process rather than from the benchmark
itself because Linux starts a new process's ru_maxrss at the resident size of
the process that spawned it: a child of the benchmark process, which has numpy
loaded, never reads below that.
"""
import json
import os
import signal
import subprocess
import sys
import time


def main(argv: list[str]) -> dict:
    log, timeout, *command = argv
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=fh, stderr=subprocess.STDOUT)

        def kill(_signum, _frame):
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, float(timeout))
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
    }


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
