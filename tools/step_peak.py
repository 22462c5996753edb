"""Run one litterscan subcommand in a fresh process and print its wall time,
CPU time, peak resident memory and minor page faults as one JSON object,
{"wall_s", "cpu_s", "peak_rss_mb", "minflt"}.

    python3 tools/step_peak.py index --cube c.json --method fdi --out f.f32

The subcommand runs as `python3 -m litterscan.cli ARGS` with this checkout's
`src/` first on PYTHONPATH. wall_s is measured around the process, so it
includes interpreter start and imports; cpu_s is the child's user plus
system time (ru_utime + ru_stime) from wait4, so cpu_s / wall_s is about the
number of cores the step kept busy; peak_rss_mb is its ru_maxrss from the
same call, in MiB, and minflt its ru_minflt: the pages
it faulted in without reading from disk, which counts memory the allocator
gave back to the kernel and then touched again. The subcommand's exit code
is passed on, and nothing is printed to stdout when it fails. For numbers
comparable with the BENCH_*.json files, set OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS to 1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def step_peak(argv: list[str]) -> tuple[int, dict]:
    """Exit code and {"wall_s", "cpu_s", "peak_rss_mb", "minflt"} of `litterscan ARGV`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "litterscan.cli", *argv], env=env)
    _, status, usage = os.wait4(child.pid, 0)
    wall_s = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, {"wall_s": round(wall_s, 3),
                              "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
                              "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),
                              "minflt": usage.ru_minflt}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print("usage: step_peak.py SUBCOMMAND [ARGS...]", file=sys.stderr)
        return 2
    code, result = step_peak(argv)
    if code == 0:
        print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
