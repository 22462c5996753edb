"""tools/step_peak.py runs one subcommand in a fresh process and reports its
wall time, CPU time, peak RSS and minor page faults; a failing subcommand's exit code is passed on."""

import json
import os
import subprocess
import sys
from pathlib import Path

from litterscan.cli import main

STEP_PEAK = Path(__file__).resolve().parent.parent / "tools" / "step_peak.py"


def step_peak(*argv):
    return subprocess.run([sys.executable, str(STEP_PEAK), *argv],
                          capture_output=True, text=True, timeout=120)


def test_step_peak_reports_one_fresh_process(tmp_path):
    cube = tmp_path / "scene.cube.json"
    assert main(["make-synthetic", "--out-cube", str(cube), "--out-mask",
                 str(tmp_path / "truth.pgm"), "--rows", "20", "--cols", "20", "--seed", "5"]) == 0
    p = step_peak("index", "--cube", str(cube), "--method", "fdi",
                  "--out", str(tmp_path / "fdi.f32"), "--threshold", "0")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout)
    assert sorted(result) == ["cpu_s", "minflt", "peak_rss_mb", "wall_s"]
    assert result["wall_s"] > 0 and result["peak_rss_mb"] > 1
    # the interpreter's start alone takes CPU time, and no more cores exist
    assert 0 < result["cpu_s"] <= os.cpu_count() * result["wall_s"]
    # the interpreter alone faults in more than a thousand pages
    assert type(result["minflt"]) is int and result["minflt"] > 1000
    assert (tmp_path / "fdi.f32").stat().st_size == 20 * 20 * 4
    assert (tmp_path / "fdi.f32.mask.pgm").exists()

    p = step_peak("index", "--cube", str(tmp_path / "missing.json"), "--method", "fdi",
                  "--out", str(tmp_path / "x.f32"))
    assert (p.returncode, p.stdout) == (1, "")
    assert p.stderr.startswith("litterscan index: ")
