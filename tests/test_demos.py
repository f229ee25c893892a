"""The fast demos run to completion against the package in ``src/``.

A demo is a user of the public API, so a name dropped from ``axfault``
that a demo still imports fails here. 05 and 06 take about three seconds
each on a 2-core x86 host (rendering their 12,000 synthetic digits and
training) and are left out. The command-line tour runs through an
``axfault`` shim on ``PATH``: it is the one check of train, inject,
mitigate and campaign run/report through the shell.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FAST_DEMOS = ("01_multiplier_zoo.py", "02_weight_retuning.py",
              "03_stuck_at_injection.py", "04_engines.py", "07_campaign.py")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_cli_tour_runs(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "axfault"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m axfault.cli "$@"\n')
    shim.chmod(0o755)
    env = _env()
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    proc = subprocess.run(["sh", str(ROOT / "demos" / "08_cli_tour.sh")], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "chart_" in proc.stdout
