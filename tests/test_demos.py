"""The fast demos run to completion against the package in ``src/``.

A demo is a user of the public API, so a name dropped from ``axfault``
that a demo still imports fails here. 05 and 06 train models for about
half a minute each and are left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FAST_DEMOS = ("01_multiplier_zoo.py", "02_weight_retuning.py",
              "03_stuck_at_injection.py", "04_engines.py", "07_campaign.py")


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
