"""Every demo runs to completion against the library as it is."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_exits_0(demo, tmp_path):
    out = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,  # a demo that writes outside its temp dir writes here
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
