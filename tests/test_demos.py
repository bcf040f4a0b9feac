"""Every script in demos/ runs to completion.

The demos write their outputs under tempfile.mkdtemp() and leave them there,
so each runs with TMPDIR pointed at the test's own temporary directory. Each
runs under the warning filters pyproject.toml sets for the tests (pytest's
filter syntax is Python's -W syntax), so a RuntimeWarning,
DeprecationWarning or FutureWarning stops it with an error, and with scipy
made unimportable, since numpy is the package's only runtime dependency.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(script, tmp_path, pytestconfig):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=path)
    warnings = [f"-W{rule}" for rule in pytestconfig.getini("filterwarnings")]
    assert warnings
    run = ("import runpy, sys; sys.modules['scipy'] = None; "
           "runpy.run_path(sys.argv[1], run_name='__main__')")
    proc = subprocess.run([sys.executable, *warnings, "-c", run, str(script)], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
