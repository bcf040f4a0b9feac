"""Every script in demos/, every `python` example in the README and its
command-line example run to completion.

The demos write their outputs under tempfile.mkdtemp() and leave them there,
and the README's examples write theirs to the working directory, so each runs
with TMPDIR and the working directory pointed at the test's own temporary
directory. Each runs under the warning filters pyproject.toml sets for the
tests (pytest's filter syntax is Python's -W syntax, which PYTHONWARNINGS
takes too), so a RuntimeWarning, DeprecationWarning or FutureWarning stops it
with an error, and with scipy made unimportable, since numpy is the
package's only runtime dependency.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(argv, tmp_path, pytestconfig, **extra):
    # a `scipy` package that refuses to import, ahead of the installed one
    stub = tmp_path / "no-scipy"
    (stub / "scipy").mkdir(parents=True)
    (stub / "scipy" / "__init__.py").write_text("raise ImportError('scipy is test-only')\n")
    warnings = pytestconfig.getini("filterwarnings")
    assert warnings and not any("," in rule for rule in warnings)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(stub),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=path,
               PYTHONWARNINGS=",".join(warnings), **extra)
    proc = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc


def _readme_blocks(lang: str) -> list[tuple[str, str]]:
    # (heading, block) for every ```lang block of the README, in order, with
    # the `## heading` it sits under
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = []
    for section in text.split("\n## ")[1:]:
        heading, body = section.split("\n", 1)
        blocks += [(heading, part.split("\n```\n", 1)[0])
                   for part in body.split(f"\n```{lang}\n")[1:]]
    return blocks


def _readme_block(heading: str, lang: str) -> str:
    # the first ```lang block under the README's `## heading`
    return next(block for under, block in _readme_blocks(lang) if under == heading)


# the library example is run and checked on its own below
OTHER_PYTHON_BLOCKS = [(heading, block) for heading, block in _readme_blocks("python")
                       if block != _readme_block("Library use", "python")]


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(script, tmp_path, pytestconfig):
    assert _run([sys.executable, str(script)], tmp_path, pytestconfig).stdout


def test_readme_library_example_runs(tmp_path, pytestconfig):
    block = _readme_block("Library use", "python")
    assert '"psnr_db"' in _run([sys.executable, "-c", block], tmp_path, pytestconfig).stdout


@pytest.mark.parametrize("heading, block", OTHER_PYTHON_BLOCKS,
                         ids=[re.sub(r"\W+", "-", heading.lower()) for heading, _ in OTHER_PYTHON_BLOCKS])
def test_readme_python_example_runs(heading, block, tmp_path, pytestconfig):
    assert _run([sys.executable, "-c", block], tmp_path, pytestconfig).stdout


def test_readme_command_line_example_runs(tmp_path, pytestconfig):
    # the block's `sabmis` and `python3` are this interpreter; -e stops at
    # the first command that fails
    prelude = 'sabmis() { "$PY" -m sabmis.cli "$@"; }\npython3() { "$PY" "$@"; }\n'
    block = _readme_block("Command line", "sh")
    proc = _run(["sh", "-e", "-c", prelude + block], tmp_path, pytestconfig,
                PY=sys.executable)
    assert '"psnr_db"' in proc.stdout
    for name in ("demo.skey", "stego.srf", "stego.pgm", "recovered_1.pgm",
                 "recovered_2.pgm", "bench.json", "bench.csv"):
        assert (tmp_path / name).stat().st_size > 0
