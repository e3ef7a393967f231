"""Every script under ``demos/`` runs to completion and prints what ``demos_golden.txt`` shows."""

import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "demos_golden.txt"
# a row of fast_vs_classical.py's table: rank and two term counts, then two microsecond columns
_TIMED_ROW = re.compile(r"^(\s*\d+\s+\d+\s+\d+)\s+\d+\s+\d+$", re.MULTILINE)


def _command(script):
    """The demo's command line, under the warning filters this interpreter was started with."""
    return [sys.executable, *(f"-W{option}" for option in sys.warnoptions), str(script)]


@functools.cache
def _run(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(_command(script), capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)


def _masked(script, out):
    """``out`` with fast_vs_classical.py's timings replaced by ``N``, right-aligned as it prints them."""
    if script.name != "fast_vs_classical.py":
        return out
    return _TIMED_ROW.sub(lambda row: f"{row[1]}  {'N':>13}  {'N':>8}", out)


def golden():
    """``{demo path: stdout}`` for each ``$ python demos/<name>.py`` block of `GOLDEN`."""
    blocks = re.split(r"^\$ python (demos/\S+)\n", GOLDEN.read_text(), flags=re.MULTILINE)
    return dict(zip(blocks[1::2], blocks[2::2]))


def test_demos_exist():
    assert DEMOS


def test_demos_run_under_the_interpreters_warning_filters(monkeypatch):
    monkeypatch.setattr(sys, "warnoptions", ["error", "ignore::DeprecationWarning"])
    assert _command(DEMOS[0])[1:3] == ["-Werror", "-Wignore::DeprecationWarning"]


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_exits_zero(script):
    proc = _run(script)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_prints_its_golden_output(script):
    assert _masked(script, _run(script).stdout) == golden()[f"demos/{script.name}"]
