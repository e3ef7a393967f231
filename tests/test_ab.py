"""The in-process A/B timer in tools/ab.py, run on this checkout against itself."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab.py"


def ab(tree_a, tree_b, *args):
    return subprocess.run(
        [sys.executable, str(TOOL), str(tree_a), str(tree_b), "--workload", "char", *args],
        capture_output=True, text=True, timeout=120,
    )


def test_two_passes_of_char_against_itself():
    run = ab(ROOT, ROOT, "--passes", "2", "--depth", "8")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "workload char, seed 0, 6 ops, 2 pairs at depth 8; outputs equal"
    assert re.fullmatch(r"B/A \d+\.\d{3} \[\d+\.\d{3}-\d+\.\d{3}\], B faster in [0-2]/2", lines[-1])


def test_a_tree_with_other_outputs_is_refused(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with (tmp_path / "src" / "weightmult" / "__init__.py").open("a") as f:
        f.write(
            "\n_character = character\n\n\n"
            "def character(rs, lam):\n"
            "    chart = dict(_character(rs, lam))\n"
            "    chart[next(iter(chart))] += 1\n"
            "    return chart\n"
        )
    run = ab(ROOT, tmp_path, "--passes", "1")
    assert run.returncode == 1
    assert run.stdout.splitlines()[0] == "outputs differ: char E8 (1,0,0,0,0,0,0,0)"
