"""The in-process A/B timer in tools/ab.py, run on this checkout against itself."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab.py"


def ab(tree_a, tree_b, *args, workload="char"):
    return subprocess.run(
        [sys.executable, str(TOOL), str(tree_a), str(tree_b), "--workload", workload, *args],
        capture_output=True, text=True, timeout=120,
    )


def test_two_passes_of_char_against_itself():
    run = ab(ROOT, ROOT, "--passes", "2", "--depth", "8")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "workload char, seed 0, 6 ops, 2 pairs at depth 8; outputs equal"
    assert re.fullmatch(r"B/A \d+\.\d{3} \[\d+\.\d{3}-\d+\.\d{3}\], B faster in [0-2]/2", lines[-1])


def test_one_pass_of_verify_against_itself():
    run = ab(ROOT, ROOT, "--passes", "1", workload="verify")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "workload verify, seed 0, 10 ops, 1 pairs at depth 0; outputs equal"
    assert re.fullmatch(r"B/A \d+\.\d{3} \[\d+\.\d{3}-\d+\.\d{3}\], B faster in [01]/1", lines[-1])


def copy_of_the_package(tmp_path, addition):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with (tmp_path / "src" / "weightmult" / "__init__.py").open("a") as f:
        f.write(addition)


def test_a_tree_with_other_verify_reports_is_refused(tmp_path):
    # off by one on every piece `auto` routes to the alternating sum: of the ten
    # modules only G2 (2,2) has such a piece, and its report no longer matches
    copy_of_the_package(
        tmp_path,
        "\nimport importlib\n\n"
        "_multiplicity = importlib.import_module('.multiplicity', __name__)\n"
        "_walk = _multiplicity._alternating_sum\n"
        "_multiplicity._alternating_sum = lambda *args: _walk(*args) + 1\n",
    )
    run = ab(ROOT, tmp_path, "--passes", "1", workload="verify")
    assert run.returncode == 1
    assert run.stdout.splitlines() == ["outputs differ: verify G2 (2,2)"]


def test_a_tree_with_other_outputs_is_refused(tmp_path):
    copy_of_the_package(
        tmp_path,
        "\n_character = character\n\n\n"
        "def character(rs, lam):\n"
        "    chart = dict(_character(rs, lam))\n"
        "    chart[next(iter(chart))] += 1\n"
        "    return chart\n",
    )
    run = ab(ROOT, tmp_path, "--passes", "1")
    assert run.returncode == 1
    assert run.stdout.splitlines()[0] == "outputs differ: char E8 (1,0,0,0,0,0,0,0)"
