"""The code-line counter in tools/loc.py."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "loc.py"
_spec = importlib.util.spec_from_file_location("loc", TOOL)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SAMPLE = '''"""Module docstring,
on two lines."""

# a comment

X = """a string that is code,
on two lines"""


class C:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        return (1 +  # a trailing comment
                2)
'''


def test_docstrings_comments_and_blank_lines_are_not_code(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # X's two lines, `class C:`, `def f`, and the two lines of the return
    assert loc.count(path) == (len(SAMPLE.splitlines()), 6)


def test_the_package_total_is_the_sum_of_its_files(capsys):
    assert loc.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    files, (physical, code, _, name) = rows[:-1], rows[-1]
    assert name == "(weightmult)"
    assert int(physical) == sum(int(row[0]) for row in files)
    assert int(code) == sum(int(row[1]) for row in files)
