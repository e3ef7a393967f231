"""The command-line examples in README.md print what the README shows."""

import re
from pathlib import Path

import pytest

from weightmult.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
_MEDIAN = re.compile(r"median \d+ us")


def readme_examples():
    """``{verb: (argv, expected output lines)}`` for each ``$ weightmult`` example."""
    examples = {}
    lines = README.read_text().splitlines()
    for at, line in enumerate(lines):
        if not line.startswith("$ weightmult "):
            continue
        argv = line.split()[2:]
        expected = []
        for out in lines[at + 1:]:
            if not out.strip() or out.startswith("```"):
                break
            expected.append(out)
        examples[argv[0]] = (argv, expected)
    return examples


def _masked(lines):
    # wall times are host-dependent; every other character must match
    return [_MEDIAN.sub("median N us", line) for line in lines]


@pytest.mark.parametrize("verb", ["mult", "dim", "bench"])
def test_readme_example_output(verb, capsys):
    examples = readme_examples()
    assert verb in examples, f"README has no `$ weightmult {verb}` example"
    argv, expected = examples[verb]
    assert expected, f"README shows no output for `$ weightmult {verb}`"
    assert main(argv) == 0
    assert _masked(capsys.readouterr().out.splitlines()) == _masked(expected)
