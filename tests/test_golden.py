"""Golden outputs of the command line on every file in tests/data.

Each case runs one command on one ``*.scsp`` file and compares its exit
code, standard output and standard error with the file
``tests/data/golden/<file>.<command>.txt``.  After a change that is meant
to alter the output, rewrite the golden files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import contextlib
import io
from pathlib import Path

import pytest

from scsp.cli import main

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden"
COMMANDS = ("solve", "check", "decompose", "oracle", "graph")
SOURCES = sorted(DATA.glob("*.scsp"))
CASES = [(command, source) for source in SOURCES for command in COMMANDS]


def transcript(command: str, source: Path) -> str:
    """Exit code, stdout and stderr of ``scsp <command> <source>``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(source)])
    return (f"exit {code}\n--- stdout\n{out.getvalue()}"
            f"--- stderr\n{err.getvalue()}")


def golden_path(command: str, source: Path) -> Path:
    return GOLDEN / f"{source.stem}.{command}.txt"


@pytest.mark.parametrize("command,source", CASES,
                         ids=[f"{c}-{s.stem}" for c, s in CASES])
def test_cli_output_matches_golden(command, source):
    assert transcript(command, source) == golden_path(command, source).read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        golden_path(*case).write_text(transcript(*case))
