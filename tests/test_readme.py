"""README's examples hold as written.

The ``python`` block runs; the ``scsp 1`` text parses to the instance of
``tests/data/chain.scsp``; and the ``$ scsp solve chain.scsp`` transcript
is the standard output recorded in that command's golden file.
"""

import re
from pathlib import Path

from scsp import Solution, parse_instance

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
# (language, text) of each fenced block
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$",
                    (ROOT / "README.md").read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def block(language: str, start: str) -> str:
    """The text of README's one block in ``language`` that starts with
    ``start``."""
    found = [text for lang, text in BLOCKS
             if lang == language and text.startswith(start)]
    assert len(found) == 1, f"{len(found)} {language!r} blocks start {start!r}"
    return found[0]


def test_the_library_example_runs():
    namespace = {}
    exec(block("python", "from scsp import"), namespace)
    solution = namespace["solution"]
    assert isinstance(solution, Solution) and solution.evaluation.is_zero


def test_the_file_format_example_is_the_chain_fixture():
    text = block("", "scsp 1\n")
    chain = (DATA / "chain.scsp").read_text(encoding="utf-8")
    assert parse_instance(text) == parse_instance(chain)


def test_the_solve_transcript_is_the_golden_output():
    command, output = block("", "$ scsp solve chain.scsp\n").split("\n", 1)
    golden = (DATA / "golden" / "chain.solve.txt").read_text(encoding="utf-8")
    stdout = golden.split("--- stdout\n", 1)[1].split("--- stderr\n", 1)[0]
    assert command == "$ scsp solve chain.scsp" and output == stdout
