"""The README's examples run and print what their comments say.

The Python quick start is executed as written, so a renamed or removed
function fails here; then each line `expression  # comment` is evaluated
and the value checked against its comment.  Command lines whose comment
is their whole output are run through the CLI in this process.
"""

import re
import shlex
from fractions import Fraction
from pathlib import Path

from prefixnormal import hamming, iter_all

from helpers import run_in_process

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(title: str, lang: str) -> str:
    """The first fenced block of language `lang` after the heading `title`."""
    section = README.split(f"\n## {title}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.DOTALL).group(1)


def _commented(block: str) -> dict[str, str]:
    """Each line's code, stripped, mapped to its trailing comment."""
    lines = (line.partition("#") for line in block.splitlines())
    return {code.strip(): comment.strip() for code, sep, comment in lines if sep and code.strip()}


def test_quick_start_runs_and_its_comments_hold():
    block = _block("Library quick start", "python")
    namespace: dict = {}
    exec(block, namespace)
    comment = _commented(block)
    value = {code: eval(code, namespace) for code in comment}

    assert value['is_prefix_normal("11001010")'] is True
    assert comment['is_prefix_normal("11001010")'] == "True"

    lex = value["list(iter_all(4))"]
    shown = comment["list(iter_all(4))"].split(", ")
    assert (lex[0], lex[-1]) == ("0000", "1111")
    assert shown[:3] + shown[-1:] == lex[:3] + lex[-1:] and shown[3] == "..."
    gray = value["list(iter_all(4, Order.GRAY))"]
    assert sorted(gray) == lex
    assert all(hamming(a, b) <= 3 for a, b in zip(gray, gray[1:]))

    assert value['min_flip("100100000000")'] == 7
    assert comment['min_flip("100100000000")'] == "7"

    prof = value['density_profile("110100101001")']
    assert (prof.density, prof.length) == (Fraction(5, 11), 11)
    assert comment['density_profile("110100101001")'] == (
        f"{prof.density}, attained by the first {prof.length} symbols")

    assert value['detect_period("101").period'] == "01"
    assert comment['detect_period("101").period'] == "'01'"


def test_command_lines_print_their_commented_output():
    # A comment made only of digits is the command's whole output.
    outputs = {code: out for code, out in _commented(_block("Command line", "")).items()
               if out.isdigit()}
    assert outputs == {"prefixnormal gen -n 5 --count-only": "14",
                       "prefixnormal extend 101 --steps 2": "1010101"}
    for code, out in outputs.items():
        assert run_in_process(*shlex.split(code)[1:]) == (0, out + "\n"), code
