"""The README's library example prints what it shows, and its selftest usage
line lists every suite."""

import doctest
import re
from pathlib import Path

from hsdual import selftest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    (block,) = re.findall(r"^```pycon\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    example = doctest.DocTestParser().get_doctest(block, {}, "README.md", str(README), 0)
    result = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS).run(example)
    assert result == (0, len(example.examples))


def test_readme_lists_every_selftest_suite():
    (choices,) = re.findall(r"--suite ([\w|-]+)\]", README.read_text())
    assert set(choices.split("|")) == {"all", *selftest.SUITES}
