"""The README's library example runs as written, and its selftest usage line
lists every suite."""

import re
from pathlib import Path

from hsdual import selftest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_readme_lists_every_selftest_suite():
    (choices,) = re.findall(r"--suite ([\w|-]+)\]", README.read_text())
    assert set(choices.split("|")) == {"all", *selftest.SUITES}
