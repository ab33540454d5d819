"""The documented quickstarts run as written.

The README's "Quickstart" block and the ``repro`` package docstring's
example are the first code a reader copies; each must still print the
bytes it wrote.
"""

import contextlib
import io
import os
import re
import textwrap

import repro

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def readme_quickstart():
    with open(os.path.join(REPO_ROOT, "README.md")) as handle:
        text = handle.read()
    section = text.split("## Quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def package_quickstart():
    body = repro.__doc__.split("Quickstart::", 1)[1]
    # The literal block is every indented (or blank) line after the marker.
    block = re.match(r"\n((?:\n|    .*\n)+)", body).group(1)
    return textwrap.dedent(block)


def run_source(source):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, "<quickstart>", "exec"), {})
    return out.getvalue()


def test_readme_quickstart_prints_what_it_wrote():
    assert run_source(readme_quickstart()).strip() == "b'hello danaus'"


def test_package_docstring_quickstart_prints_what_it_wrote():
    assert run_source(package_quickstart()).strip() == "b'hello danaus'"
