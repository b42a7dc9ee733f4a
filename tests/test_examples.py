"""Every example runs clean.

Each script under ``examples/`` executes as ``__main__`` (through
:func:`runpy.run_path`, stdout captured), so an API change that breaks an
example fails here instead of in a reader's terminal.  The examples assert
their own invariants (strategies agree, answers equal the oracle); this test
adds only that they run to the end and print their report.
"""

from __future__ import annotations

import os
import runpy

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "examples")
EXAMPLES = sorted(name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py"))


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, capsys):
    runpy.run_path(os.path.join(EXAMPLES_DIR, name), run_name="__main__")
    assert capsys.readouterr().out
