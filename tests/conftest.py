"""Repeat the acceptance criterion lines after the captured test output.

Also put src on PYTHONPATH, as pyproject.toml puts it on pytest's own path,
so that tests running `python -m circlecorr.cli` work without an install.
"""

import os
import sys
from pathlib import Path

os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]))


def pytest_terminal_summary(terminalreporter):
    lines = []
    for name, module in list(sys.modules.items()):
        if name.rpartition(".")[2] == "test_acceptance" and module is not None:
            lines = getattr(module, "RESULT_LINES", [])
            break
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
