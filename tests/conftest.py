from pathlib import Path

import numpy as np
import pytest

from criteria import CRITERIA

_HERE = Path(__file__).parent


def pytest_collection_modifyitems(config, items):
    """Make any warning raised by a test of this directory fail that test."""
    for item in items:
        if _HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in CRITERIA:
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] {name}"
        if detail:
            line += f" - {detail}"
        terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
