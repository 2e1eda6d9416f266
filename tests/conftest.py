from pathlib import Path

import numpy as np
import pytest

_HERE = Path(__file__).parent

_CRITERIA: list[tuple[str, bool, str]] = []


def record_criterion(name: str, passed: bool, detail: str = "") -> None:
    """Collect one acceptance-criterion verdict for the end-of-run summary."""
    _CRITERIA.append((name, passed, detail))


def pytest_collection_modifyitems(config, items):
    """Make any warning raised by a test of this directory fail that test."""
    for item in items:
        if _HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in _CRITERIA:
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] {name}"
        if detail:
            line += f" - {detail}"
        terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
