from pathlib import Path

import numpy as np
import pytest

from criteria import CRITERIA

_HERE = Path(__file__).parent

# After a failing hypothesis test, hypothesis imports libcst to write its
# failure patch, and that import raises this warning. As an error it would
# end the session in INTERNALERROR instead of reporting the failure.
_LIBCST_IMPORT_WARNING = r"ignore:mypy_extensions\.TypedDict is deprecated:DeprecationWarning"


def pytest_collection_modifyitems(config, items):
    """Make any warning raised by a test of this directory fail that test."""
    for item in items:
        if _HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error", _LIBCST_IMPORT_WARNING))


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
