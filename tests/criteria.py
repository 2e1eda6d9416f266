"""Acceptance-criterion verdicts that `conftest.py` prints at the end of a run.

A module of its own, so that test modules import it by a name no other test
directory's `conftest` shadows.
"""

CRITERIA: list[tuple[str, bool, str]] = []


def record_criterion(name: str, passed: bool, detail: str = "") -> None:
    """Collect one acceptance-criterion verdict for the end-of-run summary."""
    CRITERIA.append((name, passed, detail))
