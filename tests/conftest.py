"""Suite-wide check: a test run leaves the tracked tree as it found it.

`git status --porcelain` is taken when the session starts and again when it
ends; any difference fails the run and is printed.  Outside a git checkout,
or without git, the check is skipped.  Reports and caches that the tests
write go to ignored paths (`reports/`, `.hypothesis/`, `__pycache__/`), so
they do not show.
"""

import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_TREE = pytest.StashKey[str | None]()


def _porcelain() -> str | None:
    """The checkout's `git status --porcelain`, or None outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain"], capture_output=True, text=True
        )
    except OSError:
        return None
    return done.stdout if done.returncode == 0 else None


def pytest_sessionstart(session):
    session.config.stash[_TREE] = _porcelain()


def pytest_sessionfinish(session, exitstatus):
    before = session.config.stash.get(_TREE, None)
    if before is None:
        return
    after = _porcelain()
    if after != before:
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        if reporter is not None:
            reporter.ensure_newline()
            reporter.write_sep("=", "the test run changed the tracked tree", red=True)
            reporter.write_line(f"git status --porcelain before:\n{before}and after:\n{after}")
        session.exitstatus = pytest.ExitCode.TESTS_FAILED

