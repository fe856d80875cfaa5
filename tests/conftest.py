"""Shared test helpers."""
import contextlib
import signal
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def build_data(monkeypatch):
    """scripts/build_data.py, the definition of the bundled suite, imported by path."""
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import build_data

    return build_data


@pytest.fixture(scope="session")
def time_limit():
    """`with time_limit(s):` raises TimeoutError in a block still running after s seconds.

    It arms a SIGALRM timer, so it works on the main thread only; a regression
    into an endless loop then fails its test instead of hanging the suite.
    """

    @contextlib.contextmanager
    def limit(seconds: float):
        def expire(_signum, _frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
