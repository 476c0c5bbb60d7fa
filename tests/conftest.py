import threading

import pytest


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves more threads running than it found."""
    before = threading.active_count()
    yield
    leaked = threading.active_count() - before
    if leaked > 0:
        names = sorted(thread.name for thread in threading.enumerate())
        pytest.fail(f"test left {leaked} more thread(s) running: {names}")
