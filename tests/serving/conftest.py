"""Serving-suite guard rails.

Every test in this directory runs under a hard wall-clock timeout: the
micro-batch coalescer blocks on real pipes for a batch's first line, and a
coalescer bug must fail the test quickly instead of hanging the pipeline
until CI's global timeout.  SIGALRM (main thread, POSIX) stands in for a
pytest timeout plugin so no extra dependency is needed.
"""

import signal

import pytest

#: Generous per-test ceiling (seconds) — each test finishes in well under 10.
TEST_TIMEOUT = 60


@pytest.fixture(autouse=True)
def per_test_timeout():
    def on_timeout(signum, frame):
        raise TimeoutError(
            f"serving test exceeded {TEST_TIMEOUT}s — the coalescer is "
            "hung")

    previous = signal.signal(signal.SIGALRM, on_timeout)
    signal.alarm(TEST_TIMEOUT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
