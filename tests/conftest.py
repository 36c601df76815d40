import inspect
import random
import signal
import sys
import time
from contextlib import contextmanager
from unittest import mock

import pytest

from meyersig import presentations
from meyersig.presentations import shipped_presentation

# The longest one test may run: a fault that makes a loop run on (say a
# Euclid step that grows instead of shrinking) then fails its test instead
# of hanging the suite.  Far above the slowest test, which takes seconds.
TEST_TIME_LIMIT_S = 120.0


class TimeLimitExceeded(Exception):
    """Raised inside code that ran past its time limit."""


@contextmanager
def time_limit(seconds, what):
    """Raise TimeLimitExceeded in the main thread once ``seconds`` of wall
    time have gone by, by the real-time interval timer and SIGALRM; an
    enclosing limit is restored with the time it has left."""
    def expire(signum, frame):
        raise TimeLimitExceeded(f"{what} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    outer, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if outer:
            signal.setitimer(signal.ITIMER_REAL, max(outer - (time.monotonic() - start), 1e-3))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    with time_limit(TEST_TIME_LIMIT_S, item.nodeid):
        return (yield)


@pytest.fixture(autouse=True)
def _fresh_presentation_memo():
    """Each test ends by emptying the loader's memo, so no presentation
    a test built (with a planted fault, say) is returned to another."""
    yield
    presentations._load_text.cache_clear()


@pytest.fixture(scope="session")
def sl2z():
    return shipped_presentation(1)


@pytest.fixture(scope="session")
def genus2():
    return shipped_presentation(2)


@pytest.fixture
def rng():
    return random.Random(20240917)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) wraps every meyersig module binding of
    ``owner.name`` in one counting mock and returns the mock."""

    def count(owner, name):
        original = getattr(owner, name)
        counter = mock.Mock(wraps=original)
        for module_name, module in list(sys.modules.items()):
            if module_name == "meyersig" or module_name.startswith("meyersig."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counter)
        return counter

    return count


@pytest.fixture
def line_runs():
    """line_runs(fn, text, *names) records each run of the one line of
    fn's source that holds ``text``, from the call to the end of the test:
    it returns a list that gets, as the line starts, the tuple of fn's
    locals ``names`` (an empty tuple without names).  It counts work that
    straight-line code inlines, where a call counter sees nothing, by a
    tracer on fn's own frames (sys.settrace)."""
    watched = {}
    previous = sys.gettrace()

    def local(frame, event, arg):
        if event == "line" and (lines := watched[frame.f_code].get(frame.f_lineno)):
            values = frame.f_locals
            for names, runs in lines:
                runs.append(tuple([values[name] for name in names]))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code in watched else None

    def watch(fn, text, *names):
        lines, start = inspect.getsourcelines(fn)
        found = [start + k for k, line in enumerate(lines) if text in line]
        assert len(found) == 1, (fn.__name__, text, found)
        runs = []
        watched.setdefault(fn.__code__, {}).setdefault(found[0], []).append((names, runs))
        sys.settrace(tracer)
        return runs

    yield watch
    sys.settrace(previous)
