"""The per-test time limit of conftest.py."""

import signal
import time

import pytest
from conftest import TEST_TIME_LIMIT_S, TimeLimitExceeded, time_limit


def test_a_hang_becomes_a_failure():
    with pytest.raises(TimeLimitExceeded, match="the loop ran past 0.05 s"):
        with time_limit(0.05, "the loop"):
            while True:
                pass


def test_every_test_runs_under_the_limit_and_an_inner_limit_gives_it_back():
    remaining = signal.getitimer(signal.ITIMER_REAL)[0]
    assert 0 < remaining <= TEST_TIME_LIMIT_S
    with time_limit(5, "an inner block"):
        time.sleep(0.01)
    assert 0 < signal.getitimer(signal.ITIMER_REAL)[0] <= remaining
