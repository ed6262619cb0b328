"""A per-test watchdog, from the standard library alone.

A test still running after WATCHDOG_S seconds is stopped where it is: it
fails with the stack it was stopped at, and the run stops after it, with
its usual summary.  A loop that never ends is seldom met by one test alone
(flip the exit test of `theorems._minimize_by_flow` and about twenty hang), so
one stop is worth more than a limit per test.  The limit is about eight
times the slowest test.  The timer is SIGALRM's, so where that signal does
not exist (Windows) the watchdog does nothing.
"""

import signal
import traceback

import pytest

WATCHDOG_S = 60


class Hang(BaseException):
    """The watchdog's stop: not an Exception, so that no `except Exception`
    (hypothesis's, say, which would rerun the test to shrink it) takes it."""


def _expire(signum, frame):
    raise Hang(f"the test ran past the {WATCHDOG_S} s watchdog")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        return (yield)
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, WATCHDOG_S)
    try:
        return (yield)
    except Hang as stop:
        item.session.shouldstop = f"{item.nodeid} ran past the watchdog"
        # A frame stopped by a signal may have no line number, which pytest
        # cannot show, so the stack goes into the message as text.
        raise Hang("".join(traceback.format_exception(stop))) from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
