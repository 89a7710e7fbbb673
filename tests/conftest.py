"""Fixtures shared by the test modules."""

import os

import pytest

from htmr_lab import network


@pytest.fixture
def empty_workspace():
    """Empty the calling thread's block workspace, before and after the test.

    ``network._block_buffers`` keeps a thread's buffers from one
    ``run_trials`` call to the next, so a test that measures or fails an
    allocation starts from none. The fixture's value empties the workspace
    again, say after a warm-up run.
    """

    def clear():
        vars(network._workspace).clear()

    clear()
    yield clear
    clear()


@pytest.fixture
def forks(monkeypatch):
    """The pid of every worker process forked during the test, in order.

    Wraps ``os.fork``; a forked worker's own copy of the list stays empty.
    After the test, no worker may be left and the test process's CPU
    affinity must be what it was before.
    """
    forked = []
    fork = os.fork
    affinity = os.sched_getaffinity(0)

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    yield forked
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.sched_getaffinity(0) == affinity

