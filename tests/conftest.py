"""Fixtures shared by the test modules."""

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
