"""Fixtures shared by the test modules."""

import gc

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


@pytest.fixture(autouse=True)
def nothing_left_frozen():
    """Fail a test that leaves objects frozen by ``gc.freeze()``.

    A freeze turns the garbage it catches into a leak, so only ``cli.run()``
    may call it, as its process ends; ``cli.main`` called in process must
    not. The frozen objects are released before the failure is reported.
    """
    yield
    frozen = gc.get_freeze_count()
    if frozen:
        gc.unfreeze()
        pytest.fail(f"{frozen} objects left frozen by gc.freeze()")
