from pathlib import Path

import pytest

from test_pipeline import _children


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process of this one alive, such as a
    forked worker that outlived its run.  Without /proc nothing is
    checked."""
    if not Path("/proc/self/task").is_dir():
        yield
        return
    before = _children()
    yield
    left = _children() - before
    assert not left, f"child processes left alive: {sorted(left)}"
