from pathlib import Path

import pytest

TASKS = Path("/proc/self/task")


def _children() -> set[str]:
    """Process ids of the live children of this process, over all its threads."""
    return {pid for f in TASKS.glob("*/children") for pid in f.read_text().split()}


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process of this one alive, such as a
    forked worker that outlived its run.  Without /proc nothing is
    checked."""
    if not TASKS.is_dir():
        yield
        return
    before = _children()
    yield
    left = _children() - before
    assert not left, f"child processes left alive: {sorted(left)}"
