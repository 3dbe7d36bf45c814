"""Property tests for :mod:`repro.parallel`, the package's one process pool.

The callers' own parity tests (distance engine, experiment runner,
loadsweep, sweep executor) check that their results do not depend on
``jobs``; these check the primitive's contract directly: every task
settles exactly once with ``fn``'s outcome, failures read the same
in-process and forked, retries and timeouts behave, and no child
outlives the call.
"""

import multiprocessing
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import LostTask, fork_map, ordered_map

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


def square_or_raise(x):
    if x < 0:
        raise ValueError(f"negative item {x}")
    return x * x


def normalized(outcomes):
    """Outcomes keyed by index, exceptions compared by type and message."""
    return {
        index: (ok, value if ok else (type(value), str(value)), attempts)
        for index, ok, value, attempts in outcomes
    }


def gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


@given(
    items=st.lists(st.integers(-3, 20), max_size=6),
    jobs=st.integers(1, 3),
)
@settings(max_examples=20, deadline=None)
def test_outcomes_equal_fn_and_each_index_settles_once(items, jobs):
    outcomes = list(fork_map(square_or_raise, items, jobs))
    assert sorted(index for index, *_ in outcomes) == list(range(len(items)))
    for index, ok, value, attempts in outcomes:
        assert attempts == 1
        if items[index] < 0:
            assert not ok and isinstance(value, ValueError)
            assert str(value) == f"negative item {items[index]}"
        else:
            assert ok and value == items[index] ** 2


@given(
    items=st.lists(st.integers(0, 20), max_size=6),
    jobs=st.integers(1, 3),
)
@settings(max_examples=15, deadline=None)
def test_ordered_map_equals_map(items, jobs):
    assert list(ordered_map(square_or_raise, items, jobs)) == list(
        map(square_or_raise, items)
    )


def test_failure_reads_the_same_in_process_and_forked():
    items = [2, -1, 3]
    in_process = normalized(fork_map(square_or_raise, items, 1))
    forked = normalized(fork_map(square_or_raise, items, 2))
    assert forked == in_process
    assert in_process[1] == (False, (ValueError, "negative item -1"), 1)
    for jobs in (1, 2):
        with pytest.raises(ValueError, match="negative item -1"):
            list(ordered_map(square_or_raise, items, jobs))


@pytest.mark.parametrize("jobs", [1, 2])
def test_task_failing_once_settles_on_retry(tmp_path, jobs):
    marker = tmp_path / "failed-once"

    def flaky(x):
        # Children share no memory, so the first failure is a file.
        if x == 1 and not marker.exists():
            marker.touch()
            raise RuntimeError("transient")
        return x

    outcomes = normalized(fork_map(flaky, [0, 1, 2], jobs, retries=1))
    assert outcomes == {0: (True, 0, 1), 1: (True, 1, 2), 2: (True, 2, 1)}


@pytest.mark.parametrize("jobs", [1, 2])
def test_sleeping_task_is_killed_at_its_timeout(tmp_path, jobs):
    def task(x):
        (tmp_path / f"pid-{x}").write_text(str(os.getpid()))
        if x == 0:
            time.sleep(30.0)
        return x

    start = time.monotonic()
    outcomes = {
        index: (ok, value)
        for index, ok, value, _ in fork_map(task, [0, 1, 2], jobs, timeout_s=0.5)
    }
    elapsed = time.monotonic() - start
    assert 0.5 <= elapsed < 5.0
    ok, value = outcomes[0]
    assert not ok and isinstance(value, LostTask)
    assert str(value) == "timeout after 0.5s"
    assert outcomes[1] == (True, 1) and outcomes[2] == (True, 2)
    pids = {int((tmp_path / f"pid-{x}").read_text()) for x in range(3)}
    assert os.getpid() not in pids  # a timeout forks even at jobs=1
    assert all(gone(pid) for pid in pids)


def test_child_that_exits_early_is_a_lost_worker():
    def task(x):
        if x == 1:
            os._exit(3)
        return x

    outcomes = normalized(fork_map(task, [0, 1], 2))
    assert outcomes[0] == (True, 0, 1)
    assert outcomes[1] == (
        False, (LostTask, "worker exited without a result"), 1
    )


def test_closing_early_kills_live_children(tmp_path):
    def task(x):
        # Written under another name and renamed, so the wait below never
        # sees a pid file without its pid.
        partial = tmp_path / f"partial-{x}"
        partial.write_text(str(os.getpid()))
        os.replace(partial, tmp_path / f"pid-{x}")
        if x:
            time.sleep(30.0)
        return x

    outcomes = fork_map(task, [0, 1, 2], 3)
    assert next(outcomes)[:3] == (0, True, 0)
    files = [tmp_path / f"pid-{x}" for x in (1, 2)]
    deadline = time.monotonic() + 5.0
    while not all(f.exists() for f in files) and time.monotonic() < deadline:
        time.sleep(0.01)
    pids = [int(f.read_text()) for f in files]
    assert not any(gone(pid) for pid in pids)
    start = time.monotonic()
    outcomes.close()
    assert time.monotonic() - start < 5.0
    assert all(gone(pid) for pid in pids)


def test_without_fork_tasks_run_in_process(monkeypatch):
    items = [2, -1, 3]
    expected = normalized(fork_map(square_or_raise, items, 1))
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: ["spawn"]
    )
    assert normalized(fork_map(square_or_raise, items, 2)) == expected
    pids = list(ordered_map(lambda _: os.getpid(), items[:2], 2))
    assert pids == [os.getpid()] * 2


def test_refused_fork_runs_the_task_in_process(monkeypatch):
    items = [2, -1, 3]
    expected = normalized(fork_map(square_or_raise, items, 1))

    def refuse(self):
        raise OSError("fork refused")

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", refuse)
    assert normalized(fork_map(square_or_raise, items, 2)) == expected
    pids = list(ordered_map(lambda _: os.getpid(), items[:2], 2))
    assert pids == [os.getpid()] * 2
