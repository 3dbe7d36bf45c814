"""Fork-based map over independent tasks: the package's one process pool.

The paper's evaluation is made of independent seeded runs, and every
fan-out here is a map of one function over independent items whose
results must not depend on how many workers computed them: the distance
engine's pair slices, experiment ids, loadsweep cells and sweep
scenarios.  :func:`fork_map` runs such a map and yields each task's
outcome as it settles; :func:`ordered_map` puts the outcomes back in
input order.

Forked tasks reach their child by address-space inheritance, not by
pickling, so ``fn`` may be a lambda or closure (figure 7's measures and
``repro-simulate --classify`` pass parameter-capturing lambdas) and the
items may be large; only each task's outcome crosses a pipe.  Each task
gets its own child, so a task past its deadline is killed without
harming the others.  A global that a test monkeypatches before the call
is inherited by every child.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from contextlib import closing
from multiprocessing.connection import wait
from typing import Callable, Iterator, Optional, Sequence, Tuple

__all__ = ["LostTask", "fork_map", "ordered_map"]

#: How long the parent waits on child pipes before re-checking deadlines
#: (seconds); without a timeout it waits until a child reports or exits.
_POLL_S = 0.05


class LostTask(RuntimeError):
    """A forked task that settled without an outcome of its own: killed
    at its deadline, or exited without reporting one."""


def _call(fn: Callable, item) -> Tuple[bool, object]:
    try:
        return True, fn(item)
    except Exception as error:
        return False, error


def _child(fn: Callable, item, conn) -> None:
    """Forked task body: ship ``(ok, value)`` and exit."""
    try:
        outcome = (True, fn(item))
    except BaseException as error:  # the parent wants the reason, whatever it is
        outcome = (False, error)
    try:
        conn.send(outcome)
    finally:
        conn.close()


def _start(context, fn: Callable, item):
    """Fork a child running ``fn(item)``: ``(reader, process)``, or None
    when the fork is refused (e.g. by a process-count limit)."""
    reader, writer = context.Pipe(duplex=False)
    process = context.Process(target=_child, args=(fn, item, writer), daemon=True)
    try:
        process.start()
    except OSError:
        reader.close()
        return None
    finally:
        writer.close()
    return reader, process


def fork_map(
    fn: Callable,
    items: Sequence,
    jobs: int,
    *,
    timeout_s: Optional[float] = None,
    retries: int = 0,
) -> Iterator[Tuple[int, bool, object, int]]:
    """Run ``fn(item)`` for every item; yield ``(index, ok, value, attempts)``
    as each task settles.

    ``value`` is ``fn``'s result when ``ok``; otherwise it is the
    exception the task raised, or a :class:`LostTask` for a child killed
    at ``timeout_s`` or lost without an outcome.  A failed task is tried
    again up to ``retries`` times before it settles.

    Tasks run in-process, in input order, when there is no timeout and
    ``jobs == 1`` or there are fewer than two tasks, or when the ``fork``
    start method is missing; only ``Exception`` is caught there.
    Otherwise each task runs in its own forked child, at most ``jobs``
    alive at once, and a task whose child cannot be started (``OSError``)
    runs in-process.  Closing the generator early kills every live child.
    """
    in_process = "fork" not in multiprocessing.get_all_start_methods() or (
        timeout_s is None and (jobs == 1 or len(items) < 2)
    )
    context = None if in_process else multiprocessing.get_context("fork")
    queue = deque((index, 1) for index in range(len(items)))
    # reader -> (index, attempts, process, deadline), in start order
    live = {}

    def settle(index, attempts, ok, value):
        if ok or attempts > retries:
            return index, ok, value, attempts
        queue.appendleft((index, attempts + 1))
        return None

    try:
        while queue or live:
            while queue and len(live) < jobs:
                index, attempts = queue.popleft()
                child = None if in_process else _start(context, fn, items[index])
                if child is None:
                    outcome = settle(index, attempts, *_call(fn, items[index]))
                    if outcome is not None:
                        yield outcome
                    continue
                deadline = None if timeout_s is None else time.monotonic() + timeout_s
                live[child[0]] = (index, attempts, child[1], deadline)
            if not live:
                continue

            ready = wait(list(live), timeout=None if timeout_s is None else _POLL_S)
            now = time.monotonic()
            for reader in list(live):
                index, attempts, process, deadline = live[reader]
                if reader in ready:
                    try:
                        ok, value = reader.recv()
                    except (EOFError, OSError):
                        ok, value = False, LostTask("worker exited without a result")
                    process.join(timeout=5.0)
                elif deadline is not None and now >= deadline:
                    ok, value = False, LostTask(f"timeout after {timeout_s:g}s")
                else:
                    continue
                del live[reader]
                reader.close()
                if process.is_alive():
                    process.kill()
                    process.join()
                outcome = settle(index, attempts, ok, value)
                if outcome is not None:
                    yield outcome
    finally:
        for reader, (_, _, process, _) in live.items():
            process.kill()
            process.join()
            reader.close()


def ordered_map(fn: Callable, items: Sequence, jobs: int) -> Iterator:
    """``fn(item)`` for every item, yielded in input order as soon as each
    is ready, through :func:`fork_map`.

    A failed task's exception is raised when its turn comes; the children
    still running are killed.
    """
    settled = {}
    turn = 0
    with closing(fork_map(fn, items, jobs)) as outcomes:
        for index, ok, value, _ in outcomes:
            settled[index] = ok, value
            while turn in settled:
                ok, value = settled.pop(turn)
                if not ok:
                    raise value
                yield value
                turn += 1
