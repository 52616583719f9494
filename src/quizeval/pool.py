"""An ordered worker pool for calls that mostly wait on the network.

``ordered_map`` runs ``fn`` over a sequence on a few threads and returns the
results in the sequence's order. The workers take indices from one shared
iterator, so no per-item future or queue entry is allocated, and each
result goes into its own preallocated slot.
"""

from __future__ import annotations

from threading import Condition, Thread
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(fn: Callable[[T], R], items: Sequence[T], parallelism: int) -> list[R]:
    """``[fn(item) for item in items]``, computed by up to ``parallelism``
    threads; with one worker (or one item) no thread is started.

    The first exception raised by ``fn``, or an interrupt of the calling
    thread, stops every worker from taking a new item; the calls already
    running finish, and then that exception is re-raised unchanged. Items
    that were never taken are never passed to ``fn``.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    workers = min(parallelism, len(items))
    if workers <= 1:
        return [fn(item) for item in items]

    results: list = [None] * len(items)
    indices = iter(range(len(items)))
    state = Condition()
    failures: list[BaseException] = []
    in_flight = 0

    def take() -> int | None:
        nonlocal in_flight
        with state:
            index = None if failures else next(indices, None)
            if index is not None:
                in_flight += 1
            return index

    def work() -> None:
        nonlocal in_flight
        while (index := take()) is not None:
            try:
                results[index] = fn(items[index])
            except BaseException as exc:
                with state:
                    failures.append(exc)
            finally:
                with state:
                    in_flight -= 1
                    state.notify_all()

    started: list[Thread] = []
    try:
        for _ in range(workers):
            thread = Thread(target=work, name="quizeval-worker", daemon=True)
            thread.start()
            started.append(thread)
        for thread in started:
            thread.join()
    except BaseException as exc:
        # An interrupted join may leave its thread marked as stopped while it
        # still runs (Python 3.11), so wait for the calls, not the threads.
        with state:
            failures.insert(0, exc)
            state.wait_for(lambda: in_flight == 0)
        raise
    if failures:
        raise failures[0]
    return results
