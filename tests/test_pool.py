from __future__ import annotations

import random
import signal
import threading
import time

import pytest

from quizeval import pool
from quizeval.pool import ordered_map


def _jittered(fn):
    """``fn`` behind a random 0-5 ms wait, so workers finish out of order."""
    def call(item):
        time.sleep(random.uniform(0, 0.005))
        return fn(item)
    return call


@pytest.mark.parametrize("parallelism", [1, 2, 4, 16])
def test_results_come_in_item_order(parallelism):
    items = list(range(40))
    assert ordered_map(_jittered(lambda i: i * i), items, parallelism) == [i * i for i in items]


def test_each_item_is_taken_once():
    taken = []
    assert ordered_map(_jittered(taken.append), "abcdefgh", 3) == [None] * 8
    assert sorted(taken) == list("abcdefgh")


@pytest.mark.parametrize("parallelism,items", [(1, range(5)), (8, range(1)), (8, range(0))])
def test_one_worker_starts_no_thread(parallelism, items, monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(pool, "Thread", no_thread)
    assert ordered_map(str, items, parallelism) == [str(i) for i in items]


@pytest.mark.parametrize("parallelism", [0, -1])
def test_parallelism_below_one_rejected(parallelism):
    with pytest.raises(ValueError, match=f"parallelism must be >= 1, got {parallelism}"):
        ordered_map(str, [1], parallelism)


@pytest.mark.parametrize("parallelism", [1, 2, 4])
def test_first_exception_is_reraised_and_stops_the_workers(parallelism):
    failing, calls = 10, []
    error = RuntimeError("item 10")

    def call(item):
        calls.append(item)
        if item == failing:
            raise error
        # Like an endpoint, a call takes time; instant calls would let the
        # workers drain the items before the failure reaches them.
        time.sleep(0.005)
        return item

    with pytest.raises(RuntimeError) as excinfo:
        ordered_map(call, range(50), parallelism)
    assert excinfo.value is error
    assert len(calls) <= failing + parallelism
    assert [t for t in threading.enumerate() if t.name == "quizeval-worker"] == []


def test_interrupt_of_the_caller_stops_the_workers(monkeypatch):
    interrupted_at, parallelism, calls = 10, 4, []
    main = threading.main_thread().ident
    lock, running = threading.Lock(), [0]
    stopped = threading.Event()

    class Condition(threading.Condition):
        # The interrupted caller waits for the calls in flight only after it
        # has stopped the workers from taking new items.
        def wait_for(self, predicate, timeout=None):
            stopped.set()
            return super().wait_for(predicate, timeout)

    monkeypatch.setattr(pool, "Condition", Condition)

    def call(item):
        with lock:
            calls.append(item)
            running[0] += 1
        if item == interrupted_at:
            signal.pthread_kill(main, signal.SIGINT)
        elif item > interrupted_at:
            # However late the caller handles the interrupt, each worker can
            # take at most one item after the interrupted one.
            stopped.wait(timeout=60)
        time.sleep(0.005)
        with lock:
            running[0] -= 1
        return item

    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            ordered_map(call, range(200), parallelism)
        # The calls in flight have finished by the time the interrupt is re-raised.
        assert running == [0]
    finally:
        signal.signal(signal.SIGINT, previous)
    assert stopped.is_set()
    assert len(calls) <= interrupted_at + parallelism + 1
