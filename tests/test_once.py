"""The build-once memo: one build per key, also for concurrent callers."""

import sys
import threading
import time
from collections import Counter

import pytest

from periodiclab.once import Once


def run_threads(*targets, timeout=10.0):
    # daemon threads: a deadlocked memo fails the join below instead of hanging the run
    threads = [threading.Thread(target=target, daemon=True) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
        assert not thread.is_alive()


def test_concurrent_callers_of_one_key_build_once():
    memo, builds, got = Once(), [], []

    def slow_build():
        builds.append(1)
        time.sleep(0.2)     # holds the build open while the other caller asks
        return object()

    def ask():
        got.append(memo.get("key", slow_build))

    run_threads(ask, ask)
    assert len(builds) == 1
    assert len(got) == 2 and got[0] is got[1]


def test_two_keys_build_in_parallel():
    memo, started = Once(), threading.Barrier(2, timeout=5.0)

    def build(value):
        def inner():
            started.wait()  # breaks unless the other key's build runs at the same time
            return value
        return inner

    got = {}
    run_threads(lambda: got.update(a=memo.get("a", build(1))),
                lambda: got.update(b=memo.get("b", build(2))))
    assert got == {"a": 1, "b": 2}


def test_a_raising_build_keeps_nothing():
    memo, calls = Once(), []

    def failing():
        calls.append(1)
        raise ValueError("no convergence")

    for _ in range(2):
        with pytest.raises(ValueError, match="no convergence"):
            memo.get("key", failing)
    assert len(calls) == 2
    assert memo.get("key", lambda: 3) == 3
    assert memo.get("key", failing) == 3
    assert len(calls) == 2


def test_a_build_may_ask_for_another_key():
    memo, builds = Once(), []

    def base():
        builds.append("base")
        return 1

    def derived():
        builds.append("derived")
        return memo.get("base", base) + 1

    got = []
    run_threads(lambda: got.append(memo.get("derived", derived)))
    assert got == [2]
    assert memo.get("base", base) == 1
    assert builds == ["derived", "base"]


def test_many_callers_many_keys_build_each_key_once():
    """Eight threads over 50 keys with a tiny switch interval: a lost update
    in the memo would show as a second build or a second value for a key."""
    memo, builds, got = Once(), Counter(), [[] for _ in range(8)]

    def build(key):
        def inner():
            builds[key] += 1
            time.sleep(0)   # a real build releases the interpreter lock
            return object()
        return inner

    def ask(out):
        for key in range(50):
            out.append(memo.get(key, build(key)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_threads(*[lambda out=out: ask(out) for out in got], timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert builds == Counter(range(50))
    for out in got[1:]:
        assert all(a is b for a, b in zip(out, got[0])) and len(out) == 50
