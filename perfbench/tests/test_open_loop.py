import threading
import time

import pytest

from child import open_loop, since_due


class Future:
    def __init__(self, latency_s, ready=True):
        self.latency_s = latency_s
        self.ready = ready

    def done(self):
        return self.ready

    def result(self, timeout=None):
        # Like ServiceFuture.result: wait up to ``timeout`` for a result.
        deadline = time.perf_counter() + (timeout or 0)
        while not self.ready:
            if time.perf_counter() >= deadline:
                raise TimeoutError("result not ready")
            time.sleep(0.001)
        return self


def test_latency_counts_from_the_due_time():
    assert since_due(due=10.0, submitted=10.25, latency_s=0.5) == pytest.approx(0.75)


def test_a_stall_makes_later_requests_late_and_is_counted():
    finished = []

    def send(number):
        if number == 0:
            time.sleep(0.06)  # a submit that stalls holds up everything due meanwhile
        return Future(0.001)

    def finish(due, submitted, number, future):
        finished.append((number, due, submitted, since_due(due, submitted, future.result().latency_s)))

    offsets = [0.0, 0.01, 0.02, 0.15]
    open_loop(time.perf_counter() + 0.01, offsets, send, finish)
    assert [number for number, *_ in finished] == [0, 1, 2, 3]
    for _, due, submitted, latency in finished:
        assert submitted >= due
        assert latency == pytest.approx(submitted - due + 0.001)
    late = [submitted - due for _, due, submitted, _ in finished]
    assert late[1] >= 0.04 and late[2] >= 0.03
    assert late[3] < 0.03  # back on schedule once the stall is over


def test_sends_do_not_wait_for_results():
    sent = []
    futures = []

    def send(number):
        sent.append(time.perf_counter())
        futures.append(Future(0.0, ready=False))
        return futures[-1]

    def finish(due, submitted, number, future):
        assert len(sent) == 4  # no result was ready, so none was consumed early
        future.ready = True

    start = time.perf_counter() + 0.01
    open_loop(start, [0.0, 0.01, 0.02, 0.03], send, finish)
    for moment, offset in zip(sent, [0.0, 0.01, 0.02, 0.03]):
        assert start + offset <= moment < start + offset + 0.02


def test_results_are_checked_only_while_nothing_is_in_flight():
    futures, checked_early = [], []

    def send(number):
        future = Future(0.0, ready=False)
        threading.Timer(0.005, setattr, (future, "ready", True)).start()
        futures.append(future)
        return future

    def finish(due, submitted, number, future):
        if len(futures) < 4:  # a check between sends
            assert all(f.ready for f in futures)
            checked_early.append(number)

    open_loop(time.perf_counter() + 0.01, [0.0, 0.05, 0.1, 0.15], send, finish)
    assert checked_early == [0, 1, 2]
