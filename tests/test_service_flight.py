"""The single-flight primitive's own contract (repro.service.cache).

The scheduler, the daemon batcher and the executor all coalesce through
:class:`SingleFlight`; these cases pin what none of their tests reach:
joining, identity-guarded settles, unindex-before-resolve, and a
leader's exception reaching every joiner.
"""

import sys
import threading

import pytest

from repro.service.cache import SingleFlight


def test_first_caller_leads_and_later_callers_join():
    flights = SingleFlight()
    first, leader = flights.join("k")
    second, joined_leader = flights.join("k")
    other, other_leader = flights.join("other")
    assert leader and not joined_leader and other_leader
    assert second is first and other is not first
    assert first.waiters == 2
    assert len(flights) == 2
    flights.settle("k", first, "artifact")
    assert second.result(0) == "artifact"
    assert len(flights) == 1


def test_settle_unindexes_before_it_resolves():
    """A caller woken by the result must start a new flight, not join
    the finished one."""
    flights = SingleFlight()
    flight, _ = flights.join("k")
    rejoined = []
    flight.add_done_callback(lambda _: rejoined.append(flights.join("k")))
    flights.settle("k", flight, "artifact")
    (new, leader), = rejoined
    assert leader and new is not flight


def test_stale_settle_leaves_the_newer_flight_indexed():
    flights = SingleFlight()
    old, _ = flights.join("k")
    flights.clear()  # forgets the old flight; its leader still settles
    new, leader = flights.join("k")
    assert leader and new is not old
    flights.settle("k", old, "stale")
    assert old.result(0) == "stale"
    assert not new.done()
    joined, joined_leader = flights.join("k")
    assert joined is new and not joined_leader
    assert len(flights) == 1
    flights.settle("k", new, "fresh")
    assert joined.result(0) == "fresh"
    assert len(flights) == 0


def test_leader_exception_reaches_every_joiner_and_frees_the_key():
    flights = SingleFlight()
    leader_flight, _ = flights.join("k")
    joiners = 4
    joined = threading.Barrier(joiners + 1)
    raised: list[BaseException] = []

    def join_and_wait() -> None:
        flight, leader = flights.join("k")
        assert not leader
        joined.wait(5)
        try:
            flight.result(5)
        except RuntimeError as exc:
            raised.append(exc)

    threads = [threading.Thread(target=join_and_wait)
               for _ in range(joiners)]
    for thread in threads:
        thread.start()
    joined.wait(5)
    boom = RuntimeError("compile exploded")
    flights.settle("k", leader_flight, error=boom)
    for thread in threads:
        thread.join(5)
    assert raised == [boom] * joiners
    with pytest.raises(RuntimeError, match="compile exploded"):
        leader_flight.result(0)
    assert len(flights) == 0
    fresh, leader = flights.join("k")
    assert leader and fresh is not leader_flight


def test_racing_callers_share_flights_without_lost_joins():
    """More threads than cores on a short switch interval: every caller
    gets the outcome of the flight it joined, every join is counted, and
    no key stays indexed."""
    threads, rounds = 16, 50
    flights = SingleFlight()
    seen: list[tuple[int, object, object]] = []
    seen_lock = threading.Lock()
    start = threading.Barrier(threads)

    def caller() -> None:
        start.wait(10)
        for key in range(rounds):
            flight, leader = flights.join(key)
            if leader:
                flights.settle(key, flight, object())
            outcome = flight.result(10)
            with seen_lock:
                seen.append((key, flight, outcome))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=caller) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(seen) == threads * rounds
    assert all(outcome is flight.result(0) for _, flight, outcome in seen)
    for key in range(rounds):
        joined = {flight for k, flight, _ in seen if k == key}
        assert sum(flight.waiters for flight in joined) == threads
    assert len(flights) == 0
