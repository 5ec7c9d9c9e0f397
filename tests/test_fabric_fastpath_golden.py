"""Property tests for the analytic holds under every fabric leg.

:meth:`Resource.occupy` and :meth:`CPU.execute_ev` replace the explicit
request/timeout/release process pattern on the message path.  These
hypothesis tests drive both under random contention and assert
identical completion times and busy-time accounting.  The path built
on them is pinned end to end by ``tests/test_stack_golden.py``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import CPU, Resource, Simulator


# --------------------------------------------------------------------------
# Property tests: occupy() == request/timeout/release under contention.

#: (start, hold, priority) triples.  Integer-derived floats keep the
#: arithmetic identical between the two executions; equal starts and
#: zero-length holds are the interesting collision cases.
_JOBS = st.lists(
    st.tuples(st.integers(0, 6).map(lambda t: t * 0.5),     # start
              st.integers(0, 8).map(lambda d: d * 0.25),    # hold
              st.integers(0, 1)),                           # priority
    min_size=1, max_size=12)


def _via_occupy(capacity, jobs):
    sim = Simulator()
    res = Resource(sim, capacity)
    done = [None] * len(jobs)

    def launch(i, hold, priority):
        ev = res.occupy(hold, priority)
        ev.callbacks.append(lambda _e, i=i: done.__setitem__(i, sim.now))

    for i, (start, hold, priority) in enumerate(jobs):
        sim.after(start, lambda _e, i=i, h=hold, p=priority: launch(i, h, p))
    sim.run()
    return done, res.busy_time(), res.in_use


def _via_process(capacity, jobs):
    """The pattern ``occupy`` replaced: spawn a request/hold/release
    process at the start instant.  (Parity is with a freshly *spawned*
    process — spawn posts a bootstrap event, so the request lands one
    dispatch after the call, exactly where ``occupy`` defers its
    request at busy instants.)"""
    sim = Simulator()
    res = Resource(sim, capacity)
    done = [None] * len(jobs)

    def worker(i, hold, priority):
        yield res.request(priority)
        try:
            yield sim.timeout(hold)
        finally:
            res.release()
        done[i] = sim.now

    for i, (start, hold, priority) in enumerate(jobs):
        sim.after(start, lambda _e, i=i, h=hold, p=priority:
                  sim.spawn(worker(i, h, p)))
    sim.run()
    return done, res.busy_time(), res.in_use


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), _JOBS)
def test_occupy_matches_process_pattern(capacity, jobs):
    fast_done, fast_busy, fast_in_use = _via_occupy(capacity, jobs)
    slow_done, slow_busy, slow_in_use = _via_process(capacity, jobs)
    assert fast_done == slow_done
    assert fast_busy == slow_busy
    assert fast_in_use == slow_in_use == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5).map(lambda d: d * 0.125),
                          st.integers(0, 1)),
                min_size=1, max_size=8))
def test_execute_ev_matches_execute(charges):
    """``CPU.execute_ev`` holds the CPU exactly like ``CPU.execute``."""
    def waiter(ev):
        yield ev

    def via_ev():
        sim = Simulator()
        cpu = CPU(sim)
        for seconds, priority in charges:
            sim.spawn(waiter(cpu.execute_ev(seconds, priority)))
        sim.run()
        return sim.now, cpu.busy_time()

    def via_gen():
        sim = Simulator()
        cpu = CPU(sim)
        for seconds, priority in charges:
            sim.spawn(cpu.execute(seconds, priority))
        sim.run()
        return sim.now, cpu.busy_time()

    assert via_ev() == via_gen()


def test_occupy_rejects_negative():
    sim = Simulator()
    res = Resource(sim, 1)
    from repro.sim import SimulationError
    with pytest.raises(SimulationError):
        res.occupy(-1.0)
