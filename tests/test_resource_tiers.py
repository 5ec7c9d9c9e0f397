"""Cross-tier tests for the counted ``Resource`` and its charge path.

``Resource`` is part of the two-tier engine contract: the pure-Python
reference (``_pyengine.Resource``) and its C transcription
(``_ccore.c``) must agree on errors, state accessors, grant order and
every heap entry.  Three kinds of coverage:

* each tier module on its own, in process: error messages, accessors,
  and the per-priority FIFO shared by ``_request`` events and
  ``_occupy`` charges;
* a hypothesis property over random request/occupy/release programs
  through the public :class:`repro.sim.Resource`, whose completion
  times, ``busy_time`` and ``Simulator.stats()`` must be identical in
  this process and in a subprocess running the other tier (tiers cannot
  be mixed in one process through the facade);
* the public charge entry points stay plain Python functions, which the
  reproduction benchmark's call counter reads ``__code__`` from.
"""

import inspect
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import CPU, Resource, SimulationError, Simulator, primitives
from repro.sim import _pyengine
from repro.sim._build import compiler_available
from repro.sim.engine import ENGINE_TIER

TIERS = [("python", _pyengine)]
if compiler_available():
    from repro.sim import _cengine

    TIERS.append(("compiled", _cengine))

_tier = pytest.mark.parametrize(
    "engine", [m for _, m in TIERS], ids=[n for n, _ in TIERS])

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ------------------------------------------------- per-tier behaviour


def _error_messages(engine):
    sim = engine.Simulator()
    attempts = (
        lambda: engine.Resource(sim, 0),
        lambda: engine.Resource(sim, 1, "link")._occupy(-1.5),
        lambda: engine.Resource(sim, 1, "cpu7").release(),
    )
    messages = []
    for attempt in attempts:
        with pytest.raises(SimulationError) as err:
            attempt()
        messages.append(str(err.value))
    return messages


def test_error_messages_match_across_tiers():
    expected = ["resource capacity must be >= 1: 0",
                "negative occupy time: -1.5",
                "release of idle resource 'cpu7'"]
    for name, engine in TIERS:
        assert _error_messages(engine) == expected, name


@_tier
def test_uninitialized_resource_raises(engine):
    """A Resource made by ``__new__`` alone raises instead of crashing."""
    res = engine.Resource.__new__(engine.Resource)
    for call in (lambda: res._occupy(1.0), lambda: res._request(),
                 res.release, res.busy_time):
        with pytest.raises((RuntimeError, AttributeError)):
            call()


@_tier
def test_accessors(engine):
    sim = engine.Simulator()
    res = engine.Resource(sim, 2, name="gwaccess0")
    assert (res.name, res.capacity, res.in_use, res.queue_length) == (
        "gwaccess0", 2, 0, 0)
    res._occupy(3.0)      # quiet and free: both granted inline
    res._occupy(2.0)
    res._occupy(1.0, 1)   # full: both queued
    res._request(0)
    assert (res.in_use, res.queue_length) == (2, 2)
    sim.run()
    # The urgent request takes the slot freed at t=2 and keeps it; the
    # queued charge holds the one freed at t=3 until t=4.
    assert (res.in_use, res.queue_length) == (1, 0)
    assert sim.now == 4.0
    assert res.busy_time() == 8.0
    res.release()
    assert res.in_use == 0


@_tier
def test_urgent_first_then_fifo_with_mixed_waiters(engine):
    """Priority-0 waiters precede priority-1 waiters; within a level,
    ``_request`` events and ``_occupy`` charges share one FIFO, and an
    already-triggered waiter is skipped."""
    sim = engine.Simulator()
    res = engine.Resource(sim, 1)
    grants = []

    def requested(tag, priority):
        def granted(_ev):
            grants.append((tag, sim.now))
            sim.after(1.0, lambda _ev2: res.release())
        res._request(priority).callbacks.append(granted)

    def charged(tag, priority):
        res._occupy(1.0, priority,
                    lambda t0, qdepth: grants.append((tag, t0, qdepth)))

    res._request()
    sim.run()  # the holder has its slot; the instant is quiet again
    requested("low request", 1)
    charged("low charge", 1)
    charged("urgent charge", 0)
    res._request(0).succeed("abandoned")  # triggered: skipped on release
    requested("urgent request", 0)
    assert (res.in_use, res.queue_length) == (1, 5)
    sim.after(1.0, lambda _ev: res.release())
    sim.run()
    assert grants == [("urgent charge", 1.0, 4), ("urgent request", 2.0),
                      ("low request", 3.0), ("low charge", 4.0, 3)]
    assert (res.in_use, res.queue_length, sim.now) == (0, 0, 5.0)
    assert res.busy_time() == 5.0


@_tier
def test_busy_instant_charge_counts_a_fallback(engine):
    sim = engine.Simulator()
    res = engine.Resource(sim, 1)
    res._occupy(1.0)  # quiet: granted inline
    sim.timeout(0.0)  # now the instant is busy
    res._occupy(1.0)
    sim.run()
    stats = sim.stats()
    assert stats["fallbacks"] == 1
    assert sim.now == 2.0


# --------------------------------- random programs, across the tiers

#: One op: (start, kind, resource, hold, priority).  Quarter-second
#: grids make same-instant collisions common.
_OPS = st.lists(
    st.tuples(st.integers(0, 8).map(lambda t: t * 0.25),
              st.sampled_from(["occupy", "occupy", "request", "abandon"]),
              st.integers(0, 1),
              st.integers(0, 6).map(lambda d: d * 0.25),
              st.integers(0, 1)),
    min_size=1, max_size=16)


def run_program(capacities, ops):
    """Interpret ``ops`` through the public Resource API; return every
    observable as a JSON-ready dict."""
    sim = Simulator()
    res = [Resource(sim, cap, name=f"r{i}") for i, cap in enumerate(capacities)]
    log = []

    def start(i, kind, r, hold, priority):
        resource = res[r]
        if kind == "occupy":
            resource.occupy(
                hold, priority,
                lambda t0, qd: log.append(["released", i, sim.now, t0, qd])
            ).callbacks.append(lambda _ev: log.append(["done", i, sim.now]))
            return
        ev = resource.request(priority)
        if kind == "abandon" and not ev.triggered:
            ev.succeed(None)  # give up the place in the queue
            log.append(["abandoned", i, sim.now])
            return

        def granted(_ev):
            log.append(["granted", i, sim.now])
            sim.after(hold, lambda _ev2: (resource.release(),
                                          log.append(["done", i, sim.now])))
        ev.callbacks.append(granted)

    for i, (t, kind, r, hold, priority) in enumerate(ops):
        sim.after(t, lambda _ev, a=(i, kind, r, hold, priority): start(*a))
    sim.run()
    return {"log": log, "now": sim.now, "stats": sim.stats(),
            "busy": [x.busy_time() for x in res],
            "state": [[x.in_use, x.queue_length] for x in res]}


_SERVER = """
import json, sys
from tests.test_resource_tiers import run_program
from repro.sim.engine import ENGINE_TIER
print(ENGINE_TIER, flush=True)
for line in sys.stdin:
    capacities, ops = json.loads(line)
    print(json.dumps(run_program(capacities, ops)), flush=True)
"""


@pytest.fixture(scope="module")
def other_tier():
    """A subprocess running :func:`run_program` on the tier this process
    did not load."""
    other = "python" if ENGINE_TIER == "compiled" else "compiled"
    if other == "compiled" and not compiler_available():
        pytest.skip("no C compiler: compiled tier unavailable")
    env = dict(os.environ, REPRO_ENGINE=other)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT, env.get("PYTHONPATH", "")])
    proc = subprocess.Popen([sys.executable, "-c", _SERVER], cwd=ROOT,
                            env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    assert proc.stdout.readline().strip() == other

    def run(capacities, ops):
        proc.stdin.write(json.dumps([capacities, ops]) + "\n")
        proc.stdin.flush()
        return json.loads(proc.stdout.readline())

    yield run
    proc.stdin.close()
    proc.wait(timeout=30)


@settings(deadline=None, max_examples=60)
@given(capacities=st.lists(st.integers(1, 2), min_size=2, max_size=2),
       ops=_OPS)
def test_random_programs_agree_across_tiers(other_tier, capacities, ops):
    ops = [list(op) for op in ops]
    here = json.loads(json.dumps(run_program(capacities, ops)))
    assert here == other_tier(capacities, ops)


# ------------------------------------------ profiler-visible wrappers


def test_charge_entry_points_are_python_functions():
    """perfbench's call counter reads ``__code__`` from each of these by
    name in its class's own ``__dict__``."""
    for cls, name in ((Resource, "request"), (Resource, "occupy"),
                      (CPU, "execute_ev")):
        fn = cls.__dict__[name]
        assert inspect.isfunction(fn), (cls, name)
        assert fn.__code__.co_filename == primitives.__file__
