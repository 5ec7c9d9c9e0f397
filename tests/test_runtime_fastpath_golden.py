"""The Orca control plane as callback chains: counters and holdback order.

Broadcast delivery (armed ports + holdback drain), sequencer
``try_acquire`` analytic stamps, chained dissemination and the chained
RPC service run without per-node server or dispatcher processes.  Their
virtual-time results are pinned end to end by
``tests/test_stack_golden.py``; here:

* the ``Simulator.stats()`` counters (``spawns``, ``fast_completions``,
  ``fallbacks``) — the runtime itself spawns no process;
* hypothesis property tests driving :class:`TotalOrderBroadcast`
  holdback delivery directly under adversarial arrival orders, against
  an analytic reference.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import PAPER_ORDER, make_app, small_params
from repro.harness.experiment import run_app
from repro.network import DAS_PARAMS, Fabric, uniform_clusters
from repro.network.message import Message, reset_ids
from repro.orca import OrcaRuntime
from repro.orca.broadcast import BCAST_PORT, BcastPayload, TotalOrderBroadcast
from repro.orca.sequencer import CentralizedSequencer
from repro.sim import Simulator


def test_runtime_spawns_no_process():
    sim = Simulator()
    fabric = Fabric(sim, uniform_clusters(2, 3), DAS_PARAMS)
    OrcaRuntime(sim, fabric)
    assert sim.stats()["spawns"] == 0


@pytest.mark.parametrize("app_name", PAPER_ORDER)
def test_stats_counters(app_name):
    res = run_app(make_app(app_name), "original", 2, 2,
                  small_params(app_name))
    stats = res.sim_stats
    assert stats["spawns"] == stats["processes_spawned"]
    # Every app completes some work inline at quiet instants and defers
    # some at busy ones.
    assert stats["fast_completions"] > 0
    assert stats["fallbacks"] > 0


# --------------------------------------------------------------------------
# Holdback delivery under adversarial arrival orders.
#
# Drives TotalOrderBroadcast directly: stamped payloads are deposited
# into a node's broadcast port in a hypothesis-chosen permutation at
# hypothesis-chosen (possibly colliding) instants.  Nothing else uses
# the node's CPU, so the apply of seq ``s`` must complete at
# ``max(arrival(s), done(s - 1)) + _APPLY_COST``, each seq exactly once
# and in order.

_APPLY_COST = 1e-5


def _drive_holdback(order, delays):
    reset_ids()
    sim = Simulator()
    fabric = Fabric(sim, uniform_clusters(1, 2), DAS_PARAMS)
    log = []

    def apply(node, payload, k):
        def _charged(_ev):
            log.append((node, payload.seq, sim.now))
            k(payload.seq)
        fabric.nodes[node].cpu.execute_ev(
            _APPLY_COST).callbacks.append(_charged)

    tob = TotalOrderBroadcast(sim, fabric, CentralizedSequencer(sim, 1, 0.0),
                              apply)
    port = fabric.nodes[0].port(BCAST_PORT)
    for seq, delay in zip(order, delays):
        payload = BcastPayload(seq=seq, obj_name="o", op_name="w",
                               args=(), sender=1)
        msg = Message(src=1, dst=0, size=64, payload=payload,
                      port=BCAST_PORT, kind="bcast")
        sim.after(delay, lambda _ev, m=msg: port.put(m))
    sim.run()
    return log, tob.applied_sequence(0)


def _reference(order, delays):
    """Analytic apply log: (node, seq, completion time) in seq order."""
    arrival = dict(zip(order, delays))
    log, done = [], 0.0
    for seq in range(len(order)):
        done = max(arrival[seq], done) + _APPLY_COST
        log.append((0, seq, done))
    return log


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda n: st.tuples(
        st.permutations(list(range(n))),
        st.lists(st.integers(0, 4).map(lambda d: d * 0.25),
                 min_size=n, max_size=n))))
def test_holdback_delivery_matches_reference(order_delays):
    order, delays = order_delays
    log, applied = _drive_holdback(order, delays)
    assert applied == list(range(len(order)))
    assert log == _reference(order, delays)


@settings(max_examples=30, deadline=None)
@given(st.permutations(list(range(5))))
def test_holdback_same_instant_burst(order):
    """All arrivals in one instant: the drain applies the whole run in
    one go once the gap closes, back to back."""
    delays = [0.0] * len(order)
    log, applied = _drive_holdback(order, delays)
    assert applied == list(range(len(order)))
    assert log == _reference(order, delays)
