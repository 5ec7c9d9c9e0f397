"""Unit tests for the network fabric: paths, costs, ordering, accounting."""

import pytest

from repro.network import DAS_PARAMS, Fabric, uniform_clusters
from repro.scenario import install
from repro.sim import Simulator


def make_fabric(n_clusters=2, nodes_per_cluster=4, params=DAS_PARAMS):
    sim = Simulator()
    topo = uniform_clusters(n_clusters, nodes_per_cluster)
    return sim, Fabric(sim, topo, params)


def roundtrip(fab, a, b, size):
    """Null-RPC-style ping-pong; returns round-trip virtual time."""
    sim = fab.sim

    def server():
        msg = yield fab.nodes[b].port("rpc").get()
        yield from fab.send(b, msg.src, size, port="reply")

    def client():
        t0 = sim.now
        yield from fab.send(a, b, size, port="rpc")
        yield fab.nodes[a].port("reply").get()
        return sim.now - t0

    sim.spawn(server())
    return sim.run_process(client())


def test_lan_null_rpc_latency_about_40us():
    sim, fab = make_fabric()
    rt = roundtrip(fab, 0, 1, 0)
    assert rt == pytest.approx(40e-6, rel=0.15)


def test_wan_null_rpc_latency_about_2_7ms():
    sim, fab = make_fabric()
    rt = roundtrip(fab, 0, 4, 0)  # node 4 is in cluster 1
    assert rt == pytest.approx(2.7e-3, rel=0.1)


def test_wan_latency_dominates_lan_by_two_orders():
    _, fab1 = make_fabric()
    lan = roundtrip(fab1, 0, 1, 0)
    _, fab2 = make_fabric()
    wan = roundtrip(fab2, 0, 4, 0)
    assert wan / lan > 50


def test_lan_bandwidth_large_messages():
    # Stream 10 x 100 KB messages one-way; throughput ~ 208 Mbit/s.
    sim, fab = make_fabric()
    n, size = 10, 100 * 1024

    def sender():
        for _ in range(n):
            yield from fab.send(0, 1, size, port="data")

    def receiver():
        t0 = sim.now
        for _ in range(n):
            yield fab.nodes[1].port("data").get()
        return sim.now - t0

    sim.spawn(sender())
    elapsed = sim.run_process(receiver())
    mbit_s = n * size * 8 / elapsed / 1e6
    assert mbit_s == pytest.approx(208.0, rel=0.2)


def test_wan_bandwidth_large_messages():
    sim, fab = make_fabric()
    n, size = 5, 100 * 1024

    def sender():
        for _ in range(n):
            yield from fab.send(0, 4, size, port="data")

    def receiver():
        for _ in range(n):
            yield fab.nodes[4].port("data").get()
        return sim.now

    sim.spawn(sender())
    elapsed = sim.run_process(receiver())
    mbit_s = n * size * 8 / elapsed / 1e6
    assert mbit_s == pytest.approx(4.53, rel=0.15)


def test_same_pair_messages_arrive_in_order():
    sim, fab = make_fabric()
    seen = []

    def sender():
        for i in range(20):
            yield from fab.send(0, 1, 100 * (i % 3), payload=i, port="seq")

    def receiver():
        for _ in range(20):
            msg = yield fab.nodes[1].port("seq").get()
            seen.append(msg.payload)

    sim.spawn(sender())
    sim.spawn(receiver())
    sim.run()
    assert seen == list(range(20))


def test_self_send_is_fast_and_delivered():
    sim, fab = make_fabric()

    def proc():
        yield from fab.send(2, 2, 64, payload="loop", port="self")
        msg = yield fab.nodes[2].port("self").get()
        return (msg.payload, sim.now)

    payload, t = sim.run_process(proc())
    assert payload == "loop"
    assert t < 1e-4


def test_multicast_local_reaches_whole_cluster():
    sim, fab = make_fabric(n_clusters=2, nodes_per_cluster=4)
    got = []

    def listener(nid):
        msg = yield fab.nodes[nid].port("mc").get()
        got.append((nid, msg.payload))

    for nid in range(4):
        sim.spawn(listener(nid))

    def sender():
        done = yield from fab.multicast_local(0, 1024, payload="bc", port="mc")
        yield done

    sim.run_process(sender())
    assert sorted(got) == [(i, "bc") for i in range(4)]


def test_multicast_exclude_self():
    sim, fab = make_fabric(n_clusters=1, nodes_per_cluster=3)

    def sender():
        done = yield from fab.multicast_local(0, 10, port="mc",
                                              include_self=False)
        n = yield done
        return n

    assert sim.run_process(sender()) == 2
    assert len(fab.nodes[0].port("mc")) == 0


def test_gateway_multicast_reaches_remote_cluster_only():
    sim, fab = make_fabric(n_clusters=2, nodes_per_cluster=3)

    def sender():
        done = yield from fab.gateway_multicast(0, 1, 256, payload="x",
                                                port="mc")
        n = yield done
        return n

    n = sim.run_process(sender())
    assert n == 3
    for nid in range(3, 6):
        assert len(fab.nodes[nid].port("mc")) == 1
    for nid in range(0, 3):
        assert len(fab.nodes[nid].port("mc")) == 0


def test_gateway_multicast_same_cluster_rejected():
    sim, fab = make_fabric()

    def sender():
        yield from fab.gateway_multicast(0, 0, 10)

    with pytest.raises(ValueError):
        sim.run_process(sender())


def test_wan_byte_accounting():
    sim, fab = make_fabric()

    def proc():
        yield from fab.send_and_wait(0, 4, 1000, port="d")
        yield from fab.send_and_wait(0, 1, 5000, port="d")  # LAN: not counted

    sim.run_process(proc())
    assert fab.meter.wan_messages == 1
    assert fab.meter.wan_bytes == 1000


def test_wan_link_is_shared_and_serializes():
    # Two concurrent senders from cluster 0 to cluster 1 share one PVC:
    # total time for 2 big messages ~ 2 * size/bw, not size/bw.
    sim, fab = make_fabric(n_clusters=2, nodes_per_cluster=4)
    size = 250 * 1024  # ~0.45 s each on 4.53 Mbit/s

    def sender(src, dst):
        yield from fab.send(src, dst, size, port="d")

    def receiver():
        yield fab.nodes[4].port("d").get()
        yield fab.nodes[5].port("d").get()
        return sim.now

    sim.spawn(sender(0, 4))
    sim.spawn(sender(1, 5))
    elapsed = sim.run_process(receiver())
    one_tx = size / (4.53e6 / 8)
    assert elapsed > 1.9 * one_tx  # serialized, not parallel


def test_negative_size_rejected():
    sim, fab = make_fabric()

    def proc():
        yield from fab.send(0, 1, -5)

    with pytest.raises(ValueError):
        sim.run_process(proc())


def _striping_model(streams):
    """A decision model that stripes every 2-cluster WAN send ``streams``
    ways (the striped line is always cheaper)."""
    from repro.tuner import ContextModel, DecisionModel, FittedLine

    ctx = ContextModel(n_clusters=2, pb=FittedLine(0.0, 4e-6),
                       bb=FittedLine(0.0, 2e-6), bb_threshold=1024.0,
                       streams=((1, FittedLine(1.0, 0.0)),
                                (streams, FittedLine(0.0, 0.0))))
    return DecisionModel(contexts=((2, ctx),), source="test")


#: Streams per WAN path: one PVC transfer, or the striped transfer a
#: decision model selects.
WAN_PATHS = {"chain": 1, "striped": 4}


@pytest.mark.parametrize("path", sorted(WAN_PATHS))
@pytest.mark.parametrize("size", [0, 64 * 1024])
def test_send_and_wait_returns_at_wan_delivery_time(path, size):
    """send_and_wait over a WAN pair returns exactly when an identical
    send's delivery event fires and the message lands in the port."""
    stripes = WAN_PATHS[path]

    def fabric():
        sim = Simulator()
        fab = Fabric(sim, uniform_clusters(2, 4), DAS_PARAMS)
        if stripes > 1:
            fab.decision = _striping_model(stripes)
        return sim, fab

    sim, fab = fabric()

    def waiter():
        msg = yield from fab.send_and_wait(0, 4, size, port="d")
        return sim.now, msg

    waited_at, msg = sim.run_process(waiter())
    assert (msg.src, msg.dst, msg.size) == (0, 4, size)
    assert fab.meter.wan_messages == (stripes if size else 1)

    sim, fab = fabric()
    got = []

    def receiver():
        yield fab.nodes[4].port("d").get()
        got.append(sim.now)

    def sender():
        done = yield from fab.send(0, 4, size, port="d")
        yield done
        return sim.now

    sim.spawn(receiver())
    delivered_at = sim.run_process(sender())
    assert waited_at == delivered_at == got[0] > 0.0


def test_impaired_striped_and_shaped_wan_paths_spawn_no_process():
    """Impaired, striped and chain/binomial WAN transfers are callback
    chains like every other leg: the driver is the only process."""
    from .test_stack_golden import IMPAIRED

    sim = Simulator()
    fab = Fabric(sim, uniform_clusters(4, 3), DAS_PARAMS)
    install(sim, fab, IMPAIRED)
    fab.decision = _striping_model(4)

    def driver():
        done = yield from fab.send(0, 3, 4096)
        yield done
        for shape in ("flat", "chain", "binomial"):
            for streams in (1, 4):
                done = yield from fab.wan_fanout_multicast(
                    0, 4096, shape=shape, streams=streams)
                assert (yield done) == 9
    sim.run_process(driver())
    assert sim.stats()["spawns"] == 1
    # The send went out as 4 stripes; each fan-out crossed 3 PVCs with
    # 1 or 4 stripes per hop.
    assert fab.meter.wan_messages == 4 + 3 * (3 * 1 + 3 * 4)
