"""The multilevel network fabric: nodes, gateways, LAN and WAN paths.

The fabric is the paper's DAS machine model:

* Every compute node has one CPU (a FIFO resource shared between
  application compute and per-message protocol overheads) and per-node
  LAN injection/delivery ports (so endpoint contention is modeled, while
  disjoint pairs communicate in parallel — a crossbar-like Myrinet).
* Every cluster has one *dedicated* gateway (it runs no application code,
  matching the paper).  Intercluster messages travel
  node -> access link -> gateway -> WAN PVC -> remote gateway -> access
  link -> node, with store-and-forward CPU cost at each gateway.
* WAN PVCs are per directed cluster pair (the DAS has a Permanent Virtual
  Circuit between every pair of sites), each a bandwidth-serialized link.
* The LAN supports hardware-assisted multicast (Myrinet FM broadcast):
  one injection, parallel delivery to all cluster nodes.

Send semantics: :meth:`Fabric.send` is a generator to be driven by the
*calling* process — the caller pays the sender-side CPU overhead
synchronously, then the rest of the path proceeds in the background.  It
returns the delivery event, so callers can also wait for arrival.
:meth:`Fabric.send_chain` is the same send for callers that are
themselves callback chains; each generator entry point shares one
cost-and-launch helper with its ``*_chain`` twin.

There is one message path (see ``docs/ARCHITECTURE.md``, *One message
path and its dispatch-order contract*).  Every leg — LAN, WAN, the
impaired and striped PVC stages, and the flat, chain and binomial
fan-out trees — is a flat callback chain on :meth:`Resource.occupy
<repro.sim.Resource.occupy>` / :meth:`CPU.execute_ev
<repro.sim.CPU.execute_ev>` completion events: an uncontended leg at a
quiet instant costs one heap entry per virtual-time advance, no
generator and no :class:`~repro.sim.Process`.  At a busy instant each
step defers through the heap at a fixed dispatch depth, so same-instant
races linearize the same way on every run.  The committed digests in
``tests/data/stack_golden.json`` pin the path's virtual times, answers,
traffic counters and trace records.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..metrics.counters import TrafficMeter
from ..sim import CPU, Channel, Event, Resource, Simulator, Tracer, fire
from .message import Message
from .params import LINK_CLASSES, NetworkParams
from .topology import Topology

__all__ = ["Node", "Gateway", "Fabric"]


class Node:
    """A compute node: CPU + named mailboxes (ports)."""

    def __init__(self, sim: Simulator, nid: int, cluster: int):
        self.sim = sim
        self.nid = nid
        self.cluster = cluster
        self.cpu = CPU(sim, name=f"cpu{nid}")
        self._ports: Dict[str, Channel] = {}

    def port(self, name: str = "default") -> Channel:
        """The named mailbox on this node (created on first use)."""
        ch = self._ports.get(name)
        if ch is None:
            ch = self._ports[name] = Channel(self.sim, name=f"n{self.nid}:{name}")
        return ch

    def __repr__(self) -> str:
        return f"Node({self.nid}@c{self.cluster})"


class Gateway:
    """A dedicated store-and-forward gateway for one cluster."""

    def __init__(self, sim: Simulator, cluster: int):
        self.sim = sim
        self.cluster = cluster
        self.cpu = CPU(sim, name=f"gw{cluster}")

    def __repr__(self) -> str:
        return f"Gateway(c{self.cluster})"


class Fabric:
    """Routes messages over the multilevel cluster."""

    def __init__(self, sim: Simulator, topo: Topology, params: NetworkParams,
                 meter: Optional[TrafficMeter] = None,
                 tracer: Optional[Tracer] = None):
        self.sim = sim
        self.topo = topo
        self.params = params
        self.meter = meter if meter is not None else TrafficMeter()
        self.tracer = tracer if tracer is not None else Tracer()
        #: Optional :class:`repro.scenario.apply.WanImpairments`.  When
        #: installed, every WAN PVC transfer draws a perturbation plan
        #: from it, in deterministic event order (see docs/SCENARIOS.md).
        self.impair = None
        #: Optional :class:`repro.tuner.DecisionModel`.  When installed,
        #: point-to-point WAN transfers consult it for a striping factor
        #: (MPWide-style parallel streams).  ``None`` (the default)
        #: means one stream — bit-identical to the pre-tuner fabric.
        #: See docs/TUNING.md.
        self.decision = None

        self.nodes: List[Node] = [
            Node(sim, nid, topo.cluster_of(nid)) for nid in range(topo.n_nodes)
        ]
        #: Per-node compute speed multipliers, or ``None`` when every
        #: node runs at 1.0 (the clean model — keeping ``None`` makes
        #: the scaling arithmetic a guaranteed no-op).  Seeded from the
        #: topology's per-cluster ``cpu_speed``; the ``slow_node`` fault
        #: rescales entries inside its window.  Consumed by
        #: :meth:`repro.orca.runtime.Context.compute`.
        speeds = [topo.clusters[node.cluster].cpu_speed for node in self.nodes]
        self.node_speed: Optional[List[float]] = (
            speeds if any(s != 1.0 for s in speeds) else None)
        #: Per-cluster LAN parameters: a cluster spec naming a ``link``
        #: class uses it, everyone else shares ``params.lan`` (the very
        #: same object, so homogeneous runs are bit-identical to the
        #: pre-heterogeneity fabric).
        for spec in topo.clusters:
            if spec.link is not None and spec.link not in LINK_CLASSES:
                raise ValueError(
                    f"cluster {spec.name!r} names unknown link class "
                    f"{spec.link!r}; choose from {sorted(LINK_CLASSES)}")
        self._cluster_lan = [
            params.lan if spec.link is None else LINK_CLASSES[spec.link]
            for spec in topo.clusters
        ]
        self.gateways: List[Gateway] = [
            Gateway(sim, ci) for ci in range(topo.n_clusters)
        ]
        # Per-node LAN ports: injection (out) and delivery (in).
        self._lan_out = [Resource(sim, name=f"lanout{n}") for n in range(topo.n_nodes)]
        self._lan_in = [Resource(sim, name=f"lanin{n}") for n in range(topo.n_nodes)]
        # Per-cluster gateway access links (shared by the whole cluster —
        # the DAS gateways hang off Fast Ethernet, a genuine bottleneck).
        self._gw_access = [Resource(sim, name=f"gwaccess{c}")
                           for c in range(topo.n_clusters)]
        # Directed WAN PVCs between cluster pairs.
        self._wan: Dict[Tuple[int, int], Resource] = {
            pair: Resource(sim, name=f"wan{pair}")
            for pair in topo.cluster_pairs()
        }

    # ------------------------------------------------------------------ API

    def node(self, nid: int) -> Node:
        """The compute node with global id ``nid``."""
        return self.nodes[nid]

    def _p2p_streams(self, size: int) -> int:
        """Striping factor for one point-to-point WAN transfer (1 =
        no decision model installed = the fixed default)."""
        if self.decision is None:
            return 1
        return max(1, self.decision.wan_streams(size, self.topo.n_clusters))

    def send(self, src: int, dst: int, size: int, payload: Any = None,
             port: str = "default", kind: str = "msg") -> Generator:
        """Generator: caller pays sender overhead, delivery runs in background.

        Yields from the calling process; *returns* the delivery
        :class:`Event` (fires with the :class:`Message` once deposited in
        the destination port).
        """
        charged, launch = self._send_leg(src, dst, size, payload, port, kind)
        yield charged
        return launch()

    def send_and_wait(self, src: int, dst: int, size: int, payload: Any = None,
                      port: str = "default", kind: str = "msg") -> Generator:
        """Generator: like :meth:`send` but blocks until delivery."""
        done = yield from self.send(src, dst, size, payload, port, kind)
        msg = yield done
        return msg

    def multicast_local(self, src: int, size: int, payload: Any = None,
                        port: str = "default", kind: str = "msg",
                        include_self: bool = True) -> Generator:
        """Myrinet-style LAN multicast from ``src`` to its whole cluster.

        Caller pays sender overhead; returns an event firing when *all*
        receivers have the message.
        """
        charged, launch = self._multicast_leg(src, size, payload, port, kind,
                                              include_self)
        yield charged
        return launch()

    def gateway_multicast(self, src: int, dst_cluster: int, size: int,
                          payload: Any = None, port: str = "default",
                          kind: str = "msg") -> Generator:
        """Send over the WAN to ``dst_cluster``'s gateway, which re-multicasts
        to every node of that cluster: a fan-out to that one cluster,
        striped like a point-to-point transfer."""
        if self.topo.cluster_of(src) == dst_cluster:
            raise ValueError("gateway_multicast targets a *remote* cluster")
        charged, launch = self._fanout_leg(
            src, [dst_cluster], size, payload, port, kind, "flat",
            self._p2p_streams(size))
        yield charged
        return launch()

    def wan_fanout_multicast(self, src: int, size: int, payload: Any = None,
                             port: str = "default", kind: str = "msg",
                             shape: str = "flat",
                             streams: int = 1) -> Generator:
        """Broadcast to *all remote clusters*: one access-link trip to the
        local gateway, then WAN transfers on the PVCs, each remote gateway
        re-multicasting locally.  This is how the DAS gateways fan out an
        Orca broadcast; the payload climbs the sender's access link only
        once.

        ``shape`` picks the dissemination tree over the remote clusters
        (``flat``: parallel PVC transfers from the source gateway —
        the paper's shape and the default; ``chain``: a gateway relay,
        each cluster forwarding to the next while its local multicast
        proceeds; ``binomial``: recursive halving over the gateways).
        ``streams`` stripes each WAN transfer over that many parallel
        chunks."""
        remote = self._remote_clusters(src)
        if not remote:
            done = Event(self.sim)
            done.succeed(0)
            return done
        charged, launch = self._fanout_leg(src, remote, size, payload, port,
                                           kind, shape, streams)
        yield charged
        return launch()

    # ----------------------------------------------- chain-style entry points
    #
    # Non-generator twins of send / multicast_local / wan_fanout_multicast
    # for callers that are themselves callback chains (the Orca runtime).
    # Each shares its cost-and-launch helper with the generator API;
    # ``then`` runs where a process driving the generator would resume.

    def send_chain(self, src: int, dst: int, size: int, payload: Any = None,
                   port: str = "default", kind: str = "msg",
                   then: Optional[Callable[[Event], None]] = None) -> None:
        """:meth:`send` as a callback chain: charge the sender CPU, then
        launch the delivery legs.  ``then(done)`` — if given — receives
        the delivery event once the sender-side overhead is paid, the
        point a driving process resumes at."""
        _launch_after(*self._send_leg(src, dst, size, payload, port, kind),
                      then)

    def multicast_local_chain(self, src: int, size: int, payload: Any = None,
                              port: str = "default", kind: str = "msg",
                              include_self: bool = True,
                              then: Optional[Callable[[Event], None]] = None
                              ) -> None:
        """:meth:`multicast_local` as a callback chain (see
        :meth:`send_chain`); ``then(done)`` receives the all-delivered
        event."""
        _launch_after(*self._multicast_leg(src, size, payload, port, kind,
                                           include_self), then)

    def wan_fanout_multicast_chain(self, src: int, size: int,
                                   payload: Any = None,
                                   port: str = "default", kind: str = "msg",
                                   shape: str = "flat", streams: int = 1,
                                   then: Optional[Callable[[Event], None]]
                                   = None) -> None:
        """:meth:`wan_fanout_multicast` as a callback chain (see
        :meth:`send_chain`).  With no remote clusters ``then(None)``
        runs synchronously — no event is created, so a quiet instant
        stays quiet."""
        remote = self._remote_clusters(src)
        if not remote:
            if then is not None:
                then(None)
            return
        _launch_after(*self._fanout_leg(src, remote, size, payload, port,
                                        kind, shape, streams), then)

    # ------------------------------------------------- cost-and-launch helpers
    #
    # Each charges the sender-side CPU overhead now and returns the
    # charge's completion event plus the launch of the delivery legs,
    # which the entry point calls once the charge completes.

    def _send_leg(self, src: int, dst: int, size: int, payload: Any,
                  port: str, kind: str) -> Tuple[Event, Callable[[], Event]]:
        msg = Message(src=src, dst=dst, size=size, payload=payload,
                      port=port, kind=kind, send_time=self.sim.now)
        local = self.topo.same_cluster(src, dst)
        tr = self.tracer
        if tr.enabled:
            scope = "self" if src == dst else ("lan" if local else "wan")
            tr.emit(self.sim.now, "msg.send", msg_id=msg.msg_id, src=src,
                    dst=dst, size=size, msg_kind=kind, port=port, scope=scope)
        link = self._cluster_lan[self.nodes[src].cluster] if local \
            else self.params.access
        charged = self.nodes[src].cpu.execute_ev(
            link.o_send + size * link.per_byte_cpu)
        if src == dst:
            return charged, lambda: self._deliver_self(msg)
        if local:
            return charged, lambda: self._deliver_lan(msg)
        return charged, lambda: self._deliver_wan(msg,
                                                  self._p2p_streams(size))

    def _multicast_leg(self, src: int, size: int, payload: Any, port: str,
                       kind: str, include_self: bool
                       ) -> Tuple[Event, Callable[[], Event]]:
        cluster = self.nodes[src].cluster
        lan = self._cluster_lan[cluster]
        charged = self.nodes[src].cpu.execute_ev(
            lan.o_send + self.params.bcast_extra + size * lan.per_byte_cpu)
        return charged, lambda: self._deliver_multicast(
            src, cluster, size, payload, port, kind, include_self)

    def _fanout_leg(self, src: int, remote: List[int], size: int,
                    payload: Any, port: str, kind: str, shape: str,
                    streams: int) -> Tuple[Event, Callable[[], Event]]:
        access = self.params.access
        charged = self.nodes[src].cpu.execute_ev(
            access.o_send + size * access.per_byte_cpu)
        return charged, lambda: self._deliver_fanout(
            src, self.nodes[src].cluster, remote, size, payload, port, kind,
            shape, streams)

    def _remote_clusters(self, src: int) -> List[int]:
        src_cluster = self.nodes[src].cluster
        return [c for c in range(self.topo.n_clusters) if c != src_cluster]

    # ------------------------------------------------------------- the legs
    #
    # Each leg builds its callback chain synchronously and returns (or
    # drives) completion events; an uncontended leg at a quiet instant
    # costs only the timeouts that advance virtual time.  The
    # dispatch-order contract (docs/ARCHITECTURE.md): at a busy instant
    # every step defers through the heap at a fixed depth — one
    # dispatch per request, per grant, per completion, fixed counts at
    # joins — so same-instant races linearize the same way on every run.

    def _occupy(self, res: Resource, seconds: float, cls: str = "",
                size: int = 0, msg_id: int = -1) -> Event:
        """Hold ``res`` for ``seconds``; completion event, one ``link.busy``.

        A plain :meth:`Resource.occupy <repro.sim.Resource.occupy>`,
        which owns the grant logic and its dispatch depths.  With
        tracing on, its release hook emits the ``link.busy`` record:
        ``cls``/``size``/``msg_id`` only label it (see
        :func:`repro.obs.schema.classify_link` for the class names;
        ``msg_id`` joins the span into the causal chains of
        :mod:`repro.obs.chains`, -1 when the occupancy is shared between
        several deliveries).
        """
        tr = self.tracer
        if not tr.enabled:
            return res.occupy(seconds)
        sim = self.sim
        t_req = sim.now

        def busy(t0: float, _qdepth: int) -> None:
            now = sim.now
            tr.emit(now, "link.busy", link=res.name, cls=cls, size=size,
                    wait=t0 - t_req, msg_id=msg_id, t0=t0, dur=now - t0)

        return res.occupy(seconds, on_release=busy)

    def _deposit_complete(self, msg: Message, done: Event) -> None:
        """Deposit ``msg`` and fire the delivery event (inline when quiet)."""
        self._deposit(msg)
        sim = self.sim
        if sim.idle_at_now():
            fire(done, msg)
        else:
            done.succeed(msg)

    def _defer(self, fn: Callable[[], None]) -> None:
        """Run ``fn()`` one dispatch out, or inline at a quiet instant
        where nothing can race it."""
        sim = self.sim
        if sim.idle_at_now():
            fn()
        else:
            sim.after_call(0.0, fn)

    def _deliver_self(self, msg: Message) -> Event:
        # Loopback: negligible wire, small fixed cost — one timeout.
        done = Event(self.sim)
        self.sim.after(1e-6,
                       lambda _ev: self._deposit_complete(msg, done))
        return done

    def _deliver_lan(self, msg: Message) -> Event:
        # Cut-through: the injection port and the delivery port are each
        # occupied for one serialization time, but they overlap (the
        # switch forwards as bytes arrive), so an uncontended transfer
        # takes latency + size/bw, while endpoint contention still
        # serializes.  The two legs join on a countdown.
        lan = self._cluster_lan[self.nodes[msg.src].cluster]
        tx = msg.size / lan.bandwidth
        sim = self.sim
        done = Event(sim)
        pending = [2]

        def leg_done(_ev: Event) -> None:
            pending[0] -= 1
            if not pending[0]:
                # Two dispatches (leg completion, then the join) keep
                # deposits at their relative depth — multicast, then
                # WAN, then LAN — when arrivals on different path
                # shapes land at the same instant.
                if sim.idle_at_now():
                    self._deposit_complete(msg, done)
                else:
                    sim.after_call(0.0, lambda: self._defer(
                        lambda: self._deposit_complete(msg, done)))

        self._occupy(self._lan_out[msg.src], tx, "lan_out", msg.size,
                     msg.msg_id).callbacks.append(leg_done)

        def start_in(_ev: Event) -> None:
            occ = self._occupy(self._lan_in[msg.dst], tx, "lan_in",
                               msg.size, msg.msg_id)
            occ.callbacks.append(
                lambda _ev2: self.nodes[msg.dst].cpu.execute_ev(
                    lan.o_recv + msg.size * lan.per_byte_cpu
                ).callbacks.append(leg_done))

        sim.after(lan.latency, start_in)
        return done

    def _access_up(self, size: int, src_cluster: int, msg_id: int,
                   then: Callable[[], None]) -> None:
        """Node -> local gateway over the shared access link.

        Takes ``(size, src_cluster)`` directly — fan-out paths share one
        access-link trip among many deliveries and must not fabricate a
        :class:`Message` (which would burn a ``msg_id`` and skew the
        run-local id-reset determinism guarantees) just to ride the leg.
        """
        access = self.params.access
        occ = self._occupy(self._gw_access[src_cluster],
                           size / access.bandwidth, "access", size, msg_id)
        occ.callbacks.append(
            lambda _ev: self.sim.after(access.latency, lambda _ev2: then()))

    def _access_down(self, msg: Message, then: Callable[[], None]) -> None:
        """Remote gateway -> destination node."""
        access = self.params.access
        dst = msg.dst
        occ = self._occupy(self._gw_access[self.nodes[dst].cluster],
                           msg.size / access.bandwidth, "access",
                           msg.size, msg.msg_id)

        def after_occ(_ev: Event) -> None:
            def after_lat(_ev2: Event) -> None:
                self.nodes[dst].cpu.execute_ev(
                    access.o_recv + msg.size * access.per_byte_cpu
                ).callbacks.append(lambda _ev3: then())

            self.sim.after(access.latency, after_lat)

        occ.callbacks.append(after_occ)

    def _gw_forward(self, cluster: int, msg_size: int, msg_id: int,
                    then: Callable[[], None]) -> None:
        """Store-and-forward charge on one gateway CPU; one ``gw.forward``.

        ``then()`` runs one dispatch after the charge completes (inline
        at a quiet instant).  The record's queue depth is the queue this
        forward joined, counting itself, sampled at request time by
        :meth:`Resource.occupy <repro.sim.Resource.occupy>`.
        """
        gwp = self.params.gateway
        cost = gwp.forward_cost + msg_size * gwp.per_byte_cost
        gw = self.gateways[cluster].cpu
        tr = self.tracer
        if not tr.enabled:
            gw.occupy(cost).callbacks.append(lambda _ev: then())
            return
        sim = self.sim
        t0 = sim.now
        qdepth = [0]

        def sample(_t0: float, qd: int) -> None:
            qdepth[0] = qd

        def emit_then(_ev: Event) -> None:
            now = sim.now
            tr.emit(now, "gw.forward", cluster=cluster, size=msg_size,
                    qdepth=qdepth[0], msg_id=msg_id, t0=t0, dur=now - t0)
            then()

        gw.occupy(cost, on_release=sample).callbacks.append(emit_then)

    def _wan_leg(self, msg_size: int, src_cluster: int, dst_cluster: int,
                 msg_id: int, streams: int, then: Callable[[], None]) -> None:
        """Gateway -> WAN PVC -> remote gateway (shared by all WAN paths).

        ``msg_id`` labels the trace records with the point-to-point
        message this leg serves; fan-out paths that share one leg among
        many deliveries pass -1.  ``streams`` > 1 stripes the PVC stage
        over that many parallel chunk transfers (MPWide-style): chunks
        still serialize on the capacity-1 PVC, but their latencies and —
        under loss impairment — retransmit timeouts overlap.  The
        gateway forwards bracket the whole transfer either way.
        """
        sim = self.sim

        def forward() -> None:
            self._gw_forward(dst_cluster, msg_size, msg_id, then)

        def after_fwd() -> None:
            k = max(1, min(streams, msg_size))
            if k == 1:
                self._pvc_stage(msg_size, src_cluster, dst_cluster, msg_id,
                                forward)
                return
            # Striped: near-equal chunks, each drawing its own impairment
            # plan, all in flight at once; the remote forward joins them.
            base, rem = divmod(msg_size, k)
            chunks = [base + 1] * rem + [base] * (k - rem)
            pending = [k]

            def chunk_done() -> None:
                pending[0] -= 1
                if not pending[0]:
                    self._defer(forward)

            if sim.idle_at_now():
                for chunk in chunks:
                    self._pvc_stage(chunk, src_cluster, dst_cluster, msg_id,
                                    chunk_done)
            else:
                # Busy instant: each chunk starts one dispatch out.
                sim._n_fallback += 1
                for chunk in chunks:
                    sim.after_call(0.0, lambda c=chunk: self._pvc_stage(
                        c, src_cluster, dst_cluster, msg_id, chunk_done))

        self._gw_forward(src_cluster, msg_size, msg_id, after_fwd)

    def _pvc_stage(self, size: int, src_cluster: int, dst_cluster: int,
                   msg_id: int, then: Callable[[], None]) -> None:
        """One transfer (or striped chunk) on the directed PVC; one
        ``wan.xfer``.  An installed impairment draws its plan here."""
        wan = self.params.wan
        tx, latency, retries, rto = size / wan.bandwidth, wan.latency, 0, 0.0
        if self.impair is not None:
            plan = self.impair.plan(src_cluster, dst_cluster, size, tx,
                                    latency, msg_id)
            tx, latency = plan.tx, plan.latency
            retries, rto = plan.retries, plan.rto
        self._transmit((src_cluster, dst_cluster), size, msg_id, tx, latency,
                       retries, rto, then)

    def _transmit(self, pair: Tuple[int, int], size: int, msg_id: int,
                  tx: float, latency: float, retries: int, rto: float,
                  then: Callable[[], None]) -> None:
        """The PVC serializes transmissions; latency is pipeline delay.
        Each of ``retries`` lost transmissions pays a full serialization
        plus the retransmit timeout before the copy that gets through.
        This and the tree walks below are methods, not self-referencing
        closures, whose cycles would keep payloads alive until the
        cyclic collector runs."""
        sim = self.sim
        pvc = self._wan[pair]
        if retries:
            self._occupy(pvc, tx, "wan", size, msg_id).callbacks.append(
                lambda _ev: sim.after(rto, lambda _ev2: self._transmit(
                    pair, size, msg_id, tx, latency, retries - 1, rto,
                    then)))
            return
        t0 = sim.now

        def after_occ(_ev: Event) -> None:
            self.meter.record_wan(size)

            def after_lat(_ev2: Event) -> None:
                tr = self.tracer
                if tr.enabled:
                    now = sim.now
                    tr.emit(now, "wan.xfer", src_cluster=pair[0],
                            dst_cluster=pair[1], size=size, tx=tx,
                            msg_id=msg_id, t0=t0, dur=now - t0)
                then()

            sim.after(latency, after_lat)

        self._occupy(pvc, tx, "wan", size, msg_id).callbacks.append(after_occ)

    def _deliver_wan(self, msg: Message, streams: int) -> Event:
        done = Event(self.sim)
        src_cluster = self.nodes[msg.src].cluster
        dst_cluster = self.nodes[msg.dst].cluster

        def finish() -> None:
            # One dispatch (the access leg's completion) keeps WAN
            # deposits one dispatch shallower than LAN deposits — see
            # _deliver_lan.
            self._defer(lambda: self._deposit_complete(msg, done))

        self._access_up(
            msg.size, src_cluster, msg.msg_id,
            lambda: self._wan_leg(
                msg.size, src_cluster, dst_cluster, msg.msg_id, streams,
                lambda: self._access_down(msg, finish)))
        return done

    def _multicast_recv(self, msg: Message, tx: float,
                        then: Callable[[Event], None]) -> None:
        lan = self._cluster_lan[self.nodes[msg.dst].cluster]

        def after_lat(_ev: Event) -> None:
            occ = self._occupy(self._lan_in[msg.dst], tx, "lan_in",
                               msg.size, msg.msg_id)

            def after_occ(_ev2: Event) -> None:
                cpu = self.nodes[msg.dst].cpu.execute_ev(
                    lan.o_recv + msg.size * lan.per_byte_cpu)

                def after_cpu(ev3: Event) -> None:
                    self._deposit(msg)
                    then(ev3)

                cpu.callbacks.append(after_cpu)

            occ.callbacks.append(after_occ)

        self.sim.after(lan.latency, after_lat)

    def _deliver_multicast(self, src: int, cluster: int, size: int,
                           payload: Any, port: str, kind: str,
                           include_self: bool) -> Event:
        lan = self._cluster_lan[cluster]
        tx = size / lan.bandwidth
        sim = self.sim
        done = Event(sim)
        dsts = [d for d in self.topo.nodes_in(cluster)
                if include_self or d != src]
        pending = [1 + len(dsts)]
        n = len(dsts)

        def leg_done(_ev: Event) -> None:
            pending[0] -= 1
            if not pending[0]:
                done.succeed(n)

        # Injection overlaps delivery (spanning-tree forwarding in the NIC).
        self._occupy(self._lan_out[src], tx, "lan_out",
                     size).callbacks.append(leg_done)
        for dst in dsts:
            msg = Message(src=src, dst=dst, size=size, payload=payload,
                          port=port, kind=kind, send_time=sim.now)
            self._multicast_recv(msg, tx, leg_done)
        return done

    def _remote_gw_multicast(self, src: int, dst_cluster: int, size: int,
                             payload: Any, port: str, kind: str,
                             then: Callable[[int], None]) -> None:
        """Re-inject a WAN arrival as a local multicast in ``dst_cluster``."""
        lan = self._cluster_lan[dst_cluster]
        gw = self.gateways[dst_cluster]
        cpu = gw.cpu.execute_ev(lan.o_send + self.params.bcast_extra)

        def after_cpu(_ev: Event) -> None:
            tx = size / lan.bandwidth
            dsts = self.topo.nodes_in(dst_cluster)
            if not dsts:
                then(0)
                return
            pending = [len(dsts)]

            def recv_done(_ev2: Event) -> None:
                pending[0] -= 1
                if not pending[0]:
                    then(len(dsts))

            for dst in dsts:
                msg = Message(src=src, dst=dst, size=size, payload=payload,
                              port=port, kind=kind, send_time=self.sim.now)
                self._multicast_recv(msg, tx, recv_done)

        cpu.callbacks.append(after_cpu)

    def _deliver_fanout(self, src: int, src_cluster: int, remote: List[int],
                        size: int, payload: Any, port: str, kind: str,
                        shape: str, streams: int) -> Event:
        """One access-link trip, then the ``shape`` tree (see
        :meth:`wan_fanout_multicast`) over the remote gateways; each
        reached gateway re-multicasts locally.  The event fires with the
        number of deliveries once every remote multicast is done."""
        done = Event(self.sim)
        state = [0, len(remote)]  # delivered count, outstanding multicasts

        def counted(n: int) -> None:
            state[0] += n
            state[1] -= 1
            if not state[1]:
                done.succeed(state[0])

        def hop(a: int, b: int, then: Callable[[], None]) -> None:
            self._wan_leg(size, a, b, -1, streams, then)

        def reached(c: int) -> None:
            self._remote_gw_multicast(src, c, size, payload, port, kind,
                                      counted)

        if shape == "chain":
            path = [src_cluster] + remote
            start = lambda: self._relay(path, 0, hop, reached)  # noqa: E731
        elif shape == "binomial":
            order = [src_cluster] + remote
            start = lambda: self._binomial(  # noqa: E731
                order, 0, len(order), hop, reached)
        else:
            def start() -> None:
                for c in remote:
                    hop(src_cluster, c, lambda c=c: reached(c))

        self._access_up(size, src_cluster, -1, start)
        return done

    def _relay(self, path: List[int], i: int,
               hop: Callable[[int, int, Callable[[], None]], None],
               reached: Callable[[int], None]) -> None:
        """Chain: path[i] holds the payload and forwards to path[i+1],
        which starts its local multicast and relays onwards."""
        if i + 1 < len(path):
            c = path[i + 1]

            def arrived() -> None:
                reached(c)
                self._relay(path, i + 1, hop, reached)

            hop(path[i], c, arrived)

    def _binomial(self, order: List[int], lo: int, hi: int,
                  hop: Callable[[int, int, Callable[[], None]], None],
                  reached: Callable[[int], None]) -> None:
        """Binomial: order[lo] holds the payload and covers
        order[lo+1:hi], the far half first — ceil(log2(n_clusters))
        rounds of parallel hops."""
        if hi - lo > 1:
            mid = (lo + hi + 1) // 2

            def arrived() -> None:
                reached(order[mid])
                self._binomial(order, mid, hi, hop, reached)
                self._binomial(order, lo, mid, hop, reached)

            hop(order[lo], order[mid], arrived)

    # ---------------------------------------------------------------- util

    def _deposit(self, msg: Message) -> None:
        msg.recv_time = self.sim.now
        tr = self.tracer
        if tr.enabled:
            tr.emit(self.sim.now, "msg.deliver", msg_id=msg.msg_id,
                    src=msg.src, dst=msg.dst, size=msg.size,
                    msg_kind=msg.kind, port=msg.port,
                    latency=self.sim.now - msg.send_time)
        self.nodes[msg.dst].port(msg.port).put(msg)


def _launch_after(charged: Event, launch: Callable[[], Event],
                  then: Optional[Callable[[Event], None]]) -> None:
    """Call ``launch()`` once ``charged`` fires, then ``then(done)``
    with the event it returns — a chain caller's ``yield charged;
    return launch()``."""
    def _launch(_ev: Event) -> None:
        done = launch()
        if then is not None:
            then(done)

    charged.callbacks.append(_launch)
