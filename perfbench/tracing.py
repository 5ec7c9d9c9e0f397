"""The traced pass: per-layer self time, call counts and the PDES probe.

Everything is measured from outside the program: a cProfile hook gives
self time per function (bucketed into layers by :mod:`layers`), its
caller edges and a few counting wrappers give exact operation counts,
and the simulators' own counters (``AppResult.sim_stats`` and
``traffic``) give events, spawns and WAN traffic.
"""

from __future__ import annotations

import cProfile
import functools
import importlib.util
import inspect
import pstats
import sys
import time
from typing import Dict, List, Tuple

from layers import BENCH, LAYERS, Attributor

#: (metric, layer whose internal calls are not counted, entry points).
COUNTED: Tuple[Tuple[str, str, Tuple[Tuple[str, str, str], ...]], ...] = (
    ("sim.primitives.charges", "sim.primitives", (
        ("repro.sim.primitives", "Resource", "request"),
        ("repro.sim.primitives", "Resource", "occupy"),
        ("repro.sim.primitives", "CPU", "execute_ev"))),
    ("network.sends", "network", tuple(
        ("repro.network.fabric", "Fabric", name) for name in (
            "send", "send_and_wait", "send_chain", "multicast_local",
            "multicast_local_chain", "gateway_multicast",
            "wan_fanout_multicast", "wan_fanout_multicast_chain"))),
    ("orca.ops", "orca", (
        ("repro.orca.runtime", "OrcaRuntime", "invoke"),
        ("repro.orca.runtime", "Context", "invoke"),
        ("repro.orca.runtime", "Context", "invoke_async"))),
)


class CallCounter:
    """Counts calls into :data:`COUNTED` entry points from other layers.

    Plain functions are counted from the profile's caller edges.  A
    generator function's profile entry counts every resume, so those get
    a counting wrapper for the pass instead.
    """

    def __init__(self, attributor: Attributor):
        self.att = attributor
        self.counts: Dict[str, int] = {}
        self._plain: List[Tuple[str, str, tuple]] = []
        self._saved: List[tuple] = []

    def __enter__(self) -> "CallCounter":
        for metric, layer, targets in COUNTED:
            self.counts[metric] = 0
            for module, cls, name in targets:
                owner = getattr(importlib.import_module(module), cls)
                fn = owner.__dict__[name]
                if inspect.isgeneratorfunction(fn):
                    self._saved.append((owner, name, fn))
                    setattr(owner, name, self._wrap(fn, metric, layer))
                else:
                    code = fn.__code__
                    self._plain.append((metric, layer, (
                        code.co_filename, code.co_firstlineno,
                        code.co_name)))
        return self

    def __exit__(self, *_exc) -> None:
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()

    def _wrap(self, fn, metric: str, layer: str):
        counts = self.counts
        own_layer = self.att.own_layer
        getframe = sys._getframe

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if own_layer((getframe(1).f_code.co_filename, 0, "")) != layer:
                counts[metric] += 1
            return fn(*args, **kwargs)
        return counted

    def totals(self, stats) -> Dict[str, int]:
        """Wrapper counts plus the plain functions' caller edges."""
        out = dict(self.counts)
        for metric, layer, key in self._plain:
            callers = stats[key][4] if key in stats else {}
            out[metric] += sum(edge[0] for caller, edge in callers.items()
                               if self.att.own_layer(caller) != layer)
        return out


def profile_pass(run, attributor: Attributor):
    """Run ``run()`` under cProfile and the call counters.

    Returns ``(pass result, self seconds per layer, profile stats,
    call counts)``.
    """
    prof = cProfile.Profile()
    with CallCounter(attributor) as counter:
        prof.enable()
        try:
            result = run()
        finally:
            prof.disable()
    stats = pstats.Stats(prof).stats
    return (result, attributor.self_time(stats), stats,
            counter.totals(stats))


def _sim_totals(results) -> Dict[str, float]:
    keys = ("events_processed", "spawns", "fast_completions", "fallbacks")
    tot = {k: 0 for k in keys}
    tot["wan_msgs"] = tot["wan_bytes"] = 0
    for r in results:
        for k in keys:
            tot[k] += (r.sim_stats or {}).get(k, 0)
        wan = r.traffic.get("wan", {})
        tot["wan_msgs"] += wan.get("count", 0)
        tot["wan_bytes"] += wan.get("bytes", 0)
    return tot


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(untraced, traced, self_s: Dict[str, float], stats,
                  counts: Dict[str, int],
                  attributor: Attributor) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric except ``sim.pdes.*`` as name -> (value,
    unit).  Layers a workload does not exercise read 0."""
    total = sum(t for layer, t in self_s.items() if layer != BENCH)
    m: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        if layer != "sim.pdes":
            m[f"{layer}.self_frac"] = (_ratio(self_s.get(layer, 0.0), total),
                                       "ratio")
    sims = _sim_totals(traced.results)
    engine_s = self_s.get("sim.engine", 0.0)
    m["sim.engine.ns_per_event"] = (
        _ratio(engine_s * 1e9, sims["events_processed"]), "ns")
    m["sim.events"] = (sims["events_processed"], "count")
    m["sim.fast_frac"] = (_ratio(sims["fast_completions"],
                                 sims["fast_completions"] + sims["fallbacks"]),
                          "ratio")
    m["sim.spawns"] = (_ratio(sims["spawns"], len(traced.results)),
                       "count/sim")
    charges = counts["sim.primitives.charges"]
    m["sim.primitives.charges"] = (charges, "count")
    m["sim.primitives.calls_per_charge"] = (
        _ratio(attributor.calls_in(stats, "sim.primitives"), charges),
        "calls/charge")
    sends = counts["network.sends"]
    m["network.sends"] = (sends, "count")
    m["network.us_per_send"] = (
        _ratio(self_s.get("network", 0.0) * 1e6, sends), "us")
    m["network.wan_msgs"] = (sims["wan_msgs"], "count")
    m["network.wan_bytes"] = (sims["wan_bytes"], "bytes")
    ops = counts["orca.ops"]
    m["orca.ops"] = (ops, "count")
    m["orca.us_per_op"] = (_ratio(self_s.get("orca", 0.0) * 1e6, ops), "us")
    m["tuner.tune_s"] = (untraced.tune_s, "s")
    m["harness.pool_busy_frac"] = (
        _ratio(sum(untraced.point_host_s), untraced.jobs * untraced.pool_s),
        "ratio")
    m["harness.straggler_s"] = (max(untraced.point_host_s, default=0.0), "s")
    m["harness.cache.put_s"] = (untraced.cache_put_s, "s")
    m["harness.cache.get_s"] = (untraced.cache_get_s, "s")
    m["harness.cache.bytes"] = (untraced.cache_bytes, "bytes")
    # The traced pass runs in-process; compare it with the untraced
    # pass's in-process equivalent (pool wall replaced by point time).
    serial_s = (untraced.wall_s - untraced.pool_s
                + sum(untraced.point_host_s))
    m["trace.overhead_frac"] = (_ratio(traced.wall_s, serial_s) - 1, "ratio")
    return m


PDES_METRICS = ("sim.pdes.speedup", "sim.pdes.us_per_epoch",
                "sim.pdes.blocked_frac", "sim.pdes.coalesced_frac")


#: What the ``sim.pdes.*`` metrics read when the probe does not run.
PDES_ZERO = {name: (0.0, "us" if name.endswith("per_epoch") else "ratio")
             for name in PDES_METRICS}


def pdes_probe(k: int, checker, workers: int) -> Dict[str, Tuple[float, str]]:
    """ra/optimized 4x15 serial and partitioned.

    Both runs are checked against the same reference digest, so the
    partitioned result must equal the serial one.
    """
    from workloads import PDES_SIM, app_params, run_sim, sim_id

    if importlib.util.find_spec("repro.sim.pdes") is None:
        print("pdes probe skipped: repro.sim.pdes is not present")
        return PDES_ZERO
    from repro.sim.pdes import shutdown_pool

    app, variant, c, n = PDES_SIM
    sid = sim_id(app, variant, c, n)
    params = app_params(app, k)
    t0 = time.perf_counter()
    serial = run_sim(checker, sid, app, variant, c, n, params)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    try:
        part = run_sim(checker, sid, app, variant, c, n, params,
                       pdes="on", pdes_workers=workers)
        pdes_s = time.perf_counter() - t0
    finally:
        shutdown_pool()
    if serial is None or part is None:
        return PDES_ZERO
    st = part.sim_stats
    epochs = st.get("pdes_epochs", 0)
    if not epochs:
        print(f"pdes probe: the run was not partitioned "
              f"({workers} worker(s) available)")
        return PDES_ZERO
    width = st["pdes_partitions"]
    return {
        "sim.pdes.speedup": (serial_s / pdes_s, "ratio"),
        "sim.pdes.us_per_epoch": (pdes_s * 1e6 / epochs, "us"),
        "sim.pdes.blocked_frac": (
            _ratio(st["pdes_blocked_s"], width * pdes_s), "ratio"),
        "sim.pdes.coalesced_frac": (
            _ratio(st["pdes_coalesced_round_trips"], width * epochs),
            "ratio"),
    }
