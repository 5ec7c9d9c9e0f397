"""Golden digests of the whole message stack: fabric, Orca runtime, broadcast.

Every case below runs the simulator and reduces its outcome to one
sha256 digest over four things — the elapsed virtual time (as
``float.hex``), the canonical answer, the traffic counters, and the
ordered trace record stream without the process-lifecycle
(``proc.*``) records.  The digests live in
``tests/data/stack_golden.json`` as committed data, so any rewrite of
the message path must reproduce every virtual time, answer, counter
and trace record of the code that wrote them, in the same order.  They
were written by two independent implementations of the message path —
callback chains and generator processes — which agreed on every case.

Cases:

* ``app/...`` — the eight paper apps, every variant, on 1x4, 2x3 and
  4x2, each clean, under :data:`IMPAIRED` (all four WAN impairment
  models), and under :data:`IMPAIRED` with a tiny tuned
  :class:`~repro.tuner.DecisionModel`;
* ``pinned/...`` — every app's first variant on 2x3 and 4x2, clean
  and impaired, under two pinned models: PB with a ``chain`` fan-out
  and 4 WAN streams, and BB with a ``binomial`` fan-out and 2 streams
  (the tiny tuned model only ever picks a flat tree and one stream);
* ``fanout/...`` — fabric-level WAN fan-outs, every shape x streams
  {1, 4}, clean and impaired, over 2 and 4 clusters;
* ``seq/...`` — asp and acp on 2x2, the runs that exercise the token
  ring's and the migrating sequencer's deferred grants.

Regenerate only for a deliberate change of results::

    PYTHONPATH=src python tests/test_stack_golden.py --write
"""

import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.apps import PAPER_ORDER, make_app, small_params
from repro.harness.experiment import run_app
from repro.network import DAS_PARAMS, Fabric, uniform_clusters
from repro.network.message import reset_ids
from repro.scenario import Impairment, Scenario, install
from repro.sim import Simulator, Tracer
from repro.tuner import DecisionModel, tune
from repro.tuner.model import ContextModel, FittedLine

GOLDEN = Path(__file__).parent / "data" / "stack_golden.json"

TOPOLOGIES = ((1, 4), (2, 3), (4, 2))
WAN_TOPOLOGIES = ((2, 3), (4, 2))

#: Process-lifecycle records say how the host ran a path, not what the
#: simulated machine did; they are left out of every digest.
PROCESS_KINDS = {"proc.spawn", "proc.finish"}

#: Every impairment model that perturbs the WAN transfer path.
IMPAIRED = Scenario(
    seed=11,
    impairments=(Impairment.of("jitter", sigma=0.3),
                 Impairment.of("loss", p=0.2, rto=0.01),
                 Impairment.of("bw_dip", depth=0.5, period=0.02),
                 Impairment.of("cross_traffic", load=0.5)))

_ZERO = FittedLine(a=0.0, b=0.0)


def _pinned(bb: bool, shape: str, streams: int) -> DecisionModel:
    """A model that answers one strategy for every size and cluster count."""
    ctx = ContextModel(n_clusters=2, pb=_ZERO, bb=_ZERO,
                       bb_threshold=0.0 if bb else float("inf"),
                       shapes=((shape, _ZERO),),
                       streams=((streams, _ZERO),))
    return DecisionModel(contexts=((2, ctx),), source="pinned")


PINNED = {
    "pb-chain-4": _pinned(False, "chain", 4),
    "bb-binomial-2": _pinned(True, "binomial", 2),
}


@functools.lru_cache(maxsize=None)
def _tiny_model() -> DecisionModel:
    return tune(sizes=(256, 16384), cluster_counts=(2,),
                nodes_per_cluster=2, scenarios=(IMPAIRED,), seeds=(0,),
                reps=1)


# ------------------------------------------------------------- digests

def _canon(value):
    """JSON-ready form of a result; exact for every float and array.
    Answers and traffic hold arrays, dicts, lists, tuples, floats, ints
    and strs."""
    if isinstance(value, np.ndarray):
        return ["ndarray", value.dtype.str, list(value.shape),
                hashlib.sha256(np.ascontiguousarray(value).tobytes())
                .hexdigest()]
    if isinstance(value, dict):
        return [[_canon(k), _canon(v)] for k, v in
                sorted(value.items(), key=lambda kv: repr(kv[0]))]
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, float):
        return value.hex()
    return value


def _digest(elapsed, answer, traffic, records) -> str:
    h = hashlib.sha256(json.dumps(
        [_canon(elapsed), _canon(answer), _canon(traffic)]).encode())
    # Trace fields are plain ints, floats, strs and bools, whose repr is
    # exact; sorting makes the line independent of keyword order.
    for r in records:
        if r.kind not in PROCESS_KINDS:
            h.update(repr((r.time, r.kind,
                           sorted(r.detail.items()))).encode() + b"\n")
    return h.hexdigest()


# --------------------------------------------------------------- cases

def _app_run(app_name, variant, n_clusters, nodes, scenario=None,
             decision=None) -> str:
    tracer = Tracer()
    res = run_app(make_app(app_name), variant, n_clusters, nodes,
                  small_params(app_name), trace=True, tracer=tracer,
                  scenario=scenario, decision=decision)
    return _digest(res.elapsed, res.answer, res.traffic, tracer.records)


def _condition(name):
    """(scenario, decision model) for one named app condition."""
    if name == "clean":
        return None, None
    if name == "impaired":
        return IMPAIRED, None
    if name == "tuned":
        return IMPAIRED, _tiny_model()
    base, model = name.split("/")
    return (IMPAIRED if base == "impaired" else None), PINNED[model]


def app_case(app_name, variant, n_clusters, nodes, condition) -> str:
    scenario, decision = _condition(condition)
    return _app_run(app_name, variant, n_clusters, nodes, scenario,
                    decision)


def fanout_case(shape, streams, scenario, n_clusters, repeats=4,
                size=4096) -> str:
    """``repeats`` back-to-back fan-outs from node 0, traced."""
    reset_ids()
    sim = Simulator()
    tracer = Tracer()
    fabric = Fabric(sim, uniform_clusters(n_clusters, 3), DAS_PARAMS,
                    tracer=tracer)
    tracer.enabled = True
    if scenario is not None:
        install(sim, fabric, scenario)
    times, counts = [], []

    def driver():
        for _ in range(repeats):
            done = yield from fabric.wan_fanout_multicast(
                0, size, shape=shape, streams=streams)
            counts.append((yield done))
            times.append(sim.now)

    sim.run_process(driver())
    return _digest(times, counts, fabric.meter.snapshot(), tracer.records)


def _cases() -> dict:
    """Golden key -> (function, args) computing its digest."""
    out = {}
    for app_name in PAPER_ORDER:
        for variant in make_app(app_name).variants:
            for c, n in TOPOLOGIES:
                for cond in ("clean", "impaired", "tuned"):
                    out[f"app/{app_name}/{variant}/{c}x{n}/{cond}"] = (
                        app_case, (app_name, variant, c, n, cond))
    for app_name in PAPER_ORDER:
        variant = make_app(app_name).variants[0]
        for c, n in WAN_TOPOLOGIES:
            for base in ("clean", "impaired"):
                for model in PINNED:
                    cond = f"{base}/{model}"
                    out[f"pinned/{app_name}/{variant}/{c}x{n}/{cond}"] = (
                        app_case, (app_name, variant, c, n, cond))
    for shape in ("flat", "chain", "binomial"):
        for streams in (1, 4):
            for cond, scenario in (("clean", None), ("impaired", IMPAIRED)):
                for n_clusters in (2, 4):
                    key = f"fanout/{shape}/s{streams}/{cond}/{n_clusters}c"
                    out[key] = (fanout_case,
                                (shape, streams, scenario, n_clusters))
    for app_name in ("asp", "acp"):
        out[f"seq/{app_name}/original/2x2"] = (
            app_case, (app_name, "original", 2, 2, "clean"))
    return out


CASES = _cases()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("key", sorted(CASES))
def test_stack_golden(golden, key):
    fn, args = CASES[key]
    assert fn(*args) == golden[key]


def test_golden_has_exactly_the_cases(golden):
    assert sorted(golden) == sorted(CASES)


def _write() -> None:
    digests = {key: fn(*args) for key, (fn, args) in sorted(CASES.items())}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_stack_golden.py --write")
    _write()
