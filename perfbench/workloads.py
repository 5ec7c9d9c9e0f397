"""The benchmark's three workloads, their seeded inputs and result checks.

A *pass* regenerates every result of one workload once and checks each
against the committed reference digests (``references.json``):

* ``event-heavy`` — five clean 4x15 runs, serial and in-process through
  ``run_app``.  The simulator stack above the engine does most of the
  work (per-charge path, fabric legs, Orca broadcast/RPC).
* ``kernel-heavy`` — SOR at 1x1 and 2x8 and ACP at 1x1: real numpy and
  Python kernels, the 1x1 baselines behind every speedup curve.
* ``impaired-sweep`` — a seeded WAN scenario (jitter, loss, cross
  traffic); ``tune()`` calibrates a decision model under it, six apps run
  at 4x8 {fixed, tuned} through ``ParallelRunner`` with a cold
  ``ResultCache``, and a replay pass reads every point back.

Sizes are the figure harness's ``bench_params``.  Seed ``n`` selects
input set ``k = n % REF_SEEDS``: every app's ``seed`` field becomes its
default plus ``k`` (SOR has none) and the scenario seed becomes ``k``, so
``k = 0`` is exactly the published inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.apps import make_app
from repro.harness.experiment import run_app
from repro.harness.figures import bench_params
from repro.harness.sweeps import ParallelRunner, ResultCache, RunSpec
from repro.scenario import Impairment, Scenario
from repro.tuner import tune

WORKLOADS = ("event-heavy", "kernel-heavy", "impaired-sweep")

#: Number of committed input sets; seed ``n`` uses set ``n % REF_SEEDS``.
REF_SEEDS = 16

#: Longest a single simulation (or the sweep pool) may run before it
#: counts as hung.  Every simulation here takes well under 15 s.
SIM_LIMIT_S = 60

#: (app, variant, clusters, nodes per cluster) per serial workload.
SERIAL_SIMS = {
    "event-heavy": (("asp", "original", 4, 15), ("ra", "optimized", 4, 15),
                    ("ida", "original", 4, 15), ("water", "original", 4, 15),
                    ("tsp", "original", 4, 15)),
    "kernel-heavy": (("sor", "original", 1, 1), ("sor", "original", 2, 8),
                     ("acp", "original", 1, 1)),
}
SWEEP_APPS = ("asp", "water", "tsp", "ra", "atpg", "ida")
SWEEP_GEOMETRY = (4, 8)

#: Wall seconds of one untraced pass on a 2-core x86_64 host at the
#: commit that introduced the benchmark; sets how many passes fill a run.
NOMINAL_PASS_S = {"event-heavy": 14.0, "kernel-heavy": 26.0,
                  "impaired-sweep": 13.0}

#: The PDES probe's run (an eligible app at paper scale) and the workload
#: whose traced run makes it; one probe per benchmark keeps every traced
#: run well inside its time limit.
PDES_SIM = ("ra", "optimized", 4, 15)
PDES_WORKLOAD = "event-heavy"


def input_set(seed: int) -> int:
    return seed % REF_SEEDS


def sim_id(app: str, variant: str, clusters: int, nodes: int,
           tag: str = "") -> str:
    return f"{app}/{variant}/{clusters}x{nodes}" + (f"/{tag}" if tag else "")


def app_params(app: str, k: int) -> Any:
    params = bench_params(app)
    if hasattr(params, "seed"):
        params = params.with_(seed=params.seed + k)
    return params


def scenario(k: int) -> Scenario:
    """WAN jitter sigma=0.3, 1% loss and cross traffic 0.5, seed ``k``."""
    return Scenario(seed=k, impairments=(
        Impairment.of("jitter", sigma=0.3),
        Impairment.of("loss", p=0.01),
        Impairment.of("cross_traffic", load=0.5)))


@dataclass(frozen=True)
class SerialInputs:
    #: (id, app, variant, clusters, nodes, params) per simulation.
    sims: Tuple[Tuple[str, str, str, int, int, Any], ...]


@dataclass(frozen=True)
class SweepInputs:
    k: int
    scenario: Scenario
    #: (id, app, variant, clusters, nodes, params, tuned) per grid point.
    points: Tuple[Tuple[str, str, str, int, int, Any, bool], ...]


def make_inputs(workload: str, seed: int):
    """Every input of one pass of ``workload`` (set-up, not measured)."""
    k = input_set(seed)
    if workload in SERIAL_SIMS:
        return SerialInputs(tuple(
            (sim_id(a, v, c, n), a, v, c, n, app_params(a, k))
            for a, v, c, n in SERIAL_SIMS[workload]))
    if workload == "impaired-sweep":
        c, n = SWEEP_GEOMETRY
        points = tuple(
            (sim_id(a, "optimized", c, n, "tuned" if tuned else "fixed"),
             a, "optimized", c, n, app_params(a, k), tuned)
            for a in SWEEP_APPS for tuned in (False, True))
        return SweepInputs(k, scenario(k), points)
    raise ValueError(f"unknown workload {workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")


# ------------------------------------------------------------- checking

def _canon(value: Any) -> Any:
    """JSON-ready form of a result field; exact for every float."""
    if isinstance(value, dict):
        return {k if isinstance(k, str) else repr(k): _canon(v)
                for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if hasattr(value, "item") and callable(value.item):  # numpy scalar
        return _canon(value.item())
    if isinstance(value, float):
        return value.hex()
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return repr(value)


def digest(result) -> str:
    """sha256 over a result's virtual ``elapsed``, ``traffic`` and app
    ``stats`` — the numbers the figures and tables are built from."""
    body = json.dumps([_canon(result.elapsed), _canon(result.traffic),
                       _canon(result.stats)], sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()


def model_digest(model) -> str:
    return hashlib.sha256(model.to_json().encode()).hexdigest()


class Hang(Exception):
    """A simulation ran past its wall limit."""


@contextmanager
def wall_limit(seconds: float):
    def on_alarm(_signum, _frame):
        raise Hang(f"no result after {seconds:g} s")

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class Checker:
    """Checks results against reference digests and counts failures.

    With ``record=True`` it stores digests instead (reference
    generation); a simulation that raises still counts as failed.
    """

    def __init__(self, refs: Dict[str, str], record: bool = False):
        self.refs = refs
        self.record = record
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, sid: str, got: str) -> bool:
        self.attempted += 1
        if self.record:
            if self.refs.setdefault(sid, got) == got:
                return True
            return self.fail(sid, "differs between runs", counted=True)
        want = self.refs.get(sid)
        if want == got:
            return True
        why = "has no reference" if want is None else \
            f"digest {got[:12]} != reference {want[:12]}"
        return self.fail(sid, why, counted=True)

    def fail(self, sid: str, why: str, counted: bool = False) -> bool:
        if not counted:
            self.attempted += 1
        self.failed += 1
        self.failures.append(f"{sid}: {why}")
        return False


# ------------------------------------------------------------- passes

@dataclass
class PassResult:
    """What one pass did: its wall time, results and harness timings."""

    wall_s: float = 0.0
    results: List[Any] = field(default_factory=list)  # simulated AppResults
    tune_s: float = 0.0
    pool_s: float = 0.0
    jobs: int = 1
    point_host_s: List[float] = field(default_factory=list)
    cache_put_s: float = 0.0
    cache_get_s: float = 0.0
    cache_bytes: int = 0


class TimedCache(ResultCache):
    """``ResultCache`` that times its own reads and writes."""

    def __init__(self, root: str):
        super().__init__(root)
        self.get_s = 0.0
        self.put_s = 0.0

    def get(self, key):
        t0 = time.perf_counter()
        try:
            return super().get(key)
        finally:
            self.get_s += time.perf_counter() - t0

    def put(self, key, result):
        t0 = time.perf_counter()
        try:
            super().put(key, result)
        finally:
            self.put_s += time.perf_counter() - t0


def run_sim(checker: Checker, sid: str, app: str, variant: str, c: int,
            n: int, params: Any, **kw):
    """One in-process ``run_app``, checked; ``None`` when it failed."""
    try:
        with wall_limit(SIM_LIMIT_S):
            result = run_app(make_app(app), variant, c, n, params, **kw)
    except Exception as exc:  # a failing simulation is a counted result
        checker.fail(sid, f"raised {exc!r}")
        return None
    checker.check(sid, digest(result))
    return result


def serial_pass(inputs: SerialInputs, checker: Checker) -> PassResult:
    out = PassResult()
    t0 = time.perf_counter()
    for sid, app, variant, c, n, params in inputs.sims:
        result = run_sim(checker, sid, app, variant, c, n, params)
        if result is not None:
            out.results.append(result)
    out.wall_s = time.perf_counter() - t0
    return out


def _tree_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _dirs, files in os.walk(root) for f in files)


def sweep_pass(inputs: SweepInputs, checker: Checker, jobs: int,
               tmp_root: str) -> PassResult:
    """Tune, run every point through a cold cache, then replay it."""
    out = PassResult(jobs=jobs)
    t0 = time.perf_counter()
    try:
        with wall_limit(SIM_LIMIT_S):
            model = tune(scenarios=(inputs.scenario,),
                         seeds=(inputs.k, inputs.k + 1))
    except Exception as exc:
        checker.fail("tune", f"raised {exc!r}")
        out.wall_s = time.perf_counter() - t0
        return out
    out.tune_s = time.perf_counter() - t0
    checker.check("tune", model_digest(model))

    ids = [p[0] for p in inputs.points]
    specs = [RunSpec(app, variant, c, n, params, scenario=inputs.scenario,
                     decision=model if tuned else None)
             for _sid, app, variant, c, n, params, tuned in inputs.points]
    os.makedirs(tmp_root, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=tmp_root)
    try:
        cache = TimedCache(cache_dir)
        runner = ParallelRunner(jobs=jobs, cache=cache)
        t1 = time.perf_counter()
        try:
            with wall_limit(SIM_LIMIT_S * 2):
                results = runner.run(specs)
        except Exception as exc:
            for sid in ids:
                checker.fail(sid, f"sweep raised {exc!r}")
            out.wall_s = time.perf_counter() - t0
            return out
        out.pool_s = time.perf_counter() - t1
        out.point_host_s = [r.detail["host_s"] for r in runner.point_records
                            if not r.detail["cached"]]
        out.cache_put_s = cache.put_s
        out.cache_bytes = _tree_bytes(cache_dir)
        for sid, result in zip(ids, results):
            checker.check(sid, digest(result))
        out.results = list(results)

        cache.get_s = 0.0
        replay = ParallelRunner(jobs=jobs, cache=cache)
        replayed = replay.run(specs)
        out.cache_get_s = cache.get_s
        for sid, result in zip(ids, replayed):
            checker.check(sid, digest(result))
        for _ in range(replay.computed):
            checker.fail("replay", "a point missed the cache", counted=True)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    out.wall_s = time.perf_counter() - t0
    return out


def run_pass(inputs, checker: Checker, *, jobs: int,
             tmp_root: str) -> PassResult:
    """One pass over ``inputs``; a sweep fans out over ``jobs`` workers."""
    if isinstance(inputs, SweepInputs):
        return sweep_pass(inputs, checker, jobs, tmp_root)
    return serial_pass(inputs, checker)

