#!/usr/bin/env python3
"""Reproduction benchmark: host time to regenerate the paper's results.

Run from the repository root::

    python3 perfbench/run.py --workload event-heavy --seed 0 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` makes one untraced and one profiled pass
and reports the per-layer metrics.  Every simulation is checked against
``references.json``; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the metric -> layer -> workload table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
REFERENCES = os.path.join(BENCH_DIR, "references.json")

#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_PROBES = 5


def prepare() -> dict:
    """Import ``repro`` with the compiled core built; return provenance.

    Exits with status 2, printing no result, when the checkout holds no
    ``src/repro`` to benchmark.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    # Only the engine tier may be chosen from outside; every other knob
    # (jobs, PDES, cache dir) is set by the benchmark itself.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        if name != "REPRO_ENGINE":
            del os.environ[name]
    from repro.sim.engine import ENGINE_TIER

    prov = {"engine_tier": ENGINE_TIER,
            "engine_requested": os.environ.get("REPRO_ENGINE", "auto"),
            "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "engine_fallback": None}
    if ENGINE_TIER != "compiled":
        from repro.sim._build import load_ccore
        try:
            load_ccore()
            prov["engine_fallback"] = "compiled core builds now, but was " \
                                      "not loaded at import"
        except Exception as exc:  # report why, keep measuring
            prov["engine_fallback"] = str(exc).splitlines()[0]
    return prov


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def load_references(k: int) -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)["digests"].get(str(k), {})


def time_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters reaching the first run."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    walls = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def peak_rss_mb() -> float:
    """Largest peak RSS of this process or any child that has ended."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def passes_for(workload: str, seconds: float) -> int:
    """Whole passes that fill about ``seconds``.

    The count comes from a fixed nominal pass time, not from this run's
    own timings, so every run of a workload (and the parent and child of
    a change) measures the same number of passes.
    """
    from workloads import NOMINAL_PASS_S

    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def timed_run(workload: str, seed: int, seconds: float, checker) -> dict:
    """Set-up probes, then the passes that fill about ``seconds``."""
    from workloads import make_inputs, run_pass

    setup_s = time_setup(workload, seed)
    inputs = make_inputs(workload, seed)
    jobs = os.cpu_count() or 1
    walls = [run_pass(inputs, checker, jobs=jobs, tmp_root=TMP_ROOT).wall_s
             for _ in range(passes_for(workload, seconds))]
    print(f"passes: {len(walls)}, wall s: "
          + ", ".join(f"{w:.3f}" for w in walls))
    return {"wall_s": (statistics.median(walls), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB")}


def traced_run(workload: str, seed: int, checker) -> dict:
    """One untraced pass, one profiled in-process pass and, on the
    workload that holds the probe's run, the PDES probe."""
    from layers import Attributor
    from tracing import PDES_ZERO, layer_metrics, pdes_probe, profile_pass
    from workloads import PDES_WORKLOAD, input_set, make_inputs, run_pass

    inputs = make_inputs(workload, seed)
    jobs = os.cpu_count() or 1
    untraced = run_pass(inputs, checker, jobs=jobs,
                        tmp_root=TMP_ROOT)
    att = Attributor(SRC, BENCH_DIR)
    traced, self_s, stats, counts = profile_pass(
        lambda: run_pass(inputs, checker, jobs=1,
                         tmp_root=TMP_ROOT), att)
    print(f"untraced pass {untraced.wall_s:.3f} s, "
          f"traced pass {traced.wall_s:.3f} s")
    print("self s by layer: " + ", ".join(
        f"{layer}={t:.3f}" for layer, t in
        sorted(self_s.items(), key=lambda kv: -kv[1])))
    metrics = layer_metrics(untraced, traced, self_s, stats, counts, att)
    if workload == PDES_WORKLOAD:
        metrics.update(pdes_probe(input_set(seed), checker, jobs))
    else:
        print(f"pdes probe: runs on {PDES_WORKLOAD} only")
        metrics.update(PDES_ZERO)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    prov = prepare()
    from workloads import WORKLOADS, Checker, input_set, make_inputs

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(WORKLOADS)}")
    if args.setup_probe:
        make_inputs(args.workload, args.seed)
        return 0
    print("provenance: " + json.dumps(prov, sort_keys=True))
    if prov["engine_fallback"]:
        print(f"WARNING: measuring the {prov['engine_tier']} engine tier: "
              f"{prov['engine_fallback']}")

    k = input_set(args.seed)
    checker = Checker(load_references(k))
    try:
        if args.trace:
            metrics = traced_run(args.workload, args.seed, checker)
        else:
            metrics = timed_run(args.workload, args.seed, args.seconds,
                                checker)
    finally:
        try:
            os.rmdir(TMP_ROOT)  # each pass removes its own cache dir
        except OSError:
            pass
    for line in checker.failures:
        print(f"FAILED {line}")
    failed = min(checker.failed, checker.attempted)
    print(f"input set {k}: {checker.attempted} checked, {failed} failed, "
          f"failed_frac {failed / max(1, checker.attempted):.4f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
