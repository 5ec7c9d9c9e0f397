"""Tests of the benchmark's own machinery: layer map, attribution, inputs.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
for path in (SRC, BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)

from layers import (BENCH, LAYER_MAP, LAYERS, Attributor,  # noqa: E402
                    module_layer, repo_modules)

REPRO = os.path.join(SRC, "repro")


def test_every_repo_module_maps_to_a_named_layer():
    modules = list(repo_modules(SRC))
    assert len(modules) > 50
    for module in modules:
        assert module_layer(module) in LAYERS, module


def test_every_package_has_its_own_entry():
    # No catch-all for ``repro``: a new package must be mapped explicitly.
    assert "repro" not in LAYER_MAP
    packages = [name for name in os.listdir(REPRO)
                if os.path.isfile(os.path.join(REPRO, name, "__init__.py"))]
    assert packages
    for name in packages:
        assert f"repro.{name}" in LAYER_MAP, name


def test_unmapped_module_raises():
    with pytest.raises(KeyError):
        module_layer("repro.newpackage.module")


def test_layer_targets_are_the_named_layers():
    assert set(LAYER_MAP.values()) <= set(LAYERS)
    assert module_layer("repro.sim._pyengine") == "sim.engine"
    assert module_layer("repro.sim.primitives") == "sim.primitives"
    assert module_layer("repro.sim.pdes.coordinator") == "sim.pdes"


def _att():
    return Attributor(SRC, BENCH_DIR)


def test_ccore_functions_are_engine():
    att = _att()
    assert att.own_layer(
        ("~", 0, "<method 'run' of 'repro.sim._ccore.Simulator' objects>")
    ) == "sim.engine"
    assert att.own_layer(
        ("~", 0, "<built-in method repro.sim._ccore.fire>")) == "sim.engine"
    assert att.own_layer(("~", 0, "<method 'append' of 'list' objects>")) \
        is None


def test_foreign_functions_take_their_callers_layer():
    app_fn = (os.path.join(REPRO, "apps", "sor", "grid.py"), 1, "sweep")
    net_fn = (os.path.join(REPRO, "network", "fabric.py"), 1, "send")
    numpy_fn = ("/elsewhere/numpy/core/fromnumeric.py", 1, "sum")
    append = ("~", 0, "<method 'append' of 'list' objects>")
    reduce_ = ("~", 0, "<method 'reduce' of 'numpy.ufunc' objects>")
    bench_fn = (os.path.join(BENCH_DIR, "workloads.py"), 1, "serial_pass")
    stats = {
        app_fn: (1, 1, 1.0, 5.0, {bench_fn: (1, 1, 1.0, 5.0)}),
        net_fn: (1, 1, 1.0, 2.0, {bench_fn: (1, 1, 1.0, 2.0)}),
        bench_fn: (1, 1, 0.5, 8.0, {}),
        # list.append: 2 s under apps, 1 s under network.
        append: (3, 3, 3.0, 3.0, {app_fn: (2, 2, 2.0, 2.0),
                                  net_fn: (1, 1, 1.0, 1.0)}),
        # numpy.sum called by apps, and the ufunc it calls.
        numpy_fn: (1, 1, 1.0, 2.0, {app_fn: (1, 1, 1.0, 2.0)}),
        reduce_: (1, 1, 1.0, 1.0, {numpy_fn: (1, 1, 1.0, 1.0)}),
    }
    self_s = _att().self_time(stats)
    assert self_s["apps"] == pytest.approx(1.0 + 2.0 + 1.0 + 1.0)
    assert self_s["network"] == pytest.approx(1.0 + 1.0)
    assert self_s[BENCH] == pytest.approx(0.5)
    assert sum(self_s.values()) == pytest.approx(
        sum(entry[2] for entry in stats.values()))


def test_real_profile_attributes_every_second():
    import cProfile
    import pstats

    from repro.apps import make_app, small_params
    from repro.harness.experiment import run_app

    prof = cProfile.Profile()
    prof.enable()
    run_app(make_app("sor"), "original", 1, 2, small_params("sor"))
    prof.disable()
    stats = pstats.Stats(prof).stats
    self_s = _att().self_time(stats)
    assert set(self_s) <= set(LAYERS) | {BENCH, "other"}
    assert self_s["apps"] > 0 and self_s["sim.engine"] > 0
    assert sum(self_s.values()) == pytest.approx(
        sum(entry[2] for entry in stats.values()))


def test_inputs_follow_the_seed():
    from repro.harness.figures import bench_params
    from workloads import REF_SEEDS, WORKLOADS, make_inputs

    base = make_inputs("event-heavy", 0)
    for _sid, app, _v, _c, _n, params in base.sims:
        assert params == bench_params(app)  # seed 0: the published inputs
    again = make_inputs("event-heavy", REF_SEEDS + 3)
    assert again == make_inputs("event-heavy", 3) != base
    sweep = make_inputs("impaired-sweep", 5)
    assert sweep.scenario.seed == 5 and len(sweep.points) == 12
    for workload in WORKLOADS:
        make_inputs(workload, 1)
    with pytest.raises(ValueError):
        make_inputs("nope", 0)


def test_references_cover_every_input_set():
    from workloads import REF_SEEDS, WORKLOADS, make_inputs

    with open(os.path.join(BENCH_DIR, "references.json")) as fh:
        refs = json.load(fh)
    assert refs["ref_seeds"] == REF_SEEDS
    assert sorted(map(int, refs["digests"])) == list(range(REF_SEEDS))
    for k in range(REF_SEEDS):
        ids = {"tune"}
        for workload in WORKLOADS:
            inputs = make_inputs(workload, k)
            ids |= {entry[0] for entry in getattr(inputs, "sims", ())}
            ids |= {entry[0] for entry in getattr(inputs, "points", ())}
        assert set(refs["digests"][str(k)]) == ids, k
