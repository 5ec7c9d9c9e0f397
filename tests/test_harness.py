"""Tests for the experiment harness and figure/table registry."""

import gc

import pytest

from repro.apps import PAPER_ORDER, make_app, paper_params, small_params
from repro.apps.atpg import ATPGParams
from repro.apps.base import AppResult
from repro.harness import (
    SPEEDUP_FIGURES,
    bench_params,
    figure_curves,
    format_curves,
    run_app,
    speedup_curve,
)
from repro.harness.experiment import RECLAIM_EVENTS
from repro.sim import Simulator


def test_registry_covers_all_eight_apps():
    assert sorted(PAPER_ORDER) == sorted(
        ["water", "tsp", "asp", "atpg", "ida", "ra", "acp", "sor"])
    for name in PAPER_ORDER:
        app = make_app(name)
        assert app.name == name
        assert "original" in app.variants
        paper_params(name)
        small_params(name)


def test_make_app_unknown_rejected():
    with pytest.raises(ValueError, match="unknown application"):
        make_app("nope")


def test_run_app_unknown_variant_rejected():
    with pytest.raises(ValueError, match="unknown variant"):
        run_app(make_app("water"), "bogus", 1, 2, small_params("water"))


def test_run_app_returns_complete_result():
    res = run_app(make_app("atpg"), "original", 2, 2,
                  ATPGParams.small(n_gates=24))
    assert isinstance(res, AppResult)
    assert res.n_nodes == 4
    assert res.elapsed > 0
    assert "wan" in res.traffic
    assert res.answer is not None


def test_run_app_deterministic():
    params = ATPGParams.small(n_gates=24)
    a = run_app(make_app("atpg"), "original", 2, 2, params)
    b = run_app(make_app("atpg"), "original", 2, 2, params)
    assert a.elapsed == b.elapsed
    assert a.traffic == b.traffic


def test_run_app_frees_a_long_runs_world():
    """A finished run's world is cyclic garbage; run_app frees a long
    run's before returning, so consecutive runs never hold two."""
    gc.collect()
    before = [o for o in gc.get_objects() if isinstance(o, Simulator)]
    for _ in range(2):
        res = run_app(make_app("sor"), "optimized", 4, 4, small_params("sor"))
        assert res.sim_stats["events_processed"] >= RECLAIM_EVENTS
        alive = [o for o in gc.get_objects() if isinstance(o, Simulator)
                 and not any(o is b for b in before)]
        assert not alive


def test_speedup_curve_monotone_cpu_filter():
    params = ATPGParams.small(n_gates=48)
    curves = speedup_curve(make_app("atpg"), "original", params,
                           cluster_counts=(1, 2), cpu_counts=(2, 3, 4))
    # 3 CPUs is not divisible over 2 clusters and must be skipped.
    assert [pt.n_cpus for pt in curves[2]] == [2, 4]
    assert [pt.n_cpus for pt in curves[1]] == [2, 3, 4]
    # More CPUs never slow this embarrassingly parallel app down much.
    assert curves[1][-1].speedup > curves[1][0].speedup * 0.8


def test_figure_registry_is_complete():
    # 14 speedup figures, covering every app at least once.
    assert len(SPEEDUP_FIGURES) == 14
    apps = {spec.app for spec in SPEEDUP_FIGURES.values()}
    assert apps == set(PAPER_ORDER)


def test_bench_params_asp_scaled():
    p = bench_params("asp")
    assert p.n_vertices == 1000
    assert bench_params("water").n_molecules == 4096


def test_figure_curves_and_formatting():
    curves = figure_curves("fig7", cpu_counts=(4,), cluster_counts=(1, 2))
    text = format_curves("fig7", curves)
    assert "ATPG" in text or "atpg" in text
    assert "speedup" in text
    assert len(curves[1]) == 1 and len(curves[2]) == 1


def test_run_app_on_real_das_topology():
    """Apps run unmodified on the real, nonuniform DAS layout."""
    from repro.network import ClusterSpec, Topology

    topo = Topology([ClusterSpec("VU", 6), ClusterSpec("Delft", 3)])
    res = run_app(make_app("atpg"), "original", 2, 0,
                  ATPGParams.small(n_gates=36), topology=topo)
    assert res.elapsed > 0
    assert res.traffic["wan"]["count"] > 0  # clusters really talked
