"""Tests for the SOR application."""

import numpy as np
import pytest

from repro.apps.sor import SORApp, SORParams
from repro.apps.sor import grid as gridmod
from repro.harness import run_app


# ----------------------------------------------------------------- domain


@pytest.mark.parametrize("kw, field", [({"n_cols": 2}, "n_cols"),
                                       ({"n_cols": 0}, "n_cols"),
                                       ({"n_rows": 0}, "n_rows")])
def test_params_reject_degenerate_grids(kw, field):
    """A grid without an interior fails up front, not deep in numpy."""
    with pytest.raises(ValueError, match=field):
        SORParams.small().with_(**kw)


def test_params_accept_smallest_grid():
    params = SORParams.small(n_rows=1, n_cols=3).with_(n_iterations=2)
    grid, iterations = gridmod.sequential_reference(params)
    assert grid.shape == (1, 3) and iterations == 2


def test_sweep_preserves_fixed_columns():
    params = SORParams.small()
    g = gridmod.initial_grid(params)
    top, bottom = gridmod.boundary_rows(params)
    gridmod.sweep_phase(g, top, bottom, 0, params.omega, 0)
    assert (g[:, 0] == 0).all() and (g[:, -1] == 0).all()


def test_sequential_reference_converges_toward_gradient():
    params = SORParams.small(n_rows=16, n_cols=12).with_(n_iterations=400)
    g, _ = gridmod.sequential_reference(params)
    interior = g[:, 1:-1]
    # Top rows (next to the hot boundary) are warmer than bottom rows.
    assert interior[0].mean() > interior[-1].mean()
    assert interior.max() <= 1.0 + 1e-5


def test_precision_mode_stops_early():
    params = SORParams.small(n_rows=12, n_cols=10,
                             precision=1e-3).with_(n_iterations=500)
    _, iters = gridmod.sequential_reference(params)
    assert iters < 500


def test_maxdiff_decreases():
    params = SORParams.small(n_rows=16, n_cols=12)
    g = gridmod.initial_grid(params)
    top, bottom = gridmod.boundary_rows(params)
    diffs = []
    for it in range(30):
        d = max(gridmod.sweep_phase(g, top, bottom, par, params.omega, 0)
                for par in (0, 1))
        diffs.append(d)
    assert diffs[-1] < diffs[0]


# ------------------------------------------------------------ application


@pytest.mark.parametrize("variant", ["original", "splitphase"])
@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (2, 3), (4, 2)])
def test_sor_bitexact_vs_sequential(variant, shape):
    params = SORParams.small(n_rows=24, n_cols=16).with_(n_iterations=20)
    ref, _ = gridmod.sequential_reference(params)
    res = run_app(SORApp(), variant, shape[0], shape[1], params)
    np.testing.assert_array_equal(res.answer["grid"], ref)


def test_sor_chaotic_single_cluster_is_exact():
    # Within one cluster nothing is dropped, so chaotic == original.
    params = SORParams.small(n_rows=24, n_cols=16).with_(n_iterations=20)
    ref, _ = gridmod.sequential_reference(params)
    res = run_app(SORApp(), "optimized", 1, 4, params)
    np.testing.assert_array_equal(res.answer["grid"], ref)


def test_sor_chaotic_converges_with_modest_iteration_penalty():
    """Paper: dropping 2/3 intercluster exchanges costs 5-10% iterations."""
    params = SORParams.small(n_rows=64, n_cols=24,
                             precision=5e-4).with_(n_iterations=800)
    full = run_app(SORApp(), "original", 4, 4, params)
    chaotic = run_app(SORApp(), "optimized", 4, 4, params)
    it_full = full.answer["iterations"]
    it_chaotic = chaotic.answer["iterations"]
    assert it_chaotic >= it_full
    assert it_chaotic <= 1.35 * it_full
    # And the solutions agree closely.
    np.testing.assert_allclose(chaotic.answer["grid"], full.answer["grid"],
                               atol=5e-3)


def test_sor_chaotic_reduces_intercluster_traffic():
    params = SORParams.small(n_rows=64, n_cols=24).with_(n_iterations=30)
    full = run_app(SORApp(), "original", 4, 4, params)
    chaotic = run_app(SORApp(), "optimized", 4, 4, params)
    fb = full.traffic["inter.rpc"]["bytes"]
    cb = chaotic.traffic["inter.rpc"]["bytes"]
    assert cb < 0.5 * fb


def test_sor_chaotic_faster_on_four_clusters():
    params = SORParams.paper().with_(n_rows=240, n_cols=120, n_iterations=30)
    full = run_app(SORApp(), "original", 4, 4, params)
    chaotic = run_app(SORApp(), "optimized", 4, 4, params)
    assert chaotic.elapsed < full.elapsed


def test_sor_splitphase_faster_than_blocking_on_wan():
    params = SORParams.paper().with_(n_rows=240, n_cols=120, n_iterations=30)
    orig = run_app(SORApp(), "original", 4, 4, params)
    split = run_app(SORApp(), "splitphase", 4, 4, params)
    assert split.elapsed < orig.elapsed


def test_sor_too_many_processors_rejected():
    params = SORParams.small(n_rows=4, n_cols=8)
    with pytest.raises(ValueError, match="one row per processor"):
        run_app(SORApp(), "original", 2, 3, params)
