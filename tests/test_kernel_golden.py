"""Golden digests for the SOR and ACP kernels.

The SOR sweep and the ACP support-mask builder are the hot kernels of
the paper's costliest runs.  Their answers are pinned here as sha256
digests in ``tests/data/kernel_golden.json`` (committed data, not a live
copy of an older kernel), so any rewrite must stay byte-for-byte equal:

* ``sweep_phase`` grid bytes plus the returned maxdiff over a table of
  (rows, cols, row0, parity) cases;
* ``sequential_reference`` at 350x90 for 52 iterations, and its
  per-phase maxdiffs;
* ``run_app`` sor original/optimized/splitphase at 2x8 on the paper grid
  cut to 350 rows (grid, iterations, elapsed, stats and traffic);
* ``build_network`` arcs plus ``initial_domains`` for ``ACPParams.small``
  and for domain sizes 5, 64 and 70 (past the 64-bit boundary).

Regenerate only for a deliberate change of results::

    PYTHONPATH=src python tests/test_kernel_golden.py --write
"""

import hashlib
import itertools
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.apps.acp import csp
from repro.apps.acp.csp import ACPParams
from repro.apps.sor import SORApp
from repro.apps.sor import grid as gridmod
from repro.apps.sor.grid import SORParams
from repro.harness import run_app

GOLDEN = Path(__file__).parent / "data" / "kernel_golden.json"

SWEEP_CASES = list(itertools.product((1, 2, 5, 16), (3, 4, 9, 24),
                                     (0, 1, 7), (0, 1)))

SOR_APP_VARIANTS = ("original", "optimized", "splitphase")

ACP_CASES = {
    "small": ACPParams.small(),
    "d5": ACPParams.small().with_(domain_size=5),
    "d64": ACPParams.small(n_vars=200, n_constraints=900).with_(seed=5),
    "d70": ACPParams.small().with_(domain_size=70),
    "d70-loose": ACPParams.small(n_vars=30, n_constraints=60).with_(
        domain_size=70, tightness=0.0),
}


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"|")
    return h.hexdigest()


def _canon(value):
    """JSON-ready form; exact for every float."""
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, float):
        return value.hex()
    return value


def sweep_case(rows, cols, row0, parity) -> str:
    """One half-sweep of a seeded mixed-magnitude block."""
    rng = np.random.default_rng([rows, cols, row0, parity])

    def values(shape):
        scale = 10.0 ** rng.integers(-3, 4, shape)
        return (rng.standard_normal(shape) * scale).astype(np.float32)

    block, top, bottom = values((rows, cols)), values(cols), values(cols)
    omega = (1.5, 1.87)[row0 % 2]
    maxdiff = gridmod.sweep_phase(block, top, bottom, parity, omega, row0)
    assert isinstance(maxdiff, float)
    return _sha(block.tobytes(), maxdiff.hex())


def sor_sequential() -> str:
    params = SORParams(n_rows=350, n_cols=90)
    grid, iterations = gridmod.sequential_reference(params)
    return _sha(grid.tobytes(), iterations)


def sor_sequential_precision() -> str:
    params = SORParams.small(n_rows=40, n_cols=24,
                             precision=1e-3).with_(n_iterations=500)
    grid, iterations = gridmod.sequential_reference(params)
    return _sha(grid.tobytes(), iterations)


def sor_phase_maxdiffs() -> str:
    params = SORParams(n_rows=350, n_cols=90)
    grid = gridmod.initial_grid(params)
    top, bottom = gridmod.boundary_rows(params)
    diffs = [gridmod.sweep_phase(grid, top, bottom, parity, params.omega, 0)
             for _ in range(params.n_iterations) for parity in (0, 1)]
    return _sha(grid.tobytes(), [d.hex() for d in diffs])


def sor_app(variant) -> str:
    params = SORParams.paper().with_(n_rows=350)
    res = run_app(SORApp(), variant, 2, 8, params)
    body = json.dumps([_canon(res.elapsed), _canon(res.stats),
                       _canon(res.traffic), res.answer["iterations"]],
                      sort_keys=True)
    return _sha(res.answer["grid"].tobytes(), body)


def acp_network(params) -> str:
    net = csp.build_network(params)
    arcs = [[x, [[y, [hex(m) for m in sup]] for y, sup in lst]]
            for x, lst in net.arcs.items()]
    body = json.dumps([net.n_vars, net.domain_size, arcs,
                       [hex(d) for d in net.initial_domains]])
    return _sha(body)


def _cases() -> dict:
    """Golden key -> zero-argument function computing its digest."""
    out = {f"sweep/{r}x{c}@{row0}/p{par}": partial(sweep_case, r, c, row0,
                                                   par)
           for r, c, row0, par in SWEEP_CASES}
    out["sor/sequential/350x90"] = sor_sequential
    out["sor/sequential/precision"] = sor_sequential_precision
    out["sor/phases/350x90"] = sor_phase_maxdiffs
    for variant in SOR_APP_VARIANTS:
        out[f"sor/app/{variant}/2x8"] = partial(sor_app, variant)
    for name, params in ACP_CASES.items():
        out[f"acp/network/{name}"] = partial(acp_network, params)
    return out


CASES = _cases()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("key", sorted(CASES))
def test_kernel_golden(golden, key):
    assert CASES[key]() == golden[key]


def test_golden_has_exactly_the_cases(golden):
    assert sorted(golden) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_kernel_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    digests = {key: fn() for key, fn in CASES.items()}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
