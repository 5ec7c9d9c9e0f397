"""SOR domain: red/black successive overrelaxation on a 2-D grid.

The paper solves a discretized Laplace equation on a 3500 x 900 grid,
row-distributed, with a termination precision of 0.0002 (52 iterations).
Every iteration runs a red phase and a black phase; boundary rows are
exchanged with both neighbours before each phase, so the parallel
computation is *bit-identical* to the sequential one for the full
exchange policy (each cell always sees exactly the values the sequential
sweep would).

Grid values are float32, matching the 4-byte elements implied by the
paper's "5 ms" intercluster row-exchange cost.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

__all__ = ["SORParams", "initial_grid", "boundary_rows", "sweep_phase",
           "sequential_reference", "ELEM_BYTES"]

ELEM_BYTES = 4


@dataclass(frozen=True)
class SORParams:
    n_rows: int = 3500
    n_cols: int = 900
    omega: float = 1.5
    #: iteration cap (the paper's input converges in 52).
    n_iterations: int = 52
    #: optional termination precision; None runs exactly ``n_iterations``.
    precision: Optional[float] = None
    #: seconds per cell update (5-point stencil on the PPro).
    elem_cost: float = 60e-9
    #: chaotic relaxation: keep 1 in N intercluster exchanges (paper: 3).
    chaotic_keep_one_in: int = 3

    def __post_init__(self):
        if self.n_rows < 1:
            raise ValueError(f"SOR needs n_rows >= 1, got {self.n_rows}")
        if self.n_cols < 3:
            raise ValueError(f"SOR needs n_cols >= 3 (two fixed boundary "
                             f"columns and an interior), got {self.n_cols}")

    @staticmethod
    def paper() -> "SORParams":
        return SORParams()

    @staticmethod
    def small(n_rows: int = 40, n_cols: int = 24,
              precision: Optional[float] = None) -> "SORParams":
        return SORParams(n_rows=n_rows, n_cols=n_cols, n_iterations=60,
                         precision=precision)

    def with_(self, **kw) -> "SORParams":
        return replace(self, **kw)

    @property
    def row_bytes(self) -> int:
        return self.n_cols * ELEM_BYTES


def initial_grid(params: SORParams) -> np.ndarray:
    """Interior starts at zero; the hot boundary is the virtual row above
    row 0 (all ones), so the solution is a smooth top-to-bottom gradient."""
    return np.zeros((params.n_rows, params.n_cols), dtype=np.float32)


def boundary_rows(params: SORParams) -> Tuple[np.ndarray, np.ndarray]:
    """(ghost row above the grid, ghost row below the grid)."""
    top = np.ones(params.n_cols, dtype=np.float32)
    bottom = np.zeros(params.n_cols, dtype=np.float32)
    return top, bottom


def sweep_phase(block: np.ndarray, top: np.ndarray, bottom: np.ndarray,
                parity: int, omega: float, row0: int) -> float:
    """One red (parity 0) or black (parity 1) half-sweep of a row block.

    ``top``/``bottom`` are the ghost rows; ``row0`` is the global index of
    the block's first row (checkerboard parity must be global).  The first
    and last columns are fixed boundary.  Returns the max absolute change.

    Only the cells of the active colour are touched, through strided views
    of the two row classes (even and odd row offsets); the ghost rows are
    read only at the block's first and last row.  Updating in place is
    exact because every neighbour of an active cell has the other colour.
    """
    rows, cols = block.shape
    om = np.float32(omega)
    keep = np.float32(1.0) - om
    quarter = om * np.float32(0.25)
    last = rows - 1
    maxdiff = np.float32(0.0)
    for s in range(min(rows, 2)):
        j0 = 1 + (row0 + s + 1 + parity) % 2  # first active column
        if j0 > cols - 2:
            continue
        # (class rows, rows above them, rows below them)
        parts = []
        if s == 0:
            parts.append((slice(0, 1), top[None, :],
                          block[1:2] if rows > 1 else bottom[None, :]))
        if last > 0 and last % 2 == s:
            parts.append((slice(last, rows), block[last - 1:last],
                          bottom[None, :]))
        if 2 - s < last:
            parts.append((slice(2 - s, last, 2), block[1 - s:last - 1:2],
                          block[3 - s:rows:2]))
        for r, up, down in parts:
            maxdiff = np.maximum(maxdiff, _relax(block, r, up, down, j0,
                                                 keep, quarter))
    return float(maxdiff)


def _relax(block: np.ndarray, r: slice, up: np.ndarray, down: np.ndarray,
           j0: int, keep: np.float32, quarter: np.float32) -> np.float32:
    """Relax ``block[r, j0:-1:2]`` in place from its four neighbours
    (``up``/``down`` are the full rows above/below ``r``); returns the max
    absolute change.

    The answer is pinned bit for bit, so the float32 operations are fixed:
    ``nb = ((up + down) + left) + right``, ``upd = keep * c + quarter * nb``
    (summed in the other order, which IEEE addition leaves unchanged) and
    the change ``|upd - c|``.
    """
    cols = block.shape[1]
    cells = slice(j0, cols - 1, 2)
    c = block[r, cells]
    nb = up[:, cells] + down[:, cells]
    nb += block[r, j0 - 1:cols - 2:2]
    nb += block[r, j0 + 1:cols:2]
    nb *= quarter
    nb += keep * c
    diff = nb - c
    np.abs(diff, out=diff)
    c[...] = nb
    return diff.max()


def sequential_reference(params: SORParams) -> Tuple[np.ndarray, int]:
    """Full-grid sweeps; returns (grid, iterations executed)."""
    grid = initial_grid(params)
    top, bottom = boundary_rows(params)
    iterations = 0
    for it in range(params.n_iterations):
        maxdiff = 0.0
        for parity in (0, 1):
            maxdiff = max(maxdiff,
                          sweep_phase(grid, top, bottom, parity,
                                      params.omega, 0))
        iterations += 1
        if params.precision is not None and maxdiff < params.precision:
            break
    return grid, iterations
