"""ACP domain: binary constraint networks and arc revision.

The Arc Consistency Problem prunes variable domains by repeatedly
applying binary constraints until a fixpoint: a value survives only while
it has *support* (a compatible value) in every constraining neighbour's
domain.  Domains are bitmasks; each constraint carries precomputed
support masks, so a revision is a handful of integer operations whose
count the performance model charges.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

import numpy as np

from ...sim.rng import substream

__all__ = ["ACPParams", "Network", "build_network", "revise",
           "sequential_reference", "popcount"]


@dataclass(frozen=True)
class ACPParams:
    n_vars: int = 1500
    domain_size: int = 64
    n_constraints: int = 4500
    tightness: float = 0.45
    seed: int = 23
    #: seconds per support check (scan of the support bitset on the PPro).
    check_cost: float = 4.0e-6

    @staticmethod
    def paper() -> "ACPParams":
        """Section 4.7: a problem with 1,500 variables."""
        return ACPParams()

    @staticmethod
    def small(n_vars: int = 80, n_constraints: int = 240) -> "ACPParams":
        return ACPParams(n_vars=n_vars, n_constraints=n_constraints)

    def with_(self, **kw) -> "ACPParams":
        return replace(self, **kw)

    @property
    def full_domain(self) -> int:
        return (1 << self.domain_size) - 1


@dataclass
class Network:
    """Constraint network with per-arc support masks.

    ``arcs[x]`` lists ``(y, supports)`` pairs constraining variable x;
    ``supports[a]`` is the bitmask of y-values compatible with x=a, so
    value a of x survives while ``supports[a] & dom(y) != 0``.
    """

    n_vars: int
    domain_size: int
    arcs: Dict[int, List[Tuple[int, List[int]]]]
    #: some variables start with restricted domains (the propagation seeds).
    initial_domains: List[int]

    def arcs_of(self, x: int) -> List[Tuple[int, List[int]]]:
        return self.arcs.get(x, [])


def build_network(params: ACPParams) -> Network:
    rng = substream(params.seed, "acp.network")
    n, d = params.n_vars, params.domain_size
    arcs: Dict[int, List[Tuple[int, List[int]]]] = {}
    for _ in range(params.n_constraints):
        x = int(rng.integers(0, n))
        y = int(rng.integers(0, n))
        if x == y:
            continue
        allowed = rng.random((d, d)) >= params.tightness
        # Support masks in both directions (a constraint yields two arcs).
        sup_xy = _support_masks(allowed)
        sup_yx = _support_masks(allowed.T)
        arcs.setdefault(x, []).append((y, sup_xy))
        arcs.setdefault(y, []).append((x, sup_yx))
    domains = [params.full_domain] * n
    # Seed the propagation: clamp a few variables to small domains.
    n_seeds = max(1, n // 20)
    for _ in range(n_seeds):
        v = int(rng.integers(0, n))
        keep = int(rng.integers(1, 4))
        mask = 0
        while popcount(mask) < keep:
            mask |= 1 << int(rng.integers(0, d))
        domains[v] = mask
    return Network(n, d, arcs, domains)


def _support_masks(allowed: np.ndarray) -> List[int]:
    """Row ``a`` of a boolean matrix as an int bitmask: bit ``b`` is set
    where ``allowed[a, b]``."""
    packed = np.packbits(allowed, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def revise(dom_x: int, dom_y: int, supports: List[int]) -> Tuple[int, int]:
    """Prune values of x without support in dom(y).

    Returns ``(new_dom_x, checks)`` where checks counts the support tests
    performed (the charged work).
    """
    new = 0
    checks = 0
    mask = dom_x
    while mask:
        a = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        checks += 1
        if supports[a] & dom_y:
            new |= 1 << a
    return new, checks


def sequential_reference(params: ACPParams) -> List[int]:
    """AC fixpoint by round-based sweeps (same schedule as the parallel
    program, so domains match exactly)."""
    net = build_network(params)
    domains = list(net.initial_domains)
    changed = True
    while changed:
        changed = False
        snapshot = list(domains)
        for x in range(net.n_vars):
            for y, supports in net.arcs_of(x):
                new, _ = revise(domains[x], snapshot[y], supports)
                if new != domains[x]:
                    domains[x] = new
                    changed = True
    return domains
