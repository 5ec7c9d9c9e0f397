"""Layer attribution: which layer of the simulator stack a function is in.

Every module under ``src/repro`` maps to exactly one layer through
:data:`LAYER_MAP` (longest dotted prefix wins).  There is deliberately no
catch-all entry for ``repro`` itself: a new top-level package has no
prefix to inherit from, so :func:`module_layer` raises and the layer test
fails until the package is given a layer.

Functions of the compiled event core (``repro.sim._ccore``) count as
``sim.engine``.  Any other C function, and any Python function outside
the repository (numpy, the standard library), counts toward the layer
that called it, split across callers by the time each caller spent in it.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Mapping, Optional, Tuple

#: Module prefix -> layer.  Lookup is by longest matching dotted prefix.
LAYER_MAP: Dict[str, str] = {
    # The package root and the CLI front end drive the harness.
    "repro.__init__": "harness",
    "repro.__main__": "harness",
    "repro.sim": "sim.engine",
    "repro.sim.primitives": "sim.primitives",
    "repro.sim.pdes": "sim.pdes",
    "repro.network": "network",
    "repro.orca": "orca",
    "repro.core": "core",
    "repro.apps": "apps",
    "repro.metrics": "metrics",
    # Observability (trace schema, analyzers, exporters) measures runs,
    # like ``metrics``; it only runs when a trace or profile is asked for.
    "repro.obs": "metrics",
    "repro.scenario": "scenario",
    "repro.tuner": "tuner",
    "repro.harness": "harness",
}

#: Every layer a repo module can map to, in report order.
LAYERS: Tuple[str, ...] = (
    "sim.engine", "sim.primitives", "network", "orca", "core", "apps",
    "metrics", "scenario", "tuner", "harness", "sim.pdes")

#: Time spent in the benchmark's own functions (counting wrappers, the
#: pass loop).  Reported apart from the repo's layers.
BENCH = "bench"
#: Time no repo or benchmark frame called (interpreter start-up residue).
OTHER = "other"

_CCORE = "repro.sim._ccore"


def module_layer(module: str) -> str:
    """Layer of dotted module name ``module`` (``repro.x.y``).

    Raises :class:`KeyError` for a ``repro`` module no entry covers.
    """
    parts = module.split(".")
    for end in range(len(parts), 0, -1):
        layer = LAYER_MAP.get(".".join(parts[:end]))
        if layer is not None:
            return layer
    raise KeyError(f"module {module!r} maps to no layer; add it to "
                   f"perfbench/layers.py LAYER_MAP")


def path_module(path: str, src_root: str) -> Optional[str]:
    """Dotted module name of source file ``path`` under ``src_root``,
    or ``None`` when the file is not part of the ``repro`` package."""
    rel = os.path.relpath(os.path.realpath(path), os.path.realpath(src_root))
    if rel.startswith("..") or not rel.endswith(".py"):
        return None
    parts = rel[:-3].split(os.sep)
    if parts[0] != "repro":
        return None
    if parts[-1] == "__init__" and len(parts) > 2:
        parts = parts[:-1]
    return ".".join(parts)


class Attributor:
    """Maps cProfile function keys to layers and buckets self time.

    ``src_root`` is the directory holding the ``repro`` package;
    ``bench_root`` holds the benchmark's own files.
    """

    def __init__(self, src_root: str, bench_root: str):
        self.src_root = src_root
        self.bench_root = os.path.realpath(bench_root)
        self._by_file: Dict[str, Optional[str]] = {}

    def own_layer(self, func: Tuple[str, int, str]) -> Optional[str]:
        """Layer of a function by its own location, ``None`` when it is
        a C or third-party function that inherits its caller's layer."""
        filename, _line, name = func
        if filename == "~":
            return "sim.engine" if _CCORE in name else None
        if filename not in self._by_file:
            self._by_file[filename] = self._file_layer(filename)
        return self._by_file[filename]

    def _file_layer(self, filename: str) -> Optional[str]:
        module = path_module(filename, self.src_root)
        if module is not None:
            return module_layer(module)
        if os.path.realpath(filename).startswith(self.bench_root + os.sep):
            return BENCH
        return None

    def self_time(self, stats: Mapping) -> Dict[str, float]:
        """Self time per layer from ``pstats.Stats(...).stats``.

        ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct,
        callers)`` where ``callers`` maps caller keys to ``(nc, cc, tt,
        ct)`` for that edge.
        """
        shares: Dict[Tuple, Dict[str, float]] = {}

        def share(func, visiting) -> Dict[str, float]:
            if func in shares:
                return shares[func]
            own = self.own_layer(func)
            if own is not None:
                shares[func] = {own: 1.0}
                return shares[func]
            callers = stats[func][4] if func in stats else {}
            edges = [(c, e[2]) for c, e in callers.items()
                     if c not in visiting]
            if sum(w for _c, w in edges) <= 0:
                edges = [(c, float(callers[c][0])) for c, _w in edges]
            total = sum(w for _c, w in edges)
            out: Dict[str, float] = {}
            if total > 0:
                visiting = visiting | {func}
                for caller, w in edges:
                    for layer, frac in share(caller, visiting).items():
                        out[layer] = out.get(layer, 0.0) + frac * w / total
            if not out:
                out = {OTHER: 1.0}
            if not visiting - {func}:   # memoize only cycle-free answers
                shares[func] = out
            return out

        totals: Dict[str, float] = {}
        for func, entry in stats.items():
            tt = entry[2]
            if tt <= 0:
                continue
            for layer, frac in share(func, frozenset()).items():
                totals[layer] = totals.get(layer, 0.0) + tt * frac
        return totals

    def calls_in(self, stats: Mapping, layer: str) -> int:
        """Python-level calls (generator resumes included) into
        functions of ``layer``."""
        return sum(entry[1] for func, entry in stats.items()
                   if self.own_layer(func) == layer)


def repo_modules(src_root: str) -> Iterable[str]:
    """Dotted names of every module and package under ``src_root/repro``."""
    base = os.path.join(src_root, "repro")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield path_module(os.path.join(dirpath, name), src_root)
