"""Attribute a cProfile run's self time and calls to the repository's layers.

Every profiled function is mapped to one layer by the module that defines
it.  C methods of the native kernel (``SchedulerCore.run``,
``quorum_sample``, ...) belong to ``native`` (the ``repro._native``
package; metric names must start with a letter) and numpy ``Generator``
methods to ``sim.rng``.  Functions outside the repository (builtins, the
standard library, the rest of numpy) have no layer of their own: their
self time is split over the layers of their callers, in proportion to the
time each caller edge accounts for, recursively.  So ``list.append``
called from the scheduler counts as scheduler time.

Calls into C objects that are not plain functions (the native
``SendCore`` installed as ``network.send`` is such a callable object) emit
no profiler event; their time lands in the calling Python function.
"""

import pstats
from collections import defaultdict
from typing import Dict, Iterable, Optional, Tuple

#: The layers reported, in output order.  ``other`` collects repository
#: code outside the named layers (adversary, chaos, experiments, the
#: benchmark itself) and time with no repository caller.
LAYERS: Tuple[str, ...] = (
    "sim.scheduler", "sim.network", "sim.futures", "sim.rng", "quorum",
    "registers", "native", "membership", "service", "obs", "iterative",
    "exec", "other",
)

#: Module prefix -> layer; the longest matching prefix wins.
MODULE_LAYERS: Dict[str, str] = {
    "repro.sim.scheduler": "sim.scheduler",
    "repro.sim.kernel": "sim.scheduler",
    "repro.sim.network": "sim.network",
    "repro.sim.metrics": "sim.network",
    "repro.sim.failures": "sim.network",
    "repro.sim.futures": "sim.futures",
    "repro.sim.coroutines": "sim.futures",
    "repro.sim.rng": "sim.rng",
    "repro.sim.delays": "sim.rng",
    "repro.sim.arrivals": "sim.rng",
    "repro.sim.trace": "obs",
    "repro.quorum": "quorum",
    "repro.registers": "registers",
    "repro.core": "registers",
    "repro._native": "native",
    "repro.membership": "membership",
    "repro.service": "service",
    "repro.obs": "obs",
    "repro.iterative": "iterative",
    "repro.apps": "iterative",
    "repro.exec": "exec",
    "repro": "other",
}

Func = Tuple[str, int, str]


def module_of(filename: str) -> Optional[str]:
    """``.../src/repro/sim/network.py`` -> ``repro.sim.network``."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0 or not path.endswith(".py"):
        return None
    dotted = "repro." + path[at + len(marker):-3].replace("/", ".")
    return dotted[:-len(".__init__")] if dotted.endswith(".__init__") else dotted


def own_layer(func: Func) -> Optional[str]:
    """The layer that defines ``func``, or None for non-repository code."""
    filename, _, name = func
    if filename == "~":
        if "repro._native._kernel" in name:
            return "native"
        if "numpy.random" in name:
            return "sim.rng"
        return None
    module = module_of(filename)
    if module is None:
        return None
    best = None
    for prefix, layer in MODULE_LAYERS.items():
        if (module == prefix or module.startswith(prefix + ".")) and (
            best is None or len(prefix) > len(best[0])
        ):
            best = (prefix, layer)
    return best[1] if best is not None else None


class LayerProfile:
    """Per-layer self time and call counts of one ``pstats.Stats``."""

    def __init__(self, stats: pstats.Stats) -> None:
        self.stats: Dict[Func, tuple] = stats.stats  # type: ignore[attr-defined]
        self._shares: Dict[Func, Dict[str, float]] = {}
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        for func, (_, ncalls, tottime, _, _) in self.stats.items():
            layer = own_layer(func)
            if layer is not None:
                self.calls[layer] += ncalls
            for share_layer, share in self._share(func, set()).items():
                self.self_s[share_layer] += tottime * share

    def _share(self, func: Func, visiting: set) -> Dict[str, float]:
        """How ``func``'s self time divides over layers (sums to 1)."""
        cached = self._shares.get(func)
        if cached is not None:
            return cached
        layer = own_layer(func)
        if layer is not None:
            share = {layer: 1.0}
        elif func in visiting:
            return {"other": 1.0}  # a cycle of non-repository frames
        else:
            visiting.add(func)
            callers = self.stats[func][4] if func in self.stats else {}
            weights = {
                caller: edge[2] for caller, edge in callers.items()
                if edge[2] > 0
            }
            total = sum(weights.values())
            if total <= 0:
                share = {"other": 1.0}
            else:
                share = defaultdict(float)
                for caller, weight in weights.items():
                    for caller_layer, part in self._share(
                        caller, visiting
                    ).items():
                        share[caller_layer] += part * weight / total
                share = dict(share)
            visiting.discard(func)
        self._shares[func] = share
        return share

    @property
    def total_s(self) -> float:
        return sum(self.self_s.values())

    def calls_to(self, modules: Iterable[str], name: str) -> int:
        """Calls of functions called ``name`` defined in ``modules``."""
        wanted = set(modules)
        return sum(
            entry[1] for func, entry in self.stats.items()
            if func[2] == name and module_of(func[0]) in wanted
        )

    def calls_from(self, module: str, name: str) -> int:
        """Calls made by functions called ``name`` defined in ``module``."""
        total = 0
        for entry in self.stats.values():
            for caller, edge in entry[4].items():
                if caller[2] == name and module_of(caller[0]) == module:
                    total += edge[0]
        return total

    def metrics(self) -> Dict[str, float]:
        """``<layer>.self_s`` and ``<layer>.calls`` for every layer."""
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
            out[f"{layer}.calls"] = self.calls.get(layer, 0)
        return out
