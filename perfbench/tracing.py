"""Outside-in tracing of chain_census by wrapping its public functions.

The benchmark never edits the package.  A `Tracer` replaces every public
module-level function of the traced layers with a wrapper, in every
``chain_census`` module that holds a reference to it (the modules import
each other's functions by name), and puts the originals back on
`uninstall`.

Two kinds of wrapper exist:

* timed (``timed=True``): records calls, inclusive time and self time.  A
  function's self time is its inclusive time minus the inclusive time of
  the wrapped functions it called, so the self times of all functions add
  up to the time spent inside top-level wrapped calls.  The per-pair
  predicates in `PER_PAIR` are left unwrapped here: they run millions of
  times per step and a span around each one more than doubles a run.
  Their time is charged to the caller's self time.
* counting (``timed=False``): records calls only, including those of the
  per-pair predicates, and how many predicate calls happen inside
  ``build_adjacency``.  Its timings are meaningless and are discarded.

Both kinds also record what the layer boundaries return: adjacency edge
counts, chain and walk counts, the covering's shape and the files read or
written.
"""

from __future__ import annotations

import inspect
import sys
from dataclasses import dataclass
from time import perf_counter

# Layers in the order the package imports them; each is a module of
# chain_census and names the metrics of its functions.
LAYERS = ("geometry", "layered", "richness", "constructions", "io", "experiment")

# Called once per point pair; wrapped only by the counting tracer.
PER_PAIR = frozenset({"geometry.matches_distance", "geometry.squared_distance"})

PACKAGE = "chain_census"


@dataclass
class FnStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def public_functions() -> dict:
    """{"layer.name": function} for every public function each layer defines."""
    found = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == mod.__name__:
                found[f"{layer}.{name}"] = obj
    return found


def function_bindings() -> dict:
    """{(module, attribute): function object} across the whole package.

    Equal snapshots before and after tracing show that every original
    function is back in place.
    """
    return {
        (mod_name, attr): val
        for mod_name, mod in list(sys.modules.items())
        if mod is not None and (mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."))
        for attr, val in vars(mod).items()
        if inspect.isfunction(val)
    }


class Tracer:
    def __init__(self, timed: bool):
        self.timed = timed
        self.stats: dict[str, FnStat] = {}
        self.top_level_s = 0.0
        self.edges = 0
        self.pair_calls_in_adjacency = 0
        self.chains = 0
        self.walks = 0
        self.covering_classes = 0
        self.covering_max_len = 0
        self.paths_read: list[str] = []
        self.paths_written: list[str] = []
        self._stack: list[float] = []
        self._adjacency_depth = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = public_functions()
        if self.timed:
            targets = {k: f for k, f in targets.items() if k not in PER_PAIR}
        wrappers = {id(fn): self._wrap(key, fn) for key, fn in targets.items()}
        for (mod_name, attr), val in function_bindings().items():
            wrapper = wrappers.get(id(val))
            if wrapper is not None:
                mod = sys.modules[mod_name]
                self._patched.append((mod, attr, val))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, FnStat())
        observe = self._observer(key)
        if not self.timed:
            return self._counting_wrapper(key, fn, stat, observe)
        stack = self._stack

        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                child = stack.pop()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - child
                if stack:
                    stack[-1] += elapsed
                else:
                    self.top_level_s += elapsed
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return timed

    def _counting_wrapper(self, key: str, fn, stat: FnStat, observe):
        if key == "geometry.matches_distance":

            def counted(*args, **kwargs):
                stat.calls += 1
                if self._adjacency_depth:
                    self.pair_calls_in_adjacency += 1
                return fn(*args, **kwargs)

        elif key == "layered.build_adjacency":

            def counted(*args, **kwargs):
                stat.calls += 1
                self._adjacency_depth += 1
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._adjacency_depth -= 1
                observe(args, kwargs, result)
                return result

        else:

            def counted(*args, **kwargs):
                stat.calls += 1
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, kwargs, result)
                return result

        return counted

    def _observer(self, key: str):
        """What to record from a call's arguments and result, if anything."""
        if key == "layered.build_adjacency":

            def observe(args, kwargs, result):
                self.edges += result.total_edges()

        elif key == "layered.count_chains":

            def observe(args, kwargs, result):
                self.chains += result

        elif key == "layered.count_walks":

            def observe(args, kwargs, result):
                self.walks += result

        elif key == "richness.stable_covering":

            def observe(args, kwargs, result):
                self.covering_classes += len(result)
                longest = max((len(cc.sequence) for cc in result), default=0)
                self.covering_max_len = max(self.covering_max_len, longest)

        elif key.startswith("io.read_") or key.startswith("io.write_"):
            paths = self.paths_read if key.startswith("io.read_") else self.paths_written

            def observe(args, kwargs, result):
                paths.append(args[0] if args else kwargs["path"])

        else:
            observe = None
        return observe

    # -- results -----------------------------------------------------------

    def self_s(self, prefix: str) -> float:
        """Summed self time of the functions whose key starts with prefix."""
        return sum(s.self_s for k, s in self.stats.items() if k.startswith(prefix))

    def stat(self, key: str) -> FnStat:
        return self.stats.get(key, FnStat())
