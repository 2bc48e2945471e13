"""Per-layer spans and counters for one CLI invocation, recorded from outside.

`install()` wraps the public functions listed in SPANS and rebinds every name
that refers to them in the loaded `exangulate` modules, so calls made through
`from .quiver import hom_basis` and through module globals both pass through
the wrapper.  Nothing in `src/` is edited.

A span's inclusive time counts only its outermost activation (recursion is
not counted twice); its self time is its duration minus the time covered by
the wrapped spans it called.  Time spent in code that is not wrapped belongs
to the nearest wrapped caller.  `lru_cache` hits and misses come from the
original function's `cache_info()`, so the wrapper cannot miscount them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# span name -> (module, attribute path, what else to count)
#   "truth": results that are true, for useful-attempt ratios
#   "length": len(result), the number of elements an enumeration yields
#   "cache": the function is an lru_cache; record its hit/miss deltas
SPANS = {
    "linalg.matmul": ("exangulate.linalg", "Matrix.__matmul__", None),
    "linalg.rref": ("exangulate.linalg", "rref", None),
    "linalg.rref_solve": ("exangulate.linalg", "rref_solve", None),
    "linalg.kernel_basis": ("exangulate.linalg", "kernel_basis", None),
    "quiver.decompose": ("exangulate.quiver", "decompose", None),
    "quiver.direct_sum": ("exangulate.quiver", "direct_sum", None),
    "quiver.enumerate_hom": ("exangulate.quiver", "enumerate_hom", "length"),
    "quiver.is_isomorphic": ("exangulate.quiver", "is_isomorphic", None),
    "quiver.hom_basis": ("exangulate.quiver", "hom_basis", "cache"),
    "quiver.morphism_in_coords": ("exangulate.quiver", "morphism_in_coords", None),
    "quiver.ext_group": ("exangulate.quiver", "ext_group", "cache"),
    "quiver.resolution": ("exangulate.quiver", "resolution", "cache"),
    "exangulated.realize": ("exangulate.exangulated", "ExCategory.realize", None),
    "exangulated.is_n_exangle": ("exangulate.exangulated", "ExCategory.is_n_exangle", None),
    "exangulated.lift_space": ("exangulate.exangulated", "ExCategory.lift_space", None),
    "exangulated.mapping_cone": ("exangulate.exangulated", "ExCategory.mapping_cone", None),
    "exangulated.mapping_cocone": ("exangulate.exangulated", "ExCategory.mapping_cocone", None),
    "exangulated.check_core_axioms": ("exangulate.exangulated", "ExCategory.check_core_axioms", None),
    "exangulated.is_distinguished": ("exangulate.exangulated", "ExCategory.is_distinguished", "truth"),
    "exangulated.is_inflation": ("exangulate.exangulated", "ExCategory.is_inflation", "truth"),
    "exangulated.is_deflation": ("exangulate.exangulated", "ExCategory.is_deflation", "truth"),
    "localization.check_mr": ("exangulate.localization", "check_mr", None),
    "localization.IdealQuotient.project": ("exangulate.localization", "IdealQuotient.project", None),
    "localization.IdealQuotient.tables": ("exangulate.localization", "IdealQuotient.tables", None),
    "localization.k_subgroup": ("exangulate.localization", "k_subgroup", None),
    "localization.ebar_group": ("exangulate.localization", "ebar_group", None),
    "localization.weak_kc_check": ("exangulate.localization", "weak_kc_check", None),
    "localization.localize": ("exangulate.localization", "localize", None),
    "cli.parse_input": ("exangulate.cli", "parse_input", None),
    "cli.build_category": ("exangulate.cli", "build_category", None),
    "cli.probe_verdicts": ("exangulate.cli", "probe_verdicts", None),
}


class _Stat:
    __slots__ = ("calls", "incl_s", "self_s", "active", "true", "elements",
                 "cache")

    def __init__(self) -> None:
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.active = 0
        self.true = 0
        self.elements = 0
        self.cache = None  # (lru_cache function, its cache_info() at install)


class Tracer:
    """Owns the span statistics of one process; `install` starts recording."""

    def __init__(self) -> None:
        self.stats = {name: _Stat() for name in SPANS}
        # one accumulator per open span for the time its wrapped callees took;
        # the bottom entry collects the time of top-level spans
        self._child_time = [0.0]

    def _wrap(self, fn, stat: _Stat, extra: str | None):
        child_time = self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            stat.active += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.active -= 1
                stat.calls += 1
                stat.self_s += elapsed - child_time.pop()
                if not stat.active:
                    stat.incl_s += elapsed
                child_time[-1] += elapsed
            if extra == "truth" and result:
                stat.true += 1
            elif extra == "length":
                stat.elements += len(result)
            return result

        return wrapper

    def install(self) -> None:
        for name, (module_name, path, extra) in SPANS.items():
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            stat = self.stats[name]
            if extra == "cache":
                stat.cache = (original, original.cache_info())
            wrapper = self._wrap(original, stat, extra)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "exangulate" and not mod_name.startswith("exangulate."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def report(self) -> dict:
        """Raw statistics per span, in seconds and counts."""
        out = {}
        for name, stat in self.stats.items():
            row = {"calls": stat.calls, "incl_s": stat.incl_s,
                   "self_s": stat.self_s, "true": stat.true,
                   "elements": stat.elements}
            if stat.cache is not None:
                cached, start = stat.cache
                info = cached.cache_info()
                row["hits"] = info.hits - start.hits
                row["misses"] = info.misses - start.misses
            out[name] = row
        return out
