"""Outside-in tracer: times fiberlab's layer functions without editing them.

``Tracer.install`` replaces each target function with a wrapper in every
fiberlab module that bound it (``from .groebner import buchberger``
copies the function into the importing module, so each copy is
replaced), and replaces target methods on their class.  Each wrapped
call appends one span (target, parent span, start, end) to flat arrays
in memory; ``save`` writes them out when the run ends and ``summarize``
turns them into per-target calls, total and self time.

A target that no longer exists is reported as missing, never as zero.
"""

from __future__ import annotations

import array
import functools
import importlib
import pkgutil
import sys
import time

# Layer (module) -> public functions whose time is reported.
TARGETS = {
    "groebner": ("buchberger", "extend_basis", "normal_form"),
    "linalg": ("Echelon.add", "Echelon.reduce", "nullspace", "rank_of_rows"),
    "hilbert": ("monomial_numerator",),
    "graded": ("graded_piece", "piece_span_of_polys", "minimal_generators",
               "syzygies_degreewise"),
    "resolutions": ("minimal_resolution",),
    "depth": ("regular_cut", "socle_witness", "graded_depth",
              "bounded_ideal_grade"),
    "blowup": ("fiber_presentation", "rees_and_gr", "is_cm_graded",
               "minimal_reduction", "fiber_truncated"),
    "predicates": ("fiber_indeg", "tight_profile", "valabrega_valla",
                   "analytically_adjusted", "multiplicity_formula_checks"),
    "parse": ("parse_ideal_file",),
}


# Counters read from a call's arguments and result, keyed by target.
def _count_buchberger(counters, args, result):
    counters["groebner.buchberger.basis_elems"] += len(result.elements)


def _count_echelon_add(counters, args, result):
    echelon = args[0]
    grew = bool(result)
    counters["linalg.Echelon.add.rank_gains"] += grew
    # Rows the call could touch, times their width: the dense work of
    # reducing against and back-substituting into the current basis.
    counters["linalg.Echelon.add.row_ops"] += (echelon.rank - grew) * echelon.width


def _count_regular_cut(counters, args, result):
    counters["depth.regular_cut.ok"] += bool(result[0])


COUNTERS = {
    "groebner.buchberger": _count_buchberger,
    "linalg.Echelon.add": _count_echelon_add,
    "depth.regular_cut": _count_regular_cut,
}
COUNTER_NAMES = ("groebner.buchberger.basis_elems", "linalg.Echelon.add.rank_gains",
                 "linalg.Echelon.add.row_ops", "depth.regular_cut.ok")


class Tracer:
    def __init__(self):
        self.names = []
        self.missing = []
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self._target = array.array("i")
        self._parent = array.array("i")
        self._outer = array.array("b")   # 1 if no span of the same target is open
        self._start = array.array("d")
        self._end = array.array("d")
        self._stack = []
        self._open = []                  # open spans per target

    def _wrap(self, name, fn):
        idx = len(self.names)
        self.names.append(name)
        self._open.append(0)
        target, parent, outer = self._target, self._parent, self._outer
        start, end, stack, open_ = self._start, self._end, self._stack, self._open
        count = COUNTERS.get(name)
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            target.append(idx)
            parent.append(stack[-1] if stack else -1)
            outer.append(open_[idx] == 0)
            open_[idx] += 1
            stack.append(span)
            end.append(0.0)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
                open_[idx] -= 1
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def install(self, package: str = "fiberlab", targets=TARGETS):
        """Wrap every target (module -> qualified names) found in ``package``."""
        pkg = importlib.import_module(package)
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"{package}.{info.name}")
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for layer, quals in targets.items():
            try:
                mod = importlib.import_module(f"{package}.{layer}")
            except ImportError:
                mod = None
            for qual in quals:
                name = f"{layer}.{qual}"
                owner_path, _, attr = qual.rpartition(".")
                owner = mod
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None)
                if not callable(original):
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original)
                if owner_path:
                    setattr(owner, attr, wrapper)
                    continue
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)

    def save(self, path):
        import numpy as np
        np.savez(path,
                 target=np.frombuffer(self._target, dtype=np.int32),
                 parent=np.frombuffer(self._parent, dtype=np.int32),
                 outer=np.frombuffer(self._outer, dtype=np.int8),
                 start=np.frombuffer(self._start, dtype=np.float64),
                 end=np.frombuffer(self._end, dtype=np.float64))
        return {"names": self.names, "missing": self.missing,
                "counters": self.counters}


def summarize(spans_path, meta) -> dict:
    """Per-target ``calls``, ``total_s`` and ``self_s`` plus the counters.

    ``total_s`` sums the spans with no enclosing span of the same target,
    so a recursive target is not counted twice.  ``self_s`` is each span's
    duration minus the durations of its direct wrapped children.
    """
    import numpy as np
    with np.load(spans_path) as z:
        target, parent, outer = z["target"], z["parent"], z["outer"]
        dur = z["end"] - z["start"]
    n = len(meta["names"])
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=dur[nested],
                           minlength=len(dur))
    calls = np.bincount(target, minlength=n)
    total = np.bincount(target, weights=dur * outer, minlength=n)
    own = np.bincount(target, weights=dur - children, minlength=n)
    out = {}
    for i, name in enumerate(meta["names"]):
        out[f"{name}.calls"] = int(calls[i])
        out[f"{name}.total_s"] = float(total[i])
        out[f"{name}.self_s"] = float(own[i])
    out.update(meta["counters"])
    return out
