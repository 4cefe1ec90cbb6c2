"""Tracing of ``revembed`` from outside the package, for the traced run.

``Tracer.install`` wraps the public functions of each module and records
one span (name, start, end, parent, job) per call, in memory. ``cube_and``,
``cube_sharp``, ``Manager.apply`` and ``Manager.__init__`` are only
counted: spans around them would cost more than the work they time.

The package rebinds names: ``revembed.dsop`` is the function, not the
module, and ``cli``, ``linecount``, ``embedding`` and ``__init__`` hold
their own references to functions of other modules. So modules are taken
from ``sys.modules`` and every module-level name bound to a wrapped
function is replaced, wherever it lives.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function) pairs that get a span; the span and the layer are
# named after the module's last component
SPANNED = [
    ("cli", "main"),
    ("pla", "parse_pla"),
    ("pla", "to_functions"),
    ("pla", "characteristic"),
    ("dsop", "dsop"),
    ("dsop", "post_compact"),
    ("linecount", "heuristic_mu"),
    ("linecount", "exact_mu_cube"),
    ("linecount", "exact_mu_bdd"),
    ("embedding", "embed_exact"),
    ("embedding", "embed_bennett"),
    ("embedding", "complete_offset"),
    ("embedding", "verify"),
    ("benchgen", "redundancy"),
    ("benchgen", "restricted_growth"),
]

LAYERS = ["cli", "pla", "dsop", "linecount", "embedding", "benchgen"]

# per-function inclusive times reported as <layer>.<function>_s
TIMED = [
    "dsop.dsop",
    "dsop.post_compact",
    "embedding.embed_exact",
    "embedding.complete_offset",
    "embedding.embed_bennett",
    "embedding.verify",
    "linecount.heuristic_mu",
    "linecount.exact_mu_bdd",
    "linecount.exact_mu_cube",
    "benchgen.redundancy",
    "benchgen.restricted_growth",
    "pla.parse_pla",
    "pla.to_functions",
    "pla.characteristic",
]


def _package_modules() -> dict:
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "revembed" or name.startswith("revembed."))
    }


def _rebind(modules: dict, old, new) -> list:
    """Point every module-level name bound to `old` at `new`; return what
    to undo."""
    undo = []
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                undo.append((mod, attr, old))
    return undo


class Tracer:
    """Spans and counters for one process; install once, reset per pass."""

    def __init__(self):
        self._undo: list = []
        # the wrappers hold these containers, so reset() clears them in place
        self.spans: list = []
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self.reset()

    def reset(self):
        self.spans.clear()
        self._stack.clear()
        self._active.clear()
        self.job = -1
        self.and_calls = 0
        self.sharp_calls = 0
        self.dsop_ands = 0
        self.dsop_meets = 0
        self.apply_calls = 0
        self.counts: dict[str, int] = defaultdict(int)
        self._managers: list = []
        self._roots: list = []

    # ------------------------------------------------------------ wrapping

    def _spanned(self, layer: str, func, on_result):
        name = "%s.%s" % (layer, func.__name__)
        spans, stack, active = self.spans, self._stack, self._active

        def wrapper(*args, **kwargs):
            outer = active[layer] == 0
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            active[layer] += 1
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                active[layer] -= 1
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if on_result is not None:
                on_result(args, result, outer)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = func.__name__
        return wrapper

    def install(self):
        import revembed  # noqa: F401  (loads every submodule)

        modules = _package_modules()
        hooks = {
            "dsop.dsop": self._on_dsop,
            "embedding.embed_exact": self._on_embed_exact,
            "embedding.embed_bennett": self._on_embedding,
            "pla.to_functions": self._on_funcs,
            "pla.characteristic": self._on_func,
            "benchgen.redundancy": self._on_func,
            "benchgen.restricted_growth": self._on_func,
            "linecount.heuristic_mu": self._on_report,
            "linecount.exact_mu_cube": self._on_report,
            "linecount.exact_mu_bdd": self._on_report,
        }
        for layer, fname in SPANNED:
            func = getattr(modules["revembed." + layer], fname)
            wrapped = self._spanned(layer, func, hooks.get("%s.%s" % (layer, fname)))
            self._undo += _rebind(modules, func, wrapped)

        cube = modules["revembed.cube"]
        cube_and, cube_sharp = cube.cube_and, cube.cube_sharp

        def counted_and(a, b):
            self.and_calls += 1
            return cube_and(a, b)

        def dsop_and(a, b):
            # the cube_and name inside dsop: the scan for a first overlap
            self.and_calls += 1
            self.dsop_ands += 1
            meet = cube_and(a, b)
            if meet is not None:
                self.dsop_meets += 1
            return meet

        def counted_sharp(a, b):
            self.sharp_calls += 1
            return cube_sharp(a, b)

        self._undo += _rebind(modules, cube_and, counted_and)
        dsop_mod = modules["revembed.dsop"]
        self._undo.append((dsop_mod, "cube_and", counted_and))
        dsop_mod.cube_and = dsop_and
        self._undo += _rebind(modules, cube_sharp, counted_sharp)

        manager_cls = modules["revembed.bdd"].Manager
        init, apply = manager_cls.__init__, manager_cls.apply

        def counted_init(manager, *args, **kwargs):
            init(manager, *args, **kwargs)
            self._managers.append(manager)

        def counted_apply(manager, op, f, g):
            self.apply_calls += 1
            return apply(manager, op, f, g)

        self._undo += [(manager_cls, "__init__", init), (manager_cls, "apply", apply)]
        manager_cls.__init__ = counted_init
        manager_cls.apply = counted_apply

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo = []

    # --------------------------------------------------------------- hooks

    def _on_dsop(self, args, result, outer):
        self.counts["dsop.cubes_out"] += len(result.entries)

    def _on_embed_exact(self, args, result, outer):
        self.counts["embedding.entries"] += len(args[0].entries)
        self._roots.append(result.chi)

    def _on_embedding(self, args, result, outer):
        self._roots.append(result.chi)

    def _on_funcs(self, args, result, outer):
        self._roots.extend(result)

    def _on_func(self, args, result, outer):
        self._roots.append(result)

    def _on_report(self, args, result, outer):
        if outer:
            self.counts["linecount.patterns"] += len(result.per_pattern)

    # ---------------------------------------------------------------- jobs

    def end_job(self):
        """Fold the finished job's managers into the node counters and let
        them go."""
        self.counts["bdd.managers"] += len(self._managers)
        for manager in self._managers:
            self.counts["bdd.nodes_created"] += manager.node_count() - 2
        self.counts["bdd.nodes_reachable"] += reachable(self._roots)
        self._managers = []
        self._roots = []

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset."""
        out = dict(self.counts)
        spans = self.spans  # every span is complete between passes
        inclusive = inclusive_times(spans)
        for name in TIMED:
            out[name + "_s"] = inclusive.get(name, 0.0)
        selfs = layer_self_times(spans)
        for layer in LAYERS:
            out[layer + ".self_s"] = selfs.get(layer, 0.0)
        out["cube.cube_and_calls"] = self.and_calls
        out["cube.cube_sharp_calls"] = self.sharp_calls
        out["dsop.meet_ratio"] = (
            self.dsop_meets / self.dsop_ands if self.dsop_ands else 0.0
        )
        out["bdd.apply_calls"] = self.apply_calls
        for key in (
            "dsop.cubes_out",
            "embedding.entries",
            "linecount.patterns",
            "bdd.managers",
            "bdd.nodes_created",
            "bdd.nodes_reachable",
        ):
            out.setdefault(key, 0)
        created = out["bdd.nodes_created"]
        out["bdd.reach_ratio"] = out["bdd.nodes_reachable"] / created if created else 0.0
        return out


def reachable(roots) -> int:
    """Distinct non-terminal nodes reachable from the given functions."""
    total = 0
    by_manager: dict[int, tuple] = {}
    for f in roots:
        by_manager.setdefault(id(f.manager), (f.manager, []))[1].append(f)
    for manager, funcs in by_manager.values():
        seen = set()
        stack = [f for f in funcs if not (f.is_true or f.is_false)]
        while stack:
            f = stack.pop()
            if f.node in seen:
                continue
            seen.add(f.node)
            for child in manager.node_branches(f):
                if not (child.is_true or child.is_false):
                    stack.append(child)
        total += len(seen)
    return total


# ------------------------------------------------------------ span algebra


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it its children cover.
    Spans are (name, start, end, parent index, ...)."""
    children: dict[int, list] = defaultdict(list)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children[i], start, end)
        for i, (name, start, end, parent, *_) in enumerate(spans)
    ]


def layer_self_times(spans: list) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        out[span[0].split(".")[0]] += own
    return dict(out)


def inclusive_times(spans: list) -> dict[str, float]:
    """Total duration per span name, counting a call nested inside a call of
    the same name only once."""
    out: dict[str, float] = defaultdict(float)
    for name, start, end, parent, *_ in spans:
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[name] += end - start
    return dict(out)
