"""Layer tracing for quiverhom, installed from outside the package.

The layers are the package modules.  `install` wraps the public functions,
the `__init__` and public methods of the public classes, and Matrix
arithmetic, then rebinds every module attribute that held an original, so a
name imported with `from .exactlin import rank` is traced as well.  Scalar
`Field` methods stay unwrapped: they run per matrix entry, and their time
counts in the calling span.

A call opens a span only when it enters a layer from another layer; calls
nested in the same layer fold into the open span.  A span's self time is
its duration minus the time its child spans cover.  Work counters
(`matrices_built`, `blocks`, ...) count every call, folded or not.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("exactlin", "quiver", "pathcoalg", "repmod", "homology", "regularity", "cli")
PACKAGE = "quiverhom"

# exactlin entry points that run an elimination; their (function, args)
# pairs measure how much elimination work repeats
ELIMINATING = frozenset({"rank", "kernel_basis", "cokernel_data", "solve", "inverse", "Quotient.__init__"})
WRAPPED_DUNDERS = frozenset({"__init__", "__add__", "__sub__", "__mul__", "__neg__"})
UNWRAPPED_CLASSES = frozenset({"Field"})


class _Key:
    """Set key that hashes its (large) content once."""

    __slots__ = ("value", "hash")

    def __init__(self, value):
        self.value = value
        self.hash = hash(value)

    def __hash__(self):
        return self.hash

    def __eq__(self, other):
        return self.hash == other.hash and self.value == other.value


class Tracer:
    """Span stack and counters for one process; `clock` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []           # open spans: [layer, start, covered_by_children]
        self.calls = Counter()    # cross-layer entries per layer
        self.self_s = Counter()   # seconds per layer, child spans excluded
        self.counts = Counter()   # work counters, every call
        self.seconds = Counter()  # named inclusive timers
        self.bookkeeping_s = 0.0  # hashing for the repeat counters, charged to no layer
        self._seen_calls = set()
        self._seen_matrices = set()  # (rows, cols, entries)
        self._timer_depth = Counter()

    # spans -------------------------------------------------------------

    def enter(self, layer: str):
        """Open a span for `layer`, or return None when it folds into the open one."""
        if self.stack and self.stack[-1][0] == layer:
            return None
        self.calls[layer] += 1
        frame = [layer, self.clock(), 0.0]
        self.stack.append(frame)
        return frame

    def exit(self, frame) -> float:
        """Close `frame`; return its duration."""
        dur = self.clock() - frame[1]
        self.stack.pop()
        self.self_s[frame[0]] += dur - frame[2]
        if self.stack:
            self.stack[-1][2] += dur
        return dur

    def _uncharged(self, started: float) -> None:
        """Remove tracer work since `started` from the open span's self time."""
        spent = self.clock() - started
        self.bookkeeping_s += spent
        if self.stack:
            self.stack[-1][2] += spent

    # hooks ---------------------------------------------------------------

    def record_call(self, name: str, args: tuple, dur: float) -> None:
        """Count one cross-layer elimination call and whether it repeats an earlier one."""
        started = self.clock()
        key = _Key((name, tuple(tuple(a) if isinstance(a, list) else a for a in args)))
        self.counts["exactlin.elim_calls"] += 1
        if key in self._seen_calls:
            self.seconds["exactlin.repeat_s"] += dur
        else:
            self._seen_calls.add(key)
        self._uncharged(started)

    def record_elimination(self, m) -> None:
        started = self.clock()
        self.counts["exactlin.eliminations"] += 1
        cells = m.rows * m.cols
        self.counts["exactlin.cells"] += cells
        if cells > self.counts["exactlin.max_cells"]:
            self.counts["exactlin.max_cells"] = cells
            self.counts["exactlin.max_rows"] = m.rows
            self.counts["exactlin.max_cols"] = m.cols
        self._seen_matrices.add((m.rows, m.cols, m.entries))
        self._uncharged(started)

    def timed(self, name: str, fn):
        """Inclusive timer around the outermost active call of `fn`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._timer_depth[name] += 1
            started = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._timer_depth[name] -= 1
                if not self._timer_depth[name]:
                    self.seconds[name] += self.clock() - started

        return wrapper

    def counted(self, name: str, fn, amount=None):
        """Count every call of `fn`; `amount(result, args)` overrides the step of 1."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[name] += 1 if amount is None else amount(result, args)
            return result

        return wrapper

    def spanned(self, layer: str, qualname: str, fn):
        eliminating = layer == "exactlin" and qualname in ELIMINATING

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.enter(layer)
            if frame is None:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = self.exit(frame)
                if eliminating:
                    self.record_call(qualname, args[1:] if qualname.endswith("__init__") else args, dur)

        return wrapper

    # summary -------------------------------------------------------------

    def summary(self) -> dict:
        counts = dict(self.counts)
        counts["exactlin.distinct_matrices"] = len(self._seen_matrices)
        counts["exactlin.distinct_entries"] = len({entries for _, _, entries in self._seen_matrices})
        counts["exactlin.distinct_calls"] = len(self._seen_calls)
        return {
            "layers": {layer: {"calls": self.calls[layer], "self_s": self.self_s[layer]} for layer in LAYERS},
            "counts": counts,
            "seconds": dict(self.seconds),
            "bookkeeping_s": self.bookkeeping_s,
        }


def _layer_modules() -> dict:
    return {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}


def _rebind(original, replacement) -> None:
    for name, mod in list(sys.modules.items()):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _wrap_method(cls, attr: str, make) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, (classmethod, staticmethod)):
        setattr(cls, attr, type(raw)(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def _method_names(cls) -> list:
    names = []
    for attr, raw in vars(cls).items():
        func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        if inspect.isfunction(func) and (attr in WRAPPED_DUNDERS or not attr.startswith("_")):
            names.append(attr)
    return names


def install(tracer: Tracer) -> None:
    """Wrap the imported quiverhom package for `tracer`; call once per process."""
    mods = _layer_modules()
    exactlin, quiver, repmod, homology = (mods[k] for k in ("exactlin", "quiver", "repmod", "homology"))

    # work counters first, so the span wrappers enclose them
    rref = exactlin._rref

    def eliminating(m):
        tracer.record_elimination(m)
        return rref(m)

    exactlin._rref = eliminating
    original_new = exactlin.Matrix.__new__

    def counting_new(cls, *args, **kwargs):
        tracer.counts["exactlin.matrices_built"] += 1
        return original_new(cls)

    exactlin.Matrix.__new__ = staticmethod(counting_new)
    repmod.Rep.__init__ = tracer.counted("repmod.reps_built", repmod.Rep.__init__)
    homology.AlgebraExtEngine.block = tracer.counted("homology.blocks", homology.AlgebraExtEngine.block)
    quiver.PathTable.__init__ = tracer.counted(
        "quiver.paths_enumerated", quiver.PathTable.__init__,
        amount=lambda _, args: sum(len(level) for level in args[0].by_length))
    _rebind(homology.standard_resolution, tracer.counted("homology.resolutions", homology.standard_resolution))
    _rebind(repmod.hom_space, tracer.timed("repmod.hom_space_s", repmod.hom_space))

    for layer, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                _rebind(obj, tracer.spanned(layer, name, obj))
            elif inspect.isclass(obj) and not issubclass(obj, BaseException) and name not in UNWRAPPED_CLASSES:
                for attr in _method_names(obj):
                    _wrap_method(obj, attr, functools.partial(tracer.spanned, layer, f"{name}.{attr}"))

