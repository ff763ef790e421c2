"""Quiver model, path enumeration, and the bounded-growth admissibility gate.

Composition convention, fixed once for the whole package: paths are written
right-to-left like function composition.  p * q is defined when
source(p) == target(q), and the arrows of p * q in traversal order are
q.arrows followed by p.arrows.  Every module/comodule side convention
downstream derives from this single choice.

Vertices are 1-based in the file format and 0-based internally.
"""

from __future__ import annotations

import functools
import math
from operator import attrgetter

from .exactlin import Field


class Record:
    """Base of the package's value classes: equality, hash and repr read the
    fields named by the subclass's `__slots__`, in slot order, as a
    dataclass's would.  Subclasses write their own `__init__`."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = attrgetter(*cls.__slots__)  # a tuple getter: every subclass has 2+ fields

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Arrow(Record):
    __slots__ = ("label", "source", "target")

    def __init__(self, label: str, source: int, target: int):
        self.label, self.source, self.target = label, source, target


class Quiver(Record):
    __slots__ = ("vertex_count", "arrows")

    def __init__(self, vertex_count: int, arrows: tuple):
        self.vertex_count, self.arrows = vertex_count, arrows
        if self.vertex_count < 1:
            raise ValueError("vertex_count must be >= 1")
        seen = set()
        for a in self.arrows:
            if a.label in seen:
                raise ValueError(f"duplicate arrow label {a.label!r}")
            seen.add(a.label)
            if not (0 <= a.source < self.vertex_count and 0 <= a.target < self.vertex_count):
                raise ValueError(f"arrow {a.label!r} endpoint out of range")

    @property
    def vertices(self) -> range:
        return range(self.vertex_count)

    def arrows_from(self, v: int) -> list:
        return [i for i, a in enumerate(self.arrows) if a.source == v]


class Path(Record):
    """A path of the quiver; arrows listed in traversal order (first traversed first)."""

    __slots__ = ("source", "target", "arrows")

    def __init__(self, source: int, target: int, arrows: tuple = ()):
        self.source, self.target, self.arrows = source, target, arrows

    @property
    def length(self) -> int:
        return len(self.arrows)


def trivial_path(v: int) -> Path:
    return Path(v, v, ())


def compose(p: Path, q: Path) -> Path:
    """p * q: traverse q first, then p.  Requires source(p) == target(q)."""
    if p.source != q.target:
        raise ValueError("paths not composable")
    return Path(q.source, p.target, q.arrows + p.arrows)


def extend(q: Quiver, p: Path, arrow_index: int) -> Path:
    """The path (arrow) * p, appending one arrow at the target end."""
    a = q.arrows[arrow_index]
    if a.source != p.target:
        raise ValueError("arrow not composable with path")
    return Path(p.source, a.target, p.arrows + (arrow_index,))


class QuiverParseError(ValueError):
    pass


def parse_quiver(text: str):
    """Parse the quiver file format; returns (Quiver, Field).

    Format (UTF-8, line oriented):
        vertices: <n>
        arrow <label> <source> <target>     (1-based vertices)
        field: Q | F<p>                     (optional, default Q)
        # comment lines and blank lines are ignored
    """
    vertex_count = None
    arrows = []
    fld = Field(0)
    labels = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("vertices:"):
            if vertex_count is not None:
                raise QuiverParseError(f"line {lineno}: repeated vertices line")
            try:
                vertex_count = int(line.split(":", 1)[1].strip())
            except ValueError:
                raise QuiverParseError(f"line {lineno}: malformed vertex count") from None
            if vertex_count < 1:
                raise QuiverParseError(f"line {lineno}: vertex count must be >= 1")
            continue
        if line.startswith("field:"):
            try:
                fld = Field.parse(line.split(":", 1)[1])
            except ValueError as exc:
                raise QuiverParseError(f"line {lineno}: {exc}") from None
            continue
        if line.startswith("arrow"):
            parts = line.split()
            if len(parts) != 4:
                raise QuiverParseError(f"line {lineno}: expected 'arrow <label> <source> <target>'")
            _, label, s_txt, t_txt = parts
            if vertex_count is None:
                raise QuiverParseError(f"line {lineno}: arrow before vertices line")
            if label in labels:
                raise QuiverParseError(
                    f"line {lineno}: duplicate label {label!r} (first seen line {labels[label]})"
                )
            labels[label] = lineno
            try:
                s, t = int(s_txt), int(t_txt)
            except ValueError:
                raise QuiverParseError(f"line {lineno}: malformed vertex index") from None
            if not (1 <= s <= vertex_count and 1 <= t <= vertex_count):
                raise QuiverParseError(f"line {lineno}: vertex out of range 1..{vertex_count}")
            arrows.append(Arrow(label, s - 1, t - 1))
            continue
        raise QuiverParseError(f"line {lineno}: unrecognized line {line!r}")
    if vertex_count is None:
        raise QuiverParseError("missing 'vertices:' line")
    return Quiver(vertex_count, tuple(arrows)), fld


def opposite(q: Quiver) -> Quiver:
    """Arrow-reversed quiver; labels preserved."""
    return Quiver(q.vertex_count, tuple(Arrow(a.label, a.target, a.source) for a in q.arrows))


class PathTable:
    """All paths of length <= max_len, indexed by (source, target, length).

    Read-only once built: enumerate_paths hands the same table to every
    caller asking for the same quiver and length.
    """

    def __init__(self, quiver: Quiver, max_len: int):
        self.quiver = quiver
        self.max_len = max_len
        self.by_length = [[] for _ in range(max_len + 1)]
        self.by_length[0] = [trivial_path(v) for v in quiver.vertices]
        for ell in range(max_len):
            nxt = []
            for p in self.by_length[ell]:
                for ai in quiver.arrows_from(p.target):
                    nxt.append(extend(quiver, p, ai))
            self.by_length[ell + 1] = nxt
        self._index = {}
        self._by_ends = {}  # (source, target, length) -> paths in by_length order
        for ell, paths in enumerate(self.by_length):
            for k, p in enumerate(paths):
                self._index[p] = (ell, k)
                self._by_ends.setdefault((p.source, p.target, ell), []).append(p)

    def paths(self, source=None, target=None, length=None) -> list:
        """The table's paths with the given ends and length, in `by_length`
        order, as a fresh list; a length outside 0..max_len selects none."""
        if source is not None and target is not None and length is not None:
            return list(self._by_ends.get((source, target, length), ()))
        if length is None:
            lengths = range(self.max_len + 1)
        elif 0 <= length <= self.max_len:
            lengths = (length,)
        else:
            return []
        return [p for ell in lengths for p in self.by_length[ell]
                if (source is None or p.source == source) and (target is None or p.target == target)]

    def contains(self, p: Path) -> bool:
        return p in self._index


@functools.cache
def enumerate_paths(q: Quiver, max_len: int) -> PathTable:
    """Complete, duplicate-free enumeration of paths of length <= max_len.

    Cost is proportional to the number of paths; callers on quivers rejected
    by growth_gate accept exponential blowup.  Cached per (quiver, max_len).
    """
    return PathTable(q, max_len)


class GrowthVerdict(Record):
    __slots__ = ("bounded", "period", "degree_bound", "transient", "witness")

    def __init__(self, bounded: bool, period: int | None = None, degree_bound: int | None = None,
                 transient: int | None = None, witness: dict | None = None):
        self.bounded, self.period, self.degree_bound = bounded, period, degree_bound
        self.transient, self.witness = transient, witness

    def describe(self) -> dict:
        d = {"bounded": self.bounded}
        if self.bounded:
            d.update(period=self.period, degree_bound=self.degree_bound, transient=self.transient)
        else:
            d["witness"] = self.witness
        return d


def _tarjan_sccs(q: Quiver) -> list:
    index = {}
    low = {}
    stack = []
    on_stack = set()
    sccs = []
    counter = [0]
    succ = [[a.target for a in q.arrows if a.source == v] for v in q.vertices]

    def visit(v):
        work = [(v, iter(succ[v]))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(sorted(comp))

    for v in q.vertices:
        if v not in index:
            visit(v)
    return sccs


def _scc_cycle_data(q: Quiver):
    """Classify each SCC: None for a trivial (acyclic) one, otherwise either a
    simple-cycle description or a 'bad' marker with a clash vertex."""
    sccs = _tarjan_sccs(q)
    info = []
    for comp in sccs:
        comp_set = set(comp)
        internal = [i for i, a in enumerate(q.arrows) if a.source in comp_set and a.target in comp_set]
        if len(comp) == 1 and not internal:
            info.append({"vertices": comp, "kind": "trivial"})
            continue
        out_deg = {v: 0 for v in comp}
        for i in internal:
            out_deg[q.arrows[i].source] += 1
        clash = next((v for v in comp if out_deg[v] >= 2), None)
        if clash is not None or len(internal) != len(comp):
            info.append({"vertices": comp, "kind": "bad", "clash": clash, "internal": internal})
        else:
            info.append({"vertices": comp, "kind": "cycle", "length": len(comp), "internal": internal})
    return info


def _shortest_path(q: Quiver, start: int, goal, allowed=None) -> Path | None:
    """BFS shortest path from start to a goal vertex set, optionally inside a vertex set."""
    goals = {goal} if isinstance(goal, int) else set(goal)
    if start in goals:
        return trivial_path(start)
    from collections import deque

    prev = {start: None}
    dq = deque([start])
    while dq:
        v = dq.popleft()
        for ai in q.arrows_from(v):
            w = q.arrows[ai].target
            if allowed is not None and w not in allowed:
                continue
            if w in prev:
                continue
            prev[w] = (v, ai)
            if w in goals:
                arrows = []
                node = w
                while prev[node] is not None:
                    pv, pai = prev[node]
                    arrows.append(pai)
                    node = pv
                arrows.reverse()
                return Path(start, w, tuple(arrows))
            dq.append(w)
    return None


def _repeat_cycle(cycle: Path, times: int) -> Path:
    out = trivial_path(cycle.source)
    for _ in range(times):
        out = compose(cycle, out)
    return out


def _two_cycles_witness(q: Quiver, clash: int, comp: set) -> dict:
    """Two distinct equal-length closed paths at a vertex carrying two cycles."""
    outs = [i for i in q.arrows_from(clash) if q.arrows[i].target in comp]
    a1, a2 = outs[0], outs[1]
    cycles = []
    for ai in (a1, a2):
        head = q.arrows[ai].target
        back = _shortest_path(q, head, clash, allowed=comp)
        cycles.append(compose(back, Path(clash, head, (ai,))))
    c1, c2 = cycles
    ell = (c1.length * c2.length) // math.gcd(c1.length, c2.length)
    p1 = _repeat_cycle(c1, ell // c1.length)
    p2 = _repeat_cycle(c2, ell // c2.length)
    return {"kind": "vertex on two cycles", "vertex_pair": (clash, clash), "paths": (p1, p2)}


def _linked_cycles_witness(q: Quiver, cyc_a: dict, cyc_b: dict, transit: Path) -> dict:
    """Wind-then-go versus go-then-wind between two distinct linked cycles."""
    u, v = transit.source, transit.target
    # unique simple cycles through u and v inside their components
    first_a = next(i for i in q.arrows_from(u) if q.arrows[i].target in set(cyc_a["vertices"]))
    back_a = _shortest_path(q, q.arrows[first_a].target, u, allowed=set(cyc_a["vertices"]))
    cycle_a = compose(back_a, Path(u, q.arrows[first_a].target, (first_a,)))
    first_b = next(i for i in q.arrows_from(v) if q.arrows[i].target in set(cyc_b["vertices"]))
    back_b = _shortest_path(q, q.arrows[first_b].target, v, allowed=set(cyc_b["vertices"]))
    cycle_b = compose(back_b, Path(v, q.arrows[first_b].target, (first_b,)))
    la, lb = cycle_a.length, cycle_b.length
    ell = (la * lb) // math.gcd(la, lb)
    p1 = compose(transit, _repeat_cycle(cycle_a, ell // la))
    p2 = compose(_repeat_cycle(cycle_b, ell // lb), transit)
    return {"kind": "path linking two cycles", "vertex_pair": (u, v), "paths": (p1, p2)}


@functools.cache
def growth_gate(q: Quiver) -> GrowthVerdict:
    """Decide whether per-degree path counts stay bounded as length grows.

    Bounded iff no vertex lies on two distinct cycles and no path joins one
    cycle to a different cycle.  This is a sufficient combinatorial condition
    for the path coalgebra to be artinian on both sides.  For bounded quivers
    the verdict certifies eventual periodicity of the count matrices by
    exhibiting the least T with A^(T+P) = A^T for the adjacency matrix A,
    growing the count sequence one power at a time up to A^(T+P) alone.

    Memoized: nothing reassigns a quiver's fields after construction, so
    each quiver (and each equal one) gets its verdict once, and later calls
    return the same GrowthVerdict.
    """
    info = _scc_cycle_data(q)
    for comp in info:
        if comp["kind"] == "bad":
            clash = comp["clash"]
            if clash is None:
                # |internal arrows| != |vertices| with all out-degrees <= 1 cannot
                # happen in a strongly connected non-trivial component
                clash = comp["vertices"][0]
            return GrowthVerdict(False, witness=_two_cycles_witness(q, clash, set(comp["vertices"])))
    cycles = [c for c in info if c["kind"] == "cycle"]
    for i, ca in enumerate(cycles):
        for j, cb in enumerate(cycles):
            if i == j:
                continue
            transit = _shortest_path(q, ca["vertices"][0], set(cb["vertices"]))
            if transit is not None:
                return GrowthVerdict(False, witness=_linked_cycles_witness(q, ca, cb, transit))
    period = 1
    for c in cycles:
        period = period * c["length"] // math.gcd(period, c["length"])
    # certify A^(T+P) = A^T; T is bounded by the amount of acyclic scaffolding
    horizon = 2 * (q.vertex_count + len(q.arrows)) + 2 * period + 4
    transient = next((t for t in range(1, horizon + 1)
                      if (counts := path_count_matrices(q, t + period))[t + period] == counts[t]), None)
    if transient is None:
        raise RuntimeError("internal error: bounded quiver failed periodicity certificate")
    bound = max(q.vertex_count, *(sum(map(sum, counts[t])) for t in range(1, transient + period + 1)))
    return GrowthVerdict(True, period=period, degree_bound=bound, transient=transient)


@functools.cache
def _count_sequence(q: Quiver) -> list:
    return [[[int(i == j) for j in q.vertices] for i in q.vertices]]


def path_count_matrices(q: Quiver, up_to: int) -> list:
    """counts[ell][s][t] = number of paths s -> t of length ell, for ell = 0..up_to: a fresh
    list of the read-only matrices of the quiver's one cached count sequence, grown as asked."""
    seq = _count_sequence(q)
    heads = [[q.arrows[ai].target for ai in q.arrows_from(k)] for k in q.vertices]
    while len(seq) <= up_to:
        # each path s -> k of length l goes on along every arrow out of k
        seq.append(nxt := [[0] * q.vertex_count for _ in q.vertices])
        for new, row in zip(nxt, seq[-2]):
            for k, c in enumerate(row):
                for t in heads[k] if c else ():
                    new[t] += c
    return seq[:max(up_to, 0) + 1]
