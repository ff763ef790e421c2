"""The path coalgebra of a quiver and its truncated dual algebra.

The coalgebra C has the paths as a basis; comultiplication splits a path at
every intermediate vertex and the counit is supported on trivial paths.  The
dual algebra A = C* is the completed path algebra; we only ever materialize
it through a fixed truncation degree N.  Because both structures are graded
by path length, every degree <= N computation is exact and final: no higher
degree can disturb it.

Dual-algebra elements are sparse: a finitely supported map from basis paths
to exact scalars.  The functional dual to a path p is written p^ here; these
multiply like the paths themselves, (p^)(q^) = (p q)^ when composable.
"""

from __future__ import annotations

from .exactlin import Field
from .quiver import Path, Quiver, Record, compose, enumerate_paths, path_count_matrices


def comultiply(q: Quiver, p: Path) -> list:
    """All splittings p = p2 * p1 as pairs (p2, p1); count = length(p) + 1.

    p1 is the first-traversed piece, p2 the rest; cut i puts i arrows in p1.
    """
    out = []
    mid = p.source
    for i in range(p.length + 1):
        p1 = Path(p.source, mid, p.arrows[:i])
        p2 = Path(mid, p.target, p.arrows[i:])
        out.append((p2, p1))
        if i < p.length:
            mid = q.arrows[p.arrows[i]].target
    return out


class PathCoalgebra:
    """Paths of length <= N with comultiplication and counit."""

    def __init__(self, quiver: Quiver, truncation: int, field: Field | None = None):
        if truncation < 0:
            raise ValueError("truncation must be >= 0")
        self.quiver = quiver
        self.truncation = truncation
        self.field = field or Field(0)
        self.paths = enumerate_paths(quiver, truncation)

    def basis(self, length: int | None = None) -> list:
        if length is None:
            return [p for ell in range(self.truncation + 1) for p in self.paths.by_length[ell]]
        return list(self.paths.by_length[length])

    def comultiply(self, p: Path) -> list:
        """All splittings p = p2 * p1 as pairs (p2, p1)."""
        if not self.paths.contains(p):
            raise ValueError("path not in the truncated basis")
        return comultiply(self.quiver, p)

    def counit(self, p: Path):
        return self.field.one if p.length == 0 else self.field.zero


class AlgElement:
    """A finitely supported functional on the path basis: element of A = C*.

    Stored as {Path: scalar} with zero coefficients dropped.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: dict | None = None):
        self.field = field
        clean = {}
        if coeffs:
            for p, c in coeffs.items():
                c = field.of(c)
                if not field.is_zero(c):
                    clean[p] = c
        self.coeffs = clean

    @classmethod
    def zero(cls, field: Field) -> "AlgElement":
        return cls(field, {})

    @classmethod
    def dual_path(cls, field: Field, p: Path) -> "AlgElement":
        return cls(field, {p: field.one})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "AlgElement") -> "AlgElement":
        f = self.field
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            out[p] = f.add(out.get(p, f.zero), c)
        return AlgElement(f, out)

    def __sub__(self, other: "AlgElement") -> "AlgElement":
        f = self.field
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            out[p] = f.sub(out.get(p, f.zero), c)
        return AlgElement(f, out)

    def __neg__(self) -> "AlgElement":
        return AlgElement(self.field, {p: self.field.neg(c) for p, c in self.coeffs.items()})

    def scale(self, c) -> "AlgElement":
        f = self.field
        c = f.of(c)
        return AlgElement(f, {p: f.mul(c, x) for p, x in self.coeffs.items()})

    def __eq__(self, other):
        return isinstance(other, AlgElement) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for p, c in sorted(self.coeffs.items(), key=lambda kv: (kv[0].length, kv[0].arrows)):
            bits.append(f"{c}*[{p.source}->{p.target};{p.arrows}]^")
        return " + ".join(bits)


def convolve(self, f: AlgElement, g: AlgElement, n: int | None = None) -> AlgElement:
        """The product f g, exact in all degrees <= n (default: the truncation)."""
        return convolve(f, g, self.truncation if n is None else n)


def convolve(f: AlgElement, g: AlgElement, n: int | None = None) -> AlgElement:
    """(f g)(p) = sum of f(p2) g(p1) over splittings p = p2 * p1.

    Products of degree above n are dropped (none when n is None).  With this
    convention p^ q^ = (p q)^ for composable paths, so path-duals multiply
    like paths under the right-to-left composition: traverse g first, then f.
    """
    fld = f.field
    out = {}
    for p2, c2 in f.coeffs.items():
        for p1, c1 in g.coeffs.items():
            if p2.source != p1.target:
                continue
            p = compose(p2, p1)
            if n is not None and p.length > n:
                continue
            out[p] = fld.add(out.get(p, fld.zero), fld.mul(c2, c1))
    return AlgElement(fld, out)


class BigradedDims(Record):
    """Per-degree vertex-by-vertex dimensions of e_i C e_j.

    dims[ell][i][j] = number of paths of length ell running from j to i,
    i.e. with source j and target i under the package composition convention.
    """

    __slots__ = ("quiver", "up_to", "dims")

    def __init__(self, quiver: Quiver, up_to: int, dims: tuple):
        self.quiver, self.up_to, self.dims = quiver, up_to, dims

    def matrix(self, ell: int) -> list:
        return [list(row) for row in self.dims[ell]]

    def describe(self) -> dict:
        return {"up_to": self.up_to, "dims": [self.matrix(ell) for ell in range(self.up_to + 1)]}


def bigraded_dims(q: Quiver, up_to: int) -> BigradedDims:
    """Path-count bigrading of C: dims[ell][i][j] = #paths j -> i of length ell."""
    return BigradedDims(q, up_to, tuple(tuple(tuple(counts[j][i] for j in q.vertices) for i in q.vertices)
                                        for counts in path_count_matrices(q, up_to)))
