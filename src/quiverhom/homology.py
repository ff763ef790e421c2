"""Complexes, resolutions, Ext engines, the rational functor, local cohomology.

Everything here is graded by path length and computed degreewise up to a
truncation; because the grading is by path length, a degree-d answer is final
once the path data through the relevant lengths is present.  Finiteness
claims that a truncated computation cannot witness directly (a graded family
vanishing forever, a colimit having stabilized) are certified by the window
policy: a family is declared stable after it holds unchanged on a window of
twice the quiver growth period.  Reports always carry their certificates.

Internal engines work with side="left" data; right-side questions are
normalized through the opposite quiver on entry and translated back on exit.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import exactlin
from .exactlin import Field, Kernel, Matrix, Quotient, rank
from .pathcoalg import AlgElement, convolve
from .quiver import (
    Path,
    Quiver,
    _scc_cycle_data,
    compose,
    enumerate_paths,
    growth_gate,
    opposite,
    path_count_matrices,
    trivial_path,
)
from .repmod import (
    GradedPresentation,
    Rep,
    _reverse_path,
    arrow_ends,
    commutation_matrix,
    hom_space,
    presentation_of_rep,
    zero_rep,
)


class StabilizationError(RuntimeError):
    """A window certificate could not be issued at the current truncation."""

    def __init__(self, message: str, suggestion: str):
        super().__init__(f"{message} ({suggestion})")
        self.suggestion = suggestion


def window_length(q: Quiver) -> int:
    verdict = growth_gate(q)
    if not verdict.bounded:
        raise ValueError("growth gate rejected the quiver; pass --force for finite-dimensional work only")
    return max(2, 2 * verdict.period)


def reverse_alg(el: AlgElement) -> AlgElement:
    """Transport a dual-algebra element across the opposite-quiver dictionary."""
    return AlgElement(el.field, {_reverse_path(p): c for p, c in el.coeffs.items()})


# ----------------------------------------------------------------------
# free terms of left presentations


def free_term_basis(table, gens, degree: int, target: int | None = None) -> list:
    """Basis [(gen index, path)] of the degree-d piece of a free left term,
    restricted to the paths ending at `target` when one is given."""
    return [(g, p) for g, (gv, gd) in enumerate(gens)
            for p in table.paths(source=gv, target=target, length=degree - gd)]


def free_diff_matrix(fld: Field, rows: list, cols: list, entries) -> Matrix:
    """Matrix of a differential F1 -> F0 of free terms on path-basis labels:
    `rows` and `cols` are free_term_basis lists of F0 and F1 in one degree,
    and entries[g][r] is the component at generator g of relation r."""
    def images(lab):
        r, p = lab
        for g, row in enumerate(entries):
            for q, c in row[r].coeffs.items():
                if q.target == p.source:
                    yield (g, compose(p, q)), c

    return _label_matrix(fld, rows, cols, images)


def _hom_dual(pres: GradedPresentation) -> GradedPresentation:
    """Hom(-, A) of a presentation F1 -> F0 of M, as the presentation
    F0* -> F1* on the other side: the relations become the generators and
    the generators the relations, degrees negated, entries transposed.  It
    presents Ext^1(M, A); Ext^0(M, A) is the kernel of the same map."""
    return GradedPresentation(
        pres.quiver, "right" if pres.side == "left" else "left", pres.field,
        tuple((v, -d) for v, d in pres.relations), tuple((v, -d) for v, d in pres.generators),
        tuple(tuple(row[r] for row in pres.entries) for r in range(len(pres.relations))))


# ----------------------------------------------------------------------
# standard resolution and minimalization


def standard_resolution(m: Rep, degrees=None) -> GradedPresentation:
    """Standard two-term projective resolution of a nilpotent left module:

    0 -> (+)_(a in Q1) A e_head(a) (x) M_tail(a) -> (+)_v A e_v (x) M_v -> M -> 0

    with differential p (x) mu |-> p a (x) mu - p (x) a mu, as the left
    presentation of M: generators are term 0, relations term 1, entries the
    differential.  Homogeneous once M carries its path-length grading
    (supplied or found automatically).
    """
    if m.side != "left":
        raise ValueError("standard_resolution expects a left module")
    return presentation_of_rep(m, degrees)


def minimalize(pres: GradedPresentation) -> GradedPresentation:
    """The same left module presented with every entry in the radical.

    Cancels unit entries (nonzero scalars on a trivial path) one at a time,
    the first by generator, then relation, then path; the generators and
    relations left are the Betti numbers.
    """
    if pres.side != "left":
        raise ValueError("minimalize expects a left presentation")
    f = pres.field
    gens, rels = list(pres.generators), list(pres.relations)
    entries = [list(row) for row in pres.entries]
    while True:
        hit = next(((g, r, c) for g, row in enumerate(entries) for r, el in enumerate(row)
                    for p, c in el.coeffs.items() if p.length == 0), None)
        if hit is None:
            break
        g0, r0, unit = hit
        inv_el = AlgElement(f, {trivial_path(gens[g0][0]): f.inv(unit)})
        entries = [[entries[g][r] - convolve(convolve(entries[g0][r], inv_el), entries[g][r0])
                    for r in range(len(rels)) if r != r0]
                   for g in range(len(gens)) if g != g0]
        del gens[g0], rels[r0]
    return GradedPresentation(pres.quiver, "left", f, tuple(gens), tuple(rels),
                              tuple(tuple(row) for row in entries))


# ----------------------------------------------------------------------
# reports


@dataclass
class ExtReport:
    """Dimension data for one Ext group, with certificates where truncation
    is involved.  graded_dims maps internal degree to dimension; rep carries
    the module structure when applicable and finite."""

    subject: str
    degree: int
    total_dim: int
    graded_dims: dict | None = None
    vertex_support: dict | None = None
    rep: Rep | None = None
    certificate: dict | None = None
    field: Field | None = None
    note: str | None = None
    basis: list | None = None

    def describe(self) -> dict:
        d = {
            "subject": self.subject,
            "cohomological_degree": self.degree,
            "dimension": self.total_dim,
        }
        if self.graded_dims is not None:
            d["graded_dims"] = {str(k): v for k, v in sorted(self.graded_dims.items())}
        if self.vertex_support is not None:
            d["vertex_support"] = {str(v + 1): n for v, n in sorted(self.vertex_support.items())}
        if self.certificate is not None:
            d["certificate"] = self.certificate
        if self.field is not None:
            d["field"] = self.field.describe()
        if self.note:
            d["note"] = self.note
        return d


# ----------------------------------------------------------------------
# finite-dimensional Ext (Euler complex; no truncation involved)


def ext_fd(m: Rep, n: Rep, i: int, with_basis: bool = False) -> ExtReport:
    """Ext^i between finite-dimensional representations on the same side.

    Degree 0 is the hom space, degree 1 the cokernel of the commutation map;
    hereditary scope makes everything above a certified zero.  With
    with_basis, degree 0 reports hom morphisms (per-vertex matrix tuples)
    and degree 1 reports cocycle representatives (per-arrow matrix tuples,
    the components of the commutation defect) spanning the cokernel: the
    `Quotient` representatives, so each has a single nonzero entry.
    """
    if m.side != n.side:
        raise ValueError("side mismatch")
    if i < 0:
        raise ValueError("negative cohomological degree")
    if i >= 2:
        return ExtReport("ext_fd", i, 0, note="hereditary scope: gldim <= 1", field=m.field)
    big = commutation_matrix(m, n)
    dim = (big.cols - rank(big)) if i == 0 else (big.rows - rank(big))
    report = ExtReport("ext_fd", i, dim, field=m.field)
    if not with_basis:
        return report
    f = m.field
    q = m.quiver
    if i == 0:
        report.note = "basis: hom morphisms, one matrix per vertex"
        report.basis = hom_space(m, n)
        return report
    quot = Quotient(big)
    cocycles = []
    for amb in quot.basis:
        per_arrow = []
        offset = 0
        for ai, a in enumerate(q.arrows):
            dom, cod = arrow_ends(m.side, a)
            block = [
                [amb[offset + r * m.dims[dom] + c] for c in range(m.dims[dom])]
                for r in range(n.dims[cod])
            ]
            per_arrow.append(Matrix(f, block, cols=m.dims[dom]))
            offset += n.dims[cod] * m.dims[dom]
        cocycles.append(tuple(per_arrow))
    report.note = "basis: cocycle representatives, one matrix per arrow"
    report.basis = cocycles
    return report


# ----------------------------------------------------------------------
# graded blocks: labels, classes, label moves, and the Rep they assemble into


class _Block:
    """One graded block: basis labels and the Kernel or Quotient whose classes
    live on them."""

    __slots__ = ("labels", "space", "dim", "_index")

    def __init__(self, labels, space):
        self.labels = labels
        self.space = space
        self.dim = space.dim
        self._index = None

    @property
    def index(self) -> dict:
        """Position of each label."""
        if self._index is None:
            self._index = {lab: i for i, lab in enumerate(self.labels)}
        return self._index


def _push(fld: Field, labels, vec, move, dst_index: dict) -> list:
    """Move an ambient vector along a map of basis labels.

    Coordinate idx of `vec` is added at dst_index[lab] for every label lab
    that `move(labels[idx])` yields; labels outside the destination drop
    out.
    """
    out = [fld.zero] * len(dst_index)
    for idx, c in enumerate(vec):
        if fld.is_zero(c):
            continue
        for lab in move(labels[idx]):
            pos = dst_index.get(lab)
            if pos is not None:
                out[pos] = fld.add(out[pos], c)
    return out


def _label_matrix(fld: Field, rows, cols, images) -> Matrix:
    """The matrix on labelled bases whose column j is images(cols[j]).

    images(label) yields (row label, normalized coefficient) pairs;
    coefficients on the same row add up, and row labels outside `rows` drop
    out.  A cell still holding the fill object `fld.zero` takes its first
    coefficient as it is, since zero + c is c; only a second hit adds.
    """
    index = {lab: i for i, lab in enumerate(rows)}
    zero = fld.zero
    mat = [[zero] * len(cols) for _ in rows]
    for j, lab in enumerate(cols):
        for row, c in images(lab):
            i = index.get(row)
            if i is not None:
                x = mat[i][j]
                mat[i][j] = c if x is zero else fld.add(x, c)
    return Matrix._normalized(fld, tuple(map(tuple, mat)), len(cols))


def _arrow_path(quiver: Quiver, ai: int) -> Path:
    a = quiver.arrows[ai]
    return Path(a.source, a.target, (ai,))


def _left_mult(quiver: Quiver, ai: int):
    """Label move (g, p) -> (g, a p): left multiplication by arrow ai."""
    arrow = _arrow_path(quiver, ai)
    return lambda lab: ((lab[0], compose(arrow, lab[1])),) if lab[1].target == arrow.source else ()


def _relation_move(quiver: Quiver, src: GradedPresentation, dst: GradedPresentation, e: Path):
    """Label move on Hom(F1, A) from stage presentation `src` to `dst`.

    The comparison map of relation terms sends [p2] of `dst` to x [p] of
    `src` wherever p2 e = x p with x an arrow, so the label (p, y) moves to
    the sum of the labels (p2, x y); labels name each relation by its index,
    and their paths are read in the opposite quiver, where x y is y x.
    With e = e_u this is the stage transition m -> m + 1 of summand u; with
    e an arrow b it is induced by right multiplication A e_t(b) / J^m ->
    A e_s(b) / J^m.
    """
    index = {next(iter(el.coeffs)): r for r, el in enumerate(src.entries[0])}
    hits = {}
    for r2, el in enumerate(dst.entries[0]):
        pe = compose(next(iter(el.coeffs)), e)
        x_op = _reverse_path(_arrow_path(quiver, pe.arrows[-1]))
        hits.setdefault(index[Path(pe.source, x_op.target, pe.arrows[:-1])], []).append((r2, x_op))
    return lambda lab: ((r2, compose(lab[1], x_op)) for r2, x_op in hits.get(lab[0], ()))


def _induced_map(fld: Field, src: _Block, dst: _Block, move) -> Matrix:
    """Matrix of the map on classes src -> dst induced by a label move: column
    j holds the coordinates in `dst` of the representative `src.space.basis[j]`
    moved along `move`."""
    return _classes_of(fld, dst, [_push(fld, src.labels, vec, move, dst.index) for vec in src.space.basis])


def _classes_of(fld: Field, dst: _Block, vecs) -> Matrix:
    """Matrix whose column j holds the coordinates in `dst` of the ambient vector vecs[j]."""
    cols = []
    for vec in vecs:
        try:
            cols.append(dst.space.coordinates(vec))
        except ValueError:
            raise AssertionError("vector not in kernel block") from None
    return Matrix.from_columns(fld, cols, dst.dim)


def _graded_rep(quiver: Quiver, side: str, fld: Field, fibers: dict, image) -> Rep:
    """The Rep whose fiber at v has the graded classes fibers[v], keyed (degree, j).

    image(ai, dom, cod, d) gives (d2, matrix) or None for a zero map: column
    j of the matrix is the image under arrow ai of class (d, j) of fiber dom,
    as coordinates over the classes (d2, r) of fiber cod.
    """
    def arrow_matrix(ai, dom, cod):
        hits = {d: image(ai, dom, cod, d) for d in {d for d, _ in fibers[dom]}}

        def images(key):
            hit = hits[key[0]]
            return () if hit is None else (((hit[0], r), x) for r, x in enumerate(hit[1].column(key[1])))

        return _label_matrix(fld, fibers[cod], fibers[dom], images)

    maps = [arrow_matrix(ai, *arrow_ends(side, a)) for ai, a in enumerate(quiver.arrows)]
    return Rep(quiver, side, fld, [len(fibers[v]) for v in quiver.vertices], maps)


# ----------------------------------------------------------------------
# Ext against the algebra, per (internal degree, vertex) block


def _stable_zero_from(dims_by_degree: dict, lo: int, hi: int, window: int):
    """First degree D with the family zero on (D..hi], provided that tail is
    at least `window` long; None when no such window exists."""
    d = hi
    while d >= lo and dims_by_degree.get(d, 0) == 0:
        d -= 1
    first_zero = d + 1
    if hi - first_zero + 1 < window:
        return None
    return first_zero


def ext_model(pres: GradedPresentation, trunc: int) -> PresentationModel:
    """The model that Ext^0 and Ext^1 of the presented module against A are
    read off, to `trunc`: the PresentationModel of the Hom-dual of `pres`."""
    return PresentationModel(_hom_dual(pres), trunc)


def ext_vs_algebra(m: Rep, i: int, trunc: int, want_rep: bool = True,
                   model: PresentationModel | None = None) -> ExtReport:
    """Graded module structure of Ext^i(M, A), on the side opposite M's,
    degreewise to `trunc`.

    Uses a path-length grading of M (available on the instances in scope:
    acyclic quivers and disjoint unions of cycles).  The blocks are those of
    `model`, by default ext_model(presentation_of_rep(m), trunc): its
    quotient blocks for Ext^1, its kernel blocks for Ext^0.  A caller that
    reads both degrees passes one model to both calls, so M is resolved once
    and each (degree, vertex) matrix eliminated once.  The certificate
    records the first internal degree past which all graded pieces vanish
    through a window of two growth periods; failure to certify raises,
    naming the smallest parameter change expected to fix it.
    """
    if model is not None and model.trunc != trunc:
        raise ValueError(f"model truncated at {model.trunc}, not at {trunc}")
    window = window_length(m.quiver)
    out_side = "right" if m.side == "left" else "left"
    if i >= 2:
        return ExtReport("ext_vs_algebra", i, 0, graded_dims={},
                         note="hereditary scope: gldim <= 1", field=m.field)
    if m.is_zero():
        return ExtReport("ext_vs_algebra", i, 0, graded_dims={}, vertex_support={},
                         rep=zero_rep(m.quiver, out_side, m.field) if want_rep else None,
                         certificate={"stable_from": 0, "window": window}, field=m.field)
    if model is None:
        model = ext_model(presentation_of_rep(m), trunc)
    d_min = min(d for _, d in model.pres.generators + model.pres.relations)
    d_max = d_min + trunc
    if d_max - d_min + 1 < window + 1:
        raise StabilizationError(
            "truncation too small to host a certificate window",
            f"increase truncation to at least {window + 1}",
        )
    space = Quotient if i else Kernel
    dims = {(d, w): model.dim(d, w, space) for d in range(d_min, d_max + 1) for w in m.quiver.vertices}
    dims_by_degree = {}
    support = {}
    for (d, w), n in dims.items():
        dims_by_degree[d] = dims_by_degree.get(d, 0) + n
        if n:
            support[w] = support.get(w, 0) + n
    stable_from = _stable_zero_from(dims_by_degree, d_min, d_max, window)
    if stable_from is None:
        tail = [dims_by_degree.get(d, 0) for d in range(d_max - window + 1, d_max + 1)]
        if len(set(tail)) == 1 and tail[0] > 0:
            suggestion = (
                "graded dims persist at a constant value; the group is likely "
                "infinite-dimensional (the quiver passes the growth gate but the "
                "coalgebra need not be artinian)"
            )
        else:
            suggestion = f"increase truncation beyond {trunc}"
        raise StabilizationError(
            f"Ext^{i}(M, A) graded dims did not vanish through a window of {window}",
            suggestion,
        )
    certificate = {"stable_from": stable_from, "window": window, "checked_through": d_max}
    total = sum(dims_by_degree.values())
    rep = None
    if want_rep:
        # _graded_rep asks only for the images of classes, so a block is built only where it has some
        get = model.block if i else model.kernel

        def image(ai, dom, cod, d):
            if not dims.get((d + 1, cod)):
                return None
            return d + 1, _induced_map(m.field, get(d, dom), get(d + 1, cod), _left_mult(model.quiver, ai))

        fibers = {w: [(d, j) for d in range(d_min, d_max + 1) for j in range(dims[(d, w)])]
                  for w in m.quiver.vertices}
        rep = _graded_rep(m.quiver, out_side, m.field, fibers, image)
    return ExtReport("ext_vs_algebra", i, total,
                     graded_dims={d: n for d, n in sorted(dims_by_degree.items()) if n},
                     vertex_support=support, rep=rep, certificate=certificate, field=m.field)


# ----------------------------------------------------------------------
# Ext_C(C, S_j) through the worked dual-complex route


def ext_comodule_C(quiver: Quiver, j: int, i: int, trunc: int, fld: Field | None = None) -> ExtReport:
    """Ext^i_C(C, S_j) for the simple left comodule at vertex j.

    Built exactly as the worked two-vertex computation: the minimal injective
    resolution 0 -> S_j -> I(j) -> (+)_(a: j->.) I(head a) -> 0 dualizes to
    the strip-one-arrow complex

        (+)_(a: source j) C e_head(a)  -->  C e_j,

    and Ext^0 / Ext^1 are the linear duals of its cokernel / kernel.  Its
    matrices are the transposes of those of the Hom-dual of the minimal
    presentation of S_j (one relation per arrow out of j), so Ext^0 is read
    off the kernel blocks of that model and Ext^1 off its quotient blocks,
    whose projection rows are the kernel vectors of the strip matrix.  The
    reported carrier keeps the grading and vertex support; dual-basis arrow
    actions are not reconstructed (socle-level carrier).
    """
    fld = fld or Field(0)
    if not 0 <= j < quiver.vertex_count:
        raise ValueError(f"vertex {j + 1} out of range 1..{quiver.vertex_count}")
    window = window_length(quiver)
    if i >= 2:
        return ExtReport("ext_comodule_C", i, 0, note="hereditary scope: gldim <= 1", field=fld)
    # A e_j / J is S_j
    model = ext_model(_stage_presentation(quiver, j, 1, fld, enumerate_paths(quiver, 1)), trunc)
    heads = [v for v, _ in model.pres.generators]
    dims_by_degree = {}
    support_acc = {}
    mixed = False
    d_hi = trunc - 1
    for d in range(-1, d_hi + 1):
        dims = [model.dim(d, v, Quotient if i else Kernel) for v in quiver.vertices]
        dim = dims_by_degree[d] = sum(dims)
        if i == 0:
            if dim:
                support_acc[j] = support_acc.get(j, 0) + dim
            continue
        for blk in (model.block(d, v) for v, n in zip(quiver.vertices, dims) if n):
            # on a whole-space block the projection is the identity: class k is label k
            supports = ([{heads[g]} for g, _ in blk.labels] if blk.dim == len(blk.labels) else
                        [{heads[blk.labels[idx][0]] for idx, x in enumerate(vec) if not fld.is_zero(x)}
                         for vec in blk.space.projection.entries])
            for verts in supports:
                if len(verts) > 1:
                    mixed = True
                for v in verts:
                    support_acc[v] = support_acc.get(v, 0) + (1 if len(verts) == 1 else 0)
    stable_from = _stable_zero_from(dims_by_degree, -1, d_hi, window)
    if stable_from is None:
        raise StabilizationError(
            f"Ext^{i}_C(C, S_{j + 1}) graded dims did not vanish through a window of {window}",
            f"increase truncation beyond {trunc}",
        )
    total = sum(dims_by_degree.values())
    note = None
    if mixed:
        note = "kernel classes mix vertex blocks; support reports unmixed classes only"
    rep = None
    if not mixed:
        dims = [support_acc.get(v, 0) for v in quiver.vertices]
        maps = []
        for a in quiver.arrows:
            dom, cod = arrow_ends("left", a)
            maps.append(Matrix.zeros(fld, dims[cod], dims[dom]))
        rep = Rep(quiver, "left", fld, dims, maps)
    return ExtReport(
        "ext_comodule_C", i, total,
        graded_dims={d: n for d, n in sorted(dims_by_degree.items()) if n},
        vertex_support=support_acc or {}, rep=rep,
        certificate={"stable_from": stable_from, "window": window, "checked_through": d_hi},
        field=fld,
        note=note or "carrier is the graded vertex-support of the right comodule",
    )


# ----------------------------------------------------------------------
# graded presentations: materialization, rational part, Hom(-, C)


class PresentationModel:
    """Degreewise model of the module presented by a GradedPresentation.

    Left-side normalized: a right-side presentation is transported through
    the opposite quiver (paths inside entries reversed).  Blocks are indexed
    by (degree, vertex); vertex of a basis label (g, p) is target(p).  The
    model of _hom_dual(P) for a presentation P of M has Ext^1(M, A) as its
    quotient blocks and Ext^0(M, A) as its kernel blocks; both kinds of block
    (d, v) sit on the one F1 -> F0 matrix of that degree and vertex, whose
    rank the model keeps.
    """

    def __init__(self, pres: GradedPresentation, trunc: int):
        if pres.side == "right":
            q_op = opposite(pres.quiver)
            entries = tuple(tuple(reverse_alg(el) for el in row) for row in pres.entries)
            pres = GradedPresentation(q_op, "left", pres.field, pres.generators, pres.relations, entries)
        self.pres = pres
        self.quiver = pres.quiver
        self.fld = pres.field
        self.trunc = trunc
        self.table = enumerate_paths(self.quiver, trunc)
        self._blocks = {}
        self._ranks = {}
        self._actions = {}

    def block(self, d: int, v: int) -> _Block:
        """Block (d, v): the F0 labels ending at v modulo the relation image.
        The projection rows of its Quotient are the basis dual to its classes."""
        return self._build(Quotient, d, v)

    def kernel(self, d: int, v: int) -> _Block:
        """The kernel of F1 -> F0 in degree d, on the F1 labels ending at v."""
        return self._build(Kernel, d, v)

    def _sides(self, space) -> tuple:
        """The generator lists of a block's own labels and of the other side's."""
        p = self.pres
        return (p.generators, p.relations) if space is Quotient else (p.relations, p.generators)

    def _labels(self, space, d: int, v: int) -> list:
        """The labels of block (d, v) of kind `space`, without building it."""
        return free_term_basis(self.table, self._sides(space)[0], d, v)

    def _build(self, space, d: int, v: int) -> _Block:
        # the differential preserves targets, so the blocks ending at each v make up the
        # degree-d matrix; with no labels on the other side a block is all of its own
        key = (space, d, v)
        blk = self._blocks.get(key)
        if blk is None:
            labels = self._labels(space, d, v)
            other = free_term_basis(self.table, self._sides(space)[1], d, v) if labels else ()
            if other:
                rows, cols = (labels, other) if space is Quotient else (other, labels)
                sp = space(free_diff_matrix(self.fld, rows, cols, self.pres.entries))
                self._ranks[(d, v)] = len(labels) - sp.dim
            else:
                sp = space.whole(self.fld, len(labels))
            blk = self._blocks[key] = _Block(labels, sp)
        return blk

    def dim(self, d: int, v: int | None = None, space=Quotient) -> int:
        """Dimension of block (d, v) of kind `space` (Quotient for `block`,
        Kernel for `kernel`), or of all of degree d, without building it.
        It is the number of the block's own labels minus the rank of the
        (d, v) matrix F1 -> F0: the quotient of F0 by the image and the kernel
        on F1 have the same rank to subtract.  With one label side empty that
        rank is 0; otherwise it is one elimination per (d, v), shared by both
        kinds and read off a block already built."""
        if v is None:
            return sum(self.dim(d, w, space) for w in self.quiver.vertices)
        blk = self._blocks.get((space, d, v))
        if blk is not None:
            return blk.dim
        own, other = self._sides(space)
        count = self.table.count
        n = sum(count(gv, v, d - gd) for gv, gd in own)
        if n and any(count(gv, v, d - gd) for gv, gd in other):
            return n - self._rank(d, v)
        return n

    def _rank(self, d: int, v: int) -> int:
        """Rank of the degree-d F1 -> F0 matrix on the labels ending at v."""
        r = self._ranks.get((d, v))
        if r is None:
            rows, cols = self._labels(Quotient, d, v), self._labels(Kernel, d, v)
            r = self._ranks[(d, v)] = rank(free_diff_matrix(self.fld, rows, cols, self.pres.entries))
        return r

    def arrow_action(self, d: int, arrow_index: int) -> Matrix:
        """Left multiplication by an arrow: block (d, source) -> (d+1, target)."""
        key = (d, arrow_index)
        if key not in self._actions:
            a = self.quiver.arrows[arrow_index]
            self._actions[key] = _induced_map(self.fld, self.block(d, a.source), self.block(d + 1, a.target),
                                              _left_mult(self.quiver, arrow_index))
        return self._actions[key]


# the benchmark tracer counts homology.blocks by wrapping AlgebraExtEngine.block
AlgebraExtEngine = PresentationModel


@dataclass
class RationalPartReport:
    rep: Rep
    dims_by_degree: dict
    certificate: dict

    def describe(self) -> dict:
        return {
            "dims_by_degree": {str(k): v for k, v in sorted(self.dims_by_degree.items())},
            "total_dim": self.rep.total_dim,
            "certificate": self.certificate,
        }


def rational_part(pres: GradedPresentation, trunc: int) -> RationalPartReport:
    """Maximal locally radical-nilpotent submodule of the presented module.

    Degreewise: an element of degree d is torsion when every length-k path
    composite kills it for some k; the per-degree torsion chain must
    stabilize over a window of two growth periods, and the graded family
    itself must vanish through such a window (finite-dimensionality
    certificate).  Raises StabilizationError when the truncation is too small.
    """
    model = PresentationModel(pres, trunc)
    q = model.quiver
    f = model.fld
    window = window_length(q)
    gen_degrees = [d for _, d in model.pres.generators]
    d_lo = min(gen_degrees) if gen_degrees else 0
    d_hi = trunc + (min(gen_degrees) if gen_degrees else 0)
    module_dims = {d: model.dim(d) for d in range(d_lo, d_hi + 1)}
    # when the module itself dies beyond some degree, torsion is decided
    # exactly: J^k M_d lands in a vanishing graded piece
    module_zero_from = _stable_zero_from(module_dims, d_lo, d_hi, window)
    torsion = {}
    dims_by_degree = {}
    certified_through = d_lo - 1
    if module_zero_from is not None:
        # every nonzero block (d, v) lies below module_zero_from, and its
        # composites of length module_zero_from - d land in a zero piece:
        # the whole block is torsion
        for d in range(d_lo, d_hi + 1):
            torsion[d] = {v: Kernel.whole(f, n) for v in q.vertices if (n := model.dim(d, v))}
            dims_by_degree[d] = module_dims[d]
        certified_through = d_hi
    else:
        for d in range(d_lo, d_hi + 1):
            per_vertex = {}
            decided = True
            for v in q.vertices:
                if model.dim(d, v) == 0:
                    continue
                ranks = []
                for k in range(1, d_hi - d + 1):
                    kern = Kernel(_kill_matrix(model, d, v, k))
                    ranks.append(kern.dim)
                tail_ok = len(ranks) > window and len(set(ranks[-(window + 1):])) == 1
                if not tail_ok:
                    decided = False
                    break
                per_vertex[v] = kern
            if not decided:
                break
            torsion[d] = per_vertex
            dims_by_degree[d] = sum(kern.dim for kern in per_vertex.values())
            certified_through = d
    first_zero = _stable_zero_from(dims_by_degree, d_lo, certified_through, window)
    if first_zero is None:
        raise StabilizationError(
            "rational part not certified finite-dimensional: graded dims did not "
            f"vanish through a window of {window} within the certified degrees",
            f"increase truncation beyond {trunc}",
        )
    # drop the (certified-zero) tail so the assembled carrier is exactly Gamma
    torsion = {d: pv for d, pv in torsion.items() if d < first_zero or dims_by_degree.get(d, 0)}

    def image(ai, dom, cod, d):
        dst = torsion.get(d + 1, {}).get(cod)
        if dst is None:
            return None
        action = model.arrow_action(d, ai)
        try:
            cols = [dst.coordinates(action.apply(vec)) for vec in torsion[d][dom].basis]
        except ValueError:
            raise AssertionError("torsion not closed under the radical action") from None
        return d + 1, Matrix.from_columns(f, cols, dst.dim)

    fibers = {v: [(d, j) for d in sorted(torsion) if v in torsion[d] for j in range(torsion[d][v].dim)]
              for v in q.vertices}
    rep = _graded_rep(pres.quiver, pres.side, f, fibers, image)
    cert = {"window": window, "zero_from_degree": first_zero,
            "certified_through": certified_through,
            "mode": "exact (module vanishes beyond a degree)" if module_zero_from is not None else "window policy"}
    return RationalPartReport(rep, {d: n for d, n in dims_by_degree.items() if n}, cert)


def _kill_matrix(model: PresentationModel, d: int, v: int, k: int) -> Matrix:
    """Stacked matrix of all length-k path composites out of block (d, v)."""
    f = model.fld
    blk_dim = model.dim(d, v)
    rows = []
    for p in model.table.paths(source=v, length=k):
        cur = Matrix.identity(f, blk_dim)
        for step, ai in enumerate(p.arrows):
            cur = model.arrow_action(d + step, ai) * cur
        rows.extend(cur.entries)
    return Matrix(f, rows, cols=blk_dim)


# ----------------------------------------------------------------------
# Hom(-, C)


@dataclass
class HomIntoCReport:
    """Hom_A(M, C) as a module on the other side, and its nonzero dimensions
    by degree.  Hom(M, C) is the graded dual of M, so these must equal M's
    graded dimensions; `cli verify` checks that on random modules."""

    rep: Rep
    dims_by_degree: dict

    def describe(self) -> dict:
        return {
            "dims_by_degree": {str(k): v for k, v in sorted(self.dims_by_degree.items())},
            "total_dim": self.rep.total_dim,
        }


def hom_into_C(pres: GradedPresentation, trunc: int) -> HomIntoCReport:
    """Hom_A(M, C) for a presented module M, read off PresentationModel.

    Hom(A e_v<del>, C) is the injective I(v) (paths out of v), so Hom(M, C)
    is the degreewise kernel of the transposed presentation matrix: per
    (degree, vertex), the annihilator of the relation image, with basis the
    projection rows of the model's block, dual to its classes.  An arrow
    strips its own last step; on these bases that is the transpose of the
    model's left action.  The dimension in degree d is model.dim(d).
    """
    model = PresentationModel(pres, trunc)
    q = model.quiver
    pres_l = model.pres
    gen_degs = [d for _, d in pres_l.generators] or [0]
    rel_degs = [d for _, d in pres_l.relations]
    d_lo = min(gen_degs)
    d_hi = trunc + min(gen_degs + rel_degs) if (gen_degs or rel_degs) else trunc
    degrees = range(d_lo, d_hi + 1)
    dims_by_degree = {d: n for d in degrees if (n := model.dim(d))}
    fibers = {v: [(d, j) for d in degrees for j in range(model.dim(d, v))] for v in q.vertices}

    def image(ai, dom, cod, d):
        if d == d_lo:
            return None
        return d - 1, model.arrow_action(d - 1, ai).transpose()

    out_side = "right" if pres.side == "left" else "left"
    rep = _graded_rep(pres.quiver, out_side, model.fld, fibers, image)
    return HomIntoCReport(rep, dims_by_degree)


# ----------------------------------------------------------------------
# the dual-resolution exactness check


def dual_resolution_check(pres: GradedPresentation, trunc: int, depth: int) -> dict:
    """Degreewise exactness of the rationalized dual of a free resolution.

    Extends the presentation F1 -> F0 -> M -> 0 by the kernel cover F2 (free,
    by heredity), then verifies through the requested degree that the graded
    dual sequence 0 -> M* -> F0* -> F1* -> F2* -> 0 is exact, i.e. that the
    ranks tie out degreewise.  The kernel of F1 -> F0 is taken per (degree,
    target vertex) from PresentationModel.kernel, so rank_d1 is F1_d minus its
    dimension.  The F2 generators of block (d, v) are the kernel vectors
    outside the radical layer, the arrow pushes of the kernel in degree
    d - 1: the pivot columns past the pushes of [pushes | kernel basis].
    Returns the per-degree table.
    """
    model = PresentationModel(pres, trunc)
    f = model.fld
    q = model.quiver
    table = model.table
    gens, rels = model.pres.generators, model.pres.relations

    # kernel of F1 -> F0 per (degree, target vertex), then a minimal free cover F2
    rel_degs = [d for _, d in rels]
    k_lo = min(rel_degs) if rel_degs else 0
    kernels = {(d, v): model.kernel(d, v) for d in range(k_lo, depth + 2) for v in q.vertices}
    f2_gens = []
    f2_columns = []  # per F2 generator: relation index -> {path: coefficient}
    for (d, v), blk in kernels.items():
        kern = blk.space.basis
        if not kern:
            continue
        pushes = []
        for ai, a in enumerate(q.arrows):
            prev = kernels.get((d - 1, a.source))
            if a.target == v and prev is not None:
                move = _left_mult(q, ai)
                pushes.extend(_push(f, prev.labels, vec, move, blk.index) for vec in prev.space.basis)
        for c, _ in exactlin._echelon(Matrix.from_columns(f, pushes + kern, len(blk.labels))):
            if c < len(pushes):
                continue
            f2_gens.append((v, d))
            column = {}
            for (r, p), x in zip(blk.labels, kern[c - len(pushes)]):
                if not f.is_zero(x):
                    column.setdefault(r, {})[p] = x
            f2_columns.append(column)
    f2_entries = tuple(tuple(AlgElement(f, column.get(r)) for column in f2_columns)
                       for r in range(len(rels)))

    table_rows = []
    all_exact = True
    for d in range(min(0, k_lo), depth + 1):
        m_d = model.dim(d)
        f0_d = len(free_term_basis(table, gens, d))
        f1_labels = free_term_basis(table, rels, d)
        f1_d = len(f1_labels)
        mat2 = free_diff_matrix(f, f1_labels, free_term_basis(table, f2_gens, d), f2_entries)
        f2_d = mat2.cols
        r1 = f1_d - sum(kernels[(d, v)].dim for v in q.vertices if (d, v) in kernels)
        r2 = rank(mat2)
        exact_here = (r1 == f0_d - m_d) and (r2 == f1_d - r1) and (r2 == f2_d)
        all_exact = all_exact and exact_here
        table_rows.append({
            "degree": d, "dim_M": m_d, "dim_F0": f0_d, "dim_F1": f1_d, "dim_F2": f2_d,
            "rank_d1": r1, "rank_d2": r2, "exact": exact_here,
        })
    return {"passes": all_exact, "rows": table_rows, "depth": depth}


# ----------------------------------------------------------------------
# local cohomology via the colimit of Ext(A/J^m, A)


def _stage_presentation(quiver: Quiver, u: int, m: int, fld: Field, table) -> GradedPresentation:
    """Minimal left presentation of A e_u / J^m.

    A is hereditary and J^m e_u is free on the paths of length m out of u,
    so 0 -> (+)_p A e_t(p)<m> -> A e_u -> A e_u / J^m -> 0 resolves it: one
    generator (u, 0), and relation r = (t(p_r), m) sends its generator to
    p_r, in the order of `table`, which must hold the paths of length m.
    """
    paths = table.paths(source=u, length=m)
    return GradedPresentation(quiver, "left", fld, ((u, 0),), tuple((p.target, m) for p in paths),
                              (tuple(AlgElement.dual_path(fld, p) for p in paths),))


@dataclass
class LocalCohReport:
    index: int
    gldim: int
    dims: dict           # (u, w, ell) -> stabilized dimension
    stabilized_at: dict  # (u, ell) -> first stage with all later transitions iso
    max_degree: int
    twist_sigma: tuple | None
    twist_note: str
    cycle_products: dict
    field: Field
    side: str = "left"

    def dim(self, u: int, w: int, ell: int) -> int:
        return self.dims.get((u, w, ell), 0)

    def describe(self) -> dict:
        nv = max((u for (u, _, _) in self.dims), default=-1) + 1
        matrices = {}
        for ell in range(self.max_degree + 1):
            matrices[str(ell)] = [[self.dim(u, w, ell) for w in range(nv)] for u in range(nv)] if nv else []
        return {
            "cohomological_index": self.index,
            "gldim": self.gldim,
            "bigraded_dims": matrices,
            "stabilized_at": {f"{u + 1},{ell}": m for (u, ell), m in sorted(self.stabilized_at.items())},
            "max_degree": self.max_degree,
            "twist_vertex_map": [v + 1 for v in self.twist_sigma] if self.twist_sigma else None,
            "twist_note": self.twist_note,
            "cycle_products": {k: str(v) for k, v in self.cycle_products.items()},
            "field": self.field.describe(),
            "side": self.side,
        }


def local_cohomology(quiver: Quiver, i: int, m_max: int, trunc: int,
                     fld: Field | None = None, side: str = "left") -> LocalCohReport:
    """Stabilized bigraded dimensions of H^i of the torsion functor on A.

    For each left idempotent summand the colimit of Ext^i(A/J^m, A) is chased
    through the explicit maps induced by the surjections A/J^(m+1) -> A/J^m;
    a graded piece counts as stabilized once every observed transition from
    its first appearance on is an isomorphism and at least one transition was
    observed.  Each stage is presented by its two-term minimal resolution.
    Stage dimensions are read through PresentationModel.dim, so a stage block
    is built only where its classes are read.  A piece with classes, its
    dimensions equal at every stage, is certified by one rank: that of the
    composite of its transitions from birth to m_max.  Each transition is
    square of the same size, and the composite's determinant is the product
    of theirs, so it is invertible exactly when every transition is.
    The vertex twist sigma is read off the degree-0 slice and checked against
    the path coalgebra in every degree, and arrow-level cycle products are
    extracted from the two one-sided module structures.
    """
    fld = fld or Field(0)
    if side == "right":
        rep_q = opposite(quiver)
    else:
        rep_q = quiver
    window_length(rep_q)  # gate check
    if i not in (0, 1):
        # each stage has a two-term resolution, so Ext^i vanishes for i >= 2
        raise ValueError(f"index must be 0 or 1, got {i}")
    n = 0 if not rep_q.arrows else 1
    ell_max = m_max - n - 1
    if ell_max < 0:
        raise StabilizationError("m_max too small for any stabilized degree",
                                 f"increase m_max to at least {n + 2}")
    # m_max may exceed the models' truncation by one
    table = enumerate_paths(rep_q, m_max)
    stages = {(u, m): _stage_presentation(rep_q, u, m, fld, table)
              for u in rep_q.vertices for m in range(1, m_max + 1)}
    models = {key: ext_model(pres, trunc) for key, pres in stages.items()}
    # the surjection of stage m + 1 onto stage m lifts to the identity on F0
    # and to [x p] -> x [p] on F1
    stage_moves = {(u, m): (_relation_move(rep_q, stages[(u, m)], stages[(u, m + 1)], trivial_path(u))
                            if i else lambda lab: (lab,))
                   for u in rep_q.vertices for m in range(1, m_max)}

    space = Quotient if i else Kernel

    def get_block(u, m, d, w):
        model = models[(u, m)]
        return model.block(d, w) if i else model.kernel(d, w)

    def composite(u, birth, d, w):
        # the map on classes of block (d, w) from stage `birth` to m_max; a stage in between
        # is only its label index
        src, dst = get_block(u, birth, d, w), get_block(u, m_max, d, w)
        labels, vecs = src.labels, src.space.basis
        for m in range(birth + 1, m_max + 1):
            nxt = dst.labels if m == m_max else models[(u, m)]._labels(space, d, w)
            index = dst.index if m == m_max else {lab: k for k, lab in enumerate(nxt)}
            vecs = [_push(fld, labels, vec, stage_moves[(u, m - 1)], index) for vec in vecs]
            labels = nxt
        return _classes_of(fld, dst, vecs)

    dims = {}
    stabilized_at = {}
    for u in rep_q.vertices:
        for ell in range(ell_max + 1):
            d = -ell - n
            birth = max(1, -d)
            if birth + 1 > m_max:
                raise StabilizationError(
                    f"degree {ell} needs stages beyond m_max", f"increase m_max beyond {m_max}")
            for w in rep_q.vertices:
                stage_dims = {models[(u, m)].dim(d, w, space) for m in range(birth, m_max + 1)}
                dim = max(stage_dims)
                # the composite birth -> m_max is square; it is invertible exactly when every
                # transition is, since its determinant is the product of theirs
                if len(stage_dims) > 1 or dim and rank(composite(u, birth, d, w)) < dim:
                    raise StabilizationError(
                        f"colimit piece (u={u + 1}, w={w + 1}, degree {ell}) did not stabilize",
                        f"increase m_max beyond {m_max} or truncation beyond {trunc}")
                if dim:
                    dims[(u, w, ell)] = dim
            stabilized_at[(u, ell)] = birth
    # twist matching against the path coalgebra
    twist_sigma = None
    twist_note = "no match attempted for off-index cohomology"
    if i == n:
        twist_sigma, twist_note = _match_twist(rep_q, dims, ell_max)
    elif all(v == 0 for v in dims.values()):
        twist_note = "identically zero"
    cycle_products = {}
    if i == n and twist_sigma is not None and all(twist_sigma[v] == v for v in rep_q.vertices):
        cycle_products = _cycle_products(rep_q, fld, stages, get_block, n, m_max)
    return LocalCohReport(i, n, dims, stabilized_at, ell_max, twist_sigma, twist_note,
                          cycle_products, fld, side)


def _match_twist(quiver: Quiver, dims: dict, ell_max: int):
    """The vertex permutation sigma with H[u][w]_ell == #paths(u -> sigma^{-1}(w), ell).

    Path counts in degree 0 form the identity matrix, so H[u][w]_0 = [sigma(u)
    = w] fixes sigma, and every degree is then checked against it.
    """
    vs = quiver.vertices
    sigma = tuple(next((w for w in vs if dims.get((u, w, 0))), -1) for u in vs)
    counts = path_count_matrices(quiver, ell_max)
    if sorted(sigma) != list(vs) or any(dims.get((u, sigma[v], ell), 0) != counts[ell][u][v]
                                        for ell in range(ell_max + 1) for u in vs for v in vs):
        return None, "no vertex permutation matches the bigraded dimensions"
    # sigma is unique; the note keeps the wording the reports have always had
    return sigma, "1 matching vertex permutation(s); reporting the lexicographically first"


def _cycle_products(quiver, fld, stages, get_block, n, m_max):
    """Ratio of right-route to left-route composites around each cycle.

    Both composites connect the same stabilized one-dimensional blocks; the
    basis ambiguities cancel in the ratio, which equals the product of the
    twist scalars around the cycle.  Requires all touched blocks to be
    one-dimensional (true on the disjoint-cycle instances with identity
    vertex twist); returns {} when that fails.
    """
    out = {}
    q_op = opposite(quiver)
    for cyc in _simple_cycles(quiver):
        d0 = -len(cyc) - n
        if -d0 + 1 > m_max:
            continue
        u0 = quiver.arrows[cyc[0]].source
        # right route: within summand u0, arrow actions move (d, t(b)) -> (d+1, s(b))
        kappa = _route_product(fld, (
            (get_block(u0, m_max, d0 + k, quiver.arrows[b].target),
             get_block(u0, m_max, d0 + k + 1, quiver.arrows[b].source),
             _left_mult(q_op, b))
            for k, b in enumerate(reversed(cyc))))
        if kappa is None:
            continue
        # left route: across summands, right multiplication by b on the
        # quotient modules moves summand s(b) to t(b)
        mu = _route_product(fld, (
            (get_block(quiver.arrows[b].source, m_max, d0 + k, u0),
             get_block(quiver.arrows[b].target, m_max, d0 + k + 1, u0),
             _relation_move(quiver, stages[(quiver.arrows[b].source, m_max)],
                            stages[(quiver.arrows[b].target, m_max)], _arrow_path(quiver, b)))
            for k, b in enumerate(cyc)))
        if mu is not None:
            label = "-".join(quiver.arrows[ai].label for ai in cyc)
            out[label] = fld.mul(kappa, fld.inv(mu))
    return out


def _route_product(fld: Field, steps):
    """Product of the 1x1 maps along a route of (src, dst, move) steps, or
    None once a block is not one-dimensional or a map vanishes.  `steps` is
    consumed lazily, so no block past the first failing step is built."""
    val = fld.one
    for src, dst, move in steps:
        if src.dim != 1 or dst.dim != 1:
            return None
        coord = _induced_map(fld, src, dst, move)[0, 0]
        if fld.is_zero(coord):
            return None
        val = fld.mul(val, coord)
    return val


def _simple_cycles(quiver: Quiver) -> list:
    """Arrow index lists of the simple cycles of a gate-bounded quiver."""
    cycles = []
    for comp in _scc_cycle_data(quiver):
        if comp["kind"] != "cycle":
            continue
        comp_set = set(comp["vertices"])
        v0 = comp["vertices"][0]
        arrows = []
        v = v0
        while True:
            ai = next(k for k in quiver.arrows_from(v) if quiver.arrows[k].target in comp_set)
            arrows.append(ai)
            v = quiver.arrows[ai].target
            if v == v0:
                break
        cycles.append(arrows)
    return cycles


# ----------------------------------------------------------------------
# the injective roundtrip


def duality_roundtrip_injective(quiver: Quiver, m_max: int, trunc: int,
                                fld: Field | None = None) -> list:
    """F then G on the truncated injective at each vertex, one verdict per vertex.

    F(e_i C) is the i-th right-index column of the stabilized local
    cohomology (a twisted coalgebra column, shifted by the global dimension);
    G runs the mirrored machinery on the opposite quiver.  A verdict checks
    that the composite's bigraded dimensions reproduce the truncated
    injective degreewise through the certified window.  Each one-sided local
    cohomology is computed once; the right one only when some F image is
    concentrated on a single column.
    """
    fld = fld or Field(0)
    n = 0 if not quiver.arrows else 1
    h_left = local_cohomology(quiver, n, m_max, trunc, fld, side="left")
    # the degree-0 slice locates the coalgebra column F(X) is supported on
    carriers = [[vertex] if n == 0 else [u for u in quiver.vertices if h_left.dim(u, vertex, 0)]
                for vertex in quiver.vertices]
    if any(len(cs) == 1 for cs in carriers):
        h_right = local_cohomology(quiver, n, m_max, trunc, fld, side="right")
        ell_both = min(h_left.max_degree, h_right.max_degree)
        expected = path_count_matrices(quiver, ell_both)
    verdicts = []
    for vertex, cs in enumerate(carriers):
        if len(cs) != 1:
            verdicts.append({"object": f"truncated injective at {vertex + 1}", "passes": False,
                             "reason": "F image not concentrated on a single column"})
            continue
        c = cs[0]
        table = [{"degree": ell, "vertex": v + 1, "roundtrip": h_right.dim(v, c, ell),
                  "original": expected[ell][vertex][v]}
                 for ell in range(ell_both + 1) for v in quiver.vertices]
        verdicts.append({
            "object": f"truncated injective at vertex {vertex + 1}",
            "passes": all(row["roundtrip"] == row["original"] for row in table),
            "column": c + 1,
            "shift": n,
            "checked_degrees": ell_both,
            "table": table,
        })
    return verdicts
