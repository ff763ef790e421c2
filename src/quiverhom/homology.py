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

import functools
from collections import Counter

from .exactlin import Field, Kernel, Matrix, Quotient, echelon_rows, rank
from .pathcoalg import AlgElement
from .quiver import (
    Path,
    Quiver,
    Record,
    _scc_cycle_data,
    compose,
    enumerate_paths,
    growth_gate,
    opposite,
    path_count_matrices,
)
from .repmod import (
    GradedPresentation,
    Rep,
    _reverse_path,
    hom_ext1_dims,
    presentation_of_rep,
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
    return _label_matrix(fld, rows, cols, _diff_images(entries))


def _diff_images(entries):
    """The label images of the differential with the given entries: the F1
    label (r, p) goes to the F0 labels (g, p q), q a path of entries[g][r]."""
    def images(lab):
        r, p = lab
        for g, row in enumerate(entries):
            for q, c in row[r].coeffs.items():
                if q.target == p.source:
                    yield (g, compose(p, q)), c

    return images


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
# standard resolution


# no command calls it; it stays because bench/tracer.py binds it by name
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


# ----------------------------------------------------------------------
# reports


class ExtReport(Record):
    """Dimension data for one Ext group, with certificates where truncation
    is involved.  graded_dims maps internal degree to dimension and
    vertex_support vertex to dimension; no module structure is kept."""

    __slots__ = ("subject", "degree", "total_dim", "graded_dims", "vertex_support",
                 "certificate", "field", "note")

    def __init__(self, subject: str, degree: int, total_dim: int, graded_dims: dict | None = None,
                 vertex_support: dict | None = None, certificate: dict | None = None,
                 field: Field | None = None, note: str | None = None):
        self.subject, self.degree, self.total_dim = subject, degree, total_dim
        self.graded_dims, self.vertex_support = graded_dims, vertex_support
        self.certificate, self.field, self.note = certificate, field, note

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


def ext_fd(m: Rep, n: Rep, i: int) -> ExtReport:
    """Ext^i between finite-dimensional representations on the same side.

    Degree 0 is the hom space, degree 1 the cokernel of the commutation map;
    hereditary scope makes everything above a certified zero.
    """
    if m.side != n.side:
        raise ValueError("side mismatch")
    if i < 0:
        raise ValueError("negative cohomological degree")
    if i >= 2:
        return ExtReport("ext_fd", i, 0, note="hereditary scope: gldim <= 1", field=m.field)
    return ExtReport("ext_fd", i, hom_ext1_dims(m, n)[i], field=m.field)


# ----------------------------------------------------------------------
# graded blocks: labels, classes, and the maps label moves induce on them


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
    that `move(labels[idx])` yields (a zero cell takes it as it is); labels
    outside the destination drop out.
    """
    out = [0] * len(dst_index)
    for idx, c in enumerate(vec):
        if c:
            for lab in move(labels[idx]):
                pos = dst_index.get(lab)
                if pos is not None:
                    y = out[pos]
                    out[pos] = fld.add(y, c) if y else c
    return out


def _label_columns(fld: Field, rows, cols, images) -> list:
    """Column j = images(cols[j]) on labelled bases, as a sparse row {row index:
    nonzero normal scalar}.  images(label) yields (row label, normalized
    coefficient) pairs; coefficients on the same row add up, and row labels
    outside `rows` drop out."""
    index = {lab: i for i, lab in enumerate(rows)}
    out = []
    for lab in cols:
        col = {}
        for row, c in images(lab):
            i = index.get(row)
            if i is not None:
                col[i] = fld.add(col[i], c) if i in col else c
        out.append({i: x for i, x in col.items() if x})
    return out


def _label_matrix(fld: Field, rows, cols, images) -> Matrix:
    """The dense view of `_label_columns`: the matrix on labelled bases
    whose column j is images(cols[j])."""
    return Matrix.from_sparse(fld, _label_columns(fld, rows, cols, images), len(rows)).transpose()


def _left_mult(p: Path):
    """Label move (g, q) -> (g, p q): left multiplication by the path p."""
    return lambda lab: ((lab[0], compose(p, lab[1])),) if lab[1].target == p.source else ()


def _induced_map(fld: Field, src: _Block, dst: _Block, move) -> Matrix:
    """Matrix of the map on classes src -> dst induced by a label move: column
    j holds the coordinates in `dst` of the representative `src.space.basis[j]`
    moved along `move`."""
    cols = [dst.space.coordinates(_push(fld, src.labels, vec, move, dst.index)) for vec in src.space.basis]
    return Matrix.from_columns(fld, cols, dst.dim)


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


def ext_vs_algebra(m: Rep, i: int, trunc: int, model: PresentationModel | None = None) -> ExtReport:
    """Graded and vertex dimensions of Ext^i(M, A), a module on the side
    opposite M's, degreewise to `trunc`.

    Uses a path-length grading of M (available on the instances in scope:
    acyclic quivers and disjoint unions of cycles).  The dimensions are those
    of `model`, by default ext_model(presentation_of_rep(m), trunc): of its
    quotient blocks for Ext^1, of the kernels of its (degree, vertex)
    matrices for Ext^0.  A caller that reads both degrees passes one model
    to both calls, so M is resolved once and each (degree, vertex) matrix
    eliminated once.  The certificate records the first internal degree
    past which all graded pieces vanish through a window of two growth
    periods; failure to certify raises, naming the smallest parameter change
    expected to fix it.
    """
    if model is not None and model.trunc != trunc:
        raise ValueError(f"model truncated at {model.trunc}, not at {trunc}")
    window = window_length(m.quiver)
    if i >= 2:
        return ExtReport("ext_vs_algebra", i, 0, graded_dims={},
                         note="hereditary scope: gldim <= 1", field=m.field)
    if m.is_zero():
        return ExtReport("ext_vs_algebra", i, 0, graded_dims={}, vertex_support={},
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
    dims_by_degree = {}
    support = {}
    # only a block with labels of its own kind can have a nonzero dimension
    for d, w in model._counts[space]:
        if d <= d_max and (n := model.dim(d, w, space)):
            dims_by_degree[d] = dims_by_degree.get(d, 0) + n
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
    return ExtReport("ext_vs_algebra", i, total,
                     graded_dims={d: n for d, n in sorted(dims_by_degree.items()) if n},
                     vertex_support=support, certificate=certificate, field=m.field)


# ----------------------------------------------------------------------
# Ext_C(C, S_j) through the worked dual-complex route


def ext_comodule_model(quiver: Quiver, j: int, trunc: int, fld: Field) -> PresentationModel:
    """The model that Ext^i_C(C, S_j) is read off: ext_model of S_j = A e_j / J."""
    return ext_model(_stage_presentation(quiver, j, 1, fld, enumerate_paths(quiver, 1)), trunc)


def ext_comodule_C(quiver: Quiver, j: int, i: int, trunc: int, fld: Field | None = None,
                   model: PresentationModel | None = None) -> ExtReport:
    """Ext^i_C(C, S_j) for the simple left comodule at vertex j.

    Built exactly as the worked two-vertex computation: the minimal injective
    resolution 0 -> S_j -> I(j) -> (+)_(a: j->.) I(head a) -> 0 dualizes to
    the strip-one-arrow complex

        (+)_(a: source j) C e_head(a)  -->  C e_j,

    and Ext^0 / Ext^1 are the linear duals of its cokernel / kernel.  Its
    matrices are the transposes of those of the Hom-dual of the minimal
    presentation of S_j (one relation per arrow out of j), so Ext^0 is read
    off the kernel dimensions of that model's (degree, vertex) matrices and
    Ext^1 off its quotient blocks, whose projection rows are the kernel
    vectors of the strip matrix.  A class is supported at the heads of the
    generators its row touches; a block of the dimension of its own labels
    is the whole space, so its support is counted off the path counts, and
    only the other blocks are built.  A caller reading both degrees passes
    one ext_comodule_model as `model`.  The report keeps the grading and
    vertex support; no arrow action is built.
    """
    fld = fld or Field(0)
    if not 0 <= j < quiver.vertex_count:
        raise ValueError(f"vertex {j + 1} out of range 1..{quiver.vertex_count}")
    window = window_length(quiver)
    if i >= 2:
        return ExtReport("ext_comodule_C", i, 0, note="hereditary scope: gldim <= 1", field=fld)
    model = model or ext_comodule_model(quiver, j, trunc, fld)
    if model.trunc != trunc:
        raise ValueError(f"model truncated at {model.trunc}, not at {trunc}")
    heads = [v for v, _ in model.pres.generators]
    space = Quotient if i else Kernel
    dims_by_degree = {}
    support_acc = {}
    mixed = False
    d_hi = trunc - 1
    counts = path_count_matrices(model.quiver, trunc)
    for d, v in model._counts[space]:
        if d > d_hi or not (dim := model.dim(d, v, space)):
            continue
        dims_by_degree[d] = dims_by_degree.get(d, 0) + dim
        if i == 0:
            support_acc[j] = support_acc.get(j, 0) + dim
            continue
        if dim == model._counts[Quotient][(d, v)]:
            # a whole-space block: class k is label k, at the head of its generator, and
            # generator (gv, gd) has one label per path gv -> v of length d - gd
            for gv, gd in model.pres.generators:
                if 0 <= d - gd <= trunc and (n := counts[d - gd][gv][v]):
                    support_acc[gv] = support_acc.get(gv, 0) + n
            continue
        blk = model.block(d, v)
        supports = [{heads[blk.labels[idx][0]] for idx, x in enumerate(vec) if not fld.is_zero(x)}
                    for vec in blk.space.projection.entries]
        for verts in supports:
            if len(verts) > 1:
                mixed = True
            for w in verts:
                support_acc[w] = support_acc.get(w, 0) + (1 if len(verts) == 1 else 0)
    stable_from = _stable_zero_from(dims_by_degree, -1, d_hi, window)
    if stable_from is None:
        raise StabilizationError(
            f"Ext^{i}_C(C, S_{j + 1}) graded dims did not vanish through a window of {window}",
            f"increase truncation beyond {trunc}",
        )
    total = sum(dims_by_degree.values())
    return ExtReport(
        "ext_comodule_C", i, total,
        graded_dims={d: n for d, n in sorted(dims_by_degree.items()) if n},
        vertex_support=support_acc or {},
        certificate={"stable_from": stable_from, "window": window, "checked_through": d_hi},
        field=fld,
        note=("kernel classes mix vertex blocks; support reports unmixed classes only" if mixed
              else "carrier is the graded vertex-support of the right comodule"),
    )


# ----------------------------------------------------------------------
# graded presentations: materialization, rational part, Hom(-, C)


def _label_counts(counts: list, gens) -> Counter:
    """{(degree, vertex): number of labels} of the free term on `gens`, as
    free_term_basis lists them, read off the path counts `counts`."""
    out = Counter()
    for gv, gd in gens:
        out.update({(gd + ell, w): c for ell, mat in enumerate(counts) for w, c in enumerate(mat[gv]) if c})
    return out


class PresentationModel:
    """Degreewise model of the module presented by a GradedPresentation.

    Left-side normalized: a right-side presentation is transported through
    the opposite quiver (paths inside entries reversed).  Blocks are indexed
    by (degree, vertex); vertex of a basis label (g, p) is target(p).  The
    model of _hom_dual(P) for a presentation P of M has Ext^1(M, A) as its
    quotient blocks and Ext^0(M, A) as the kernels of the same F1 -> F0
    matrices, one per degree and vertex, whose ranks the model keeps.
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
        # the labels per (degree, vertex): F0 for Quotient, F1 for Kernel
        counts = path_count_matrices(self.quiver, trunc)
        self._counts = {Quotient: _label_counts(counts, pres.generators),
                        Kernel: _label_counts(counts, pres.relations)}
        # one generator or one relation, and no entry a sum of paths: every rank is a count
        self._monomial = 1 in (len(pres.generators), len(pres.relations)) and all(
            len(el.coeffs) <= 1 for row in pres.entries for el in row)
        self._blocks = {}
        self._ranks = {}

    @functools.cached_property
    def table(self):
        """The paths through the truncation, enumerated on first read: only
        blocks, label lists and kill matrices need them."""
        return enumerate_paths(self.quiver, self.trunc)

    def block(self, d: int, v: int) -> _Block:
        """Block (d, v): the F0 labels ending at v modulo the relation image.
        The projection rows of its Quotient are the basis dual to its classes."""
        # the differential preserves targets, so the blocks ending at each v make up the
        # degree-d matrix; with no relation label a block is all of its own
        blk = self._blocks.get((d, v))
        if blk is None:
            labels = self._labels(Quotient, d, v)
            rels = self._labels(Kernel, d, v) if labels else ()
            if rels:
                space = Quotient(free_diff_matrix(self.fld, labels, rels, self.pres.entries))
                self._ranks[(d, v)] = len(labels) - space.dim
            else:
                space = Quotient.whole(self.fld, len(labels))
            blk = self._blocks[(d, v)] = _Block(labels, space)
        return blk

    def _labels(self, space, d: int, v: int) -> list:
        """The F0 (space=Quotient) or F1 (space=Kernel) labels in degree d ending at v."""
        return free_term_basis(self.table, self.pres.generators if space is Quotient else self.pres.relations, d, v)

    def dim(self, d: int, v: int | None = None, space=Quotient) -> int:
        """Dimension of block (d, v) (space=Quotient) or of the kernel of its
        F1 -> F0 matrix (space=Kernel), or of all of degree d, without
        building a block.  It is the number of its own labels minus the rank
        of the (d, v) matrix F1 -> F0: the quotient of F0 by the image and the
        kernel on F1 have the same rank to subtract.  With one label side
        empty that rank is 0; otherwise it is one rank per (d, v), shared by
        both kinds and read off a block already built."""
        if v is None:
            return sum(self.dim(d, w, space) for w in self.quiver.vertices)
        blk = self._blocks.get((d, v)) if space is Quotient else None
        if blk is not None:
            return blk.dim
        n = self._counts[space].get((d, v), 0)
        if n and (d, v) in self._counts[Kernel if space is Quotient else Quotient]:
            return n - self._rank(d, v)
        return n

    def _rank(self, d: int, v: int) -> int:
        """Rank of the degree-d F1 -> F0 matrix on the labels ending at v.  A
        monomial presentation's is counted (docs/conventions.md, "Engines"):
        with one relation, the F1 labels, or 0 when every image lies past the
        truncation; with one generator, the F0 labels the F1 labels hit."""
        r = self._ranks.get((d, v))
        if r is None:
            p = self.pres
            if self._monomial and len(p.relations) == 1:
                hit = any(row[0].coeffs and d - gd <= self.trunc for (_, gd), row in zip(p.generators, p.entries))
                r = self._counts[Kernel].get((d, v), 0) if hit else 0
            elif self._monomial:
                r = len({compose(path, q) for rel, path in self._labels(Kernel, d, v)
                         for q in p.entries[0][rel].coeffs})
            else:
                # the rank of the transpose: the F1 labels' images are its sparse rows
                r = len(echelon_rows(self.fld, _label_columns(
                    self.fld, self._labels(Quotient, d, v), self._labels(Kernel, d, v), _diff_images(p.entries))))
            self._ranks[(d, v)] = r
        return r


# no command uses this alias; it stays because bench/tracer.py binds it by name
AlgebraExtEngine = PresentationModel


class RationalPartReport(Record):
    """Dimensions of the rational part of a presented module: its nonzero
    dimensions by degree, the certificate of how they were decided, and
    their sum.  No module structure is kept."""

    __slots__ = ("dims_by_degree", "certificate", "total_dim")

    def __init__(self, dims_by_degree: dict, certificate: dict, total_dim: int):
        self.dims_by_degree, self.certificate, self.total_dim = dims_by_degree, certificate, total_dim

    def describe(self) -> dict:
        return {
            "dims_by_degree": {str(k): v for k, v in sorted(self.dims_by_degree.items())},
            "total_dim": self.total_dim,
            "certificate": self.certificate,
        }


def rational_part(pres: GradedPresentation, trunc: int) -> RationalPartReport:
    """Dimensions of the maximal locally radical-nilpotent submodule of the
    presented module.

    Degreewise: an element of degree d is torsion when every length-k path
    composite kills it for some k; the per-degree torsion chain must
    stabilize over a window of two growth periods, and the graded family
    itself must vanish through such a window (finite-dimensionality
    certificate).  An arrow takes a class that every length-k path kills to
    one that every length-(k-1) path kills, so the torsion is a submodule
    and its dimensions are all that is counted.  Raises StabilizationError
    when the truncation is too small.
    """
    model = PresentationModel(pres, trunc)
    q = model.quiver
    window = window_length(q)
    gen_degrees = [d for _, d in model.pres.generators]
    d_lo = min(gen_degrees) if gen_degrees else 0
    d_hi = trunc + (min(gen_degrees) if gen_degrees else 0)
    module_dims = {d: model.dim(d) for d in range(d_lo, d_hi + 1)}
    # when the module itself dies beyond some degree, torsion is decided
    # exactly: J^k M_d lands in a vanishing graded piece
    module_zero_from = _stable_zero_from(module_dims, d_lo, d_hi, window)
    if module_zero_from is not None:
        # every nonzero block (d, v) lies below module_zero_from, and its
        # composites of length module_zero_from - d land in a zero piece:
        # the whole block is torsion
        dims_by_degree = module_dims
        certified_through = d_hi
    else:
        dims_by_degree = {}
        certified_through = d_lo - 1
        for d in range(d_lo, d_hi + 1):
            dims = [_torsion_dim(model, d, v, d_hi - d, window) for v in q.vertices if model.dim(d, v)]
            if None in dims:
                break
            dims_by_degree[d] = sum(dims)
            certified_through = d
    first_zero = _stable_zero_from(dims_by_degree, d_lo, certified_through, window)
    if first_zero is None:
        raise StabilizationError(
            "rational part not certified finite-dimensional: graded dims did not "
            f"vanish through a window of {window} within the certified degrees",
            f"increase truncation beyond {trunc}",
        )
    cert = {"window": window, "zero_from_degree": first_zero,
            "certified_through": certified_through,
            "mode": "exact (module vanishes beyond a degree)" if module_zero_from is not None else "window policy"}
    return RationalPartReport({d: n for d, n in dims_by_degree.items() if n}, cert, sum(dims_by_degree.values()))


def _torsion_dim(model: PresentationModel, d: int, v: int, k_max: int, window: int) -> int | None:
    """Dimension of the classes of block (d, v) that every path of length
    k_max kills, when the nullities of the kill matrices for k = 1..k_max
    hold still over their last window + 1 values, the only ones built; None when they do not."""
    if k_max <= window:
        return None  # fewer than window + 1 values
    cols = model.block(d, v).dim
    dims = {cols - rank(_kill_matrix(model, d, v, k)) for k in range(k_max - window, k_max + 1)}
    return dims.pop() if len(dims) == 1 else None


def _kill_matrix(model: PresentationModel, d: int, v: int, k: int) -> Matrix:
    """The maps that the length-k paths out of v induce on block (d, v), one
    per path in table order, stacked: the path p maps the block to block
    (d + k, target(p)) by left multiplication."""
    src = model.block(d, v)
    rows = []
    for p in model.table.paths(source=v, length=k):
        rows.extend(_induced_map(model.fld, src, model.block(d + k, p.target), _left_mult(p)).entries)
    return Matrix(model.fld, rows, cols=src.dim)


# ----------------------------------------------------------------------
# Hom(-, C)


class HomIntoCReport(Record):
    """Dimensions of Hom_A(M, C), a module on the other side: its nonzero
    dimensions by degree and their sum.  Hom(M, C) is the graded dual of M,
    so these must equal M's graded dimensions; `cli verify` checks that on
    random modules.  No module structure is kept."""

    __slots__ = ("dims_by_degree", "total_dim")

    def __init__(self, dims_by_degree: dict, total_dim: int):
        self.dims_by_degree, self.total_dim = dims_by_degree, total_dim

    def describe(self) -> dict:
        return {
            "dims_by_degree": {str(k): v for k, v in sorted(self.dims_by_degree.items())},
            "total_dim": self.total_dim,
        }


def hom_into_C(pres: GradedPresentation, trunc: int) -> HomIntoCReport:
    """Dimensions of Hom_A(M, C) for a presented module M, read off
    PresentationModel.

    Hom(A e_v<del>, C) is the injective I(v) (paths out of v), so Hom(M, C)
    is the degreewise kernel of the transposed presentation matrix: per
    (degree, vertex), the annihilator of the relation image, dual to the
    classes of the model's block.  The dimension in degree d is
    model.dim(d), read for the degrees from the lowest generator degree
    through the truncation past the lowest degree of all.
    """
    model = PresentationModel(pres, trunc)
    gen_degs = [d for _, d in model.pres.generators] or [0]
    rel_degs = [d for _, d in model.pres.relations]
    d_hi = trunc + min(gen_degs + rel_degs)
    dims_by_degree = {d: n for d in range(min(gen_degs), d_hi + 1) if (n := model.dim(d))}
    return HomIntoCReport(dims_by_degree, sum(dims_by_degree.values()))


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


class LocalCohReport(Record):
    __slots__ = ("index", "gldim", "dims", "stabilized_at", "max_degree", "twist_sigma",
                 "twist_note", "cycle_products", "field", "side")

    def __init__(self, index: int, gldim: int, dims: dict, stabilized_at: dict, max_degree: int,
                 twist_sigma: tuple | None, twist_note: str, cycle_products: dict, field: Field,
                 side: str = "left"):
        self.index, self.gldim, self.max_degree = index, gldim, max_degree
        self.dims = dims                    # (u, w, ell) -> stabilized dimension
        self.stabilized_at = stabilized_at  # (u, ell) -> first stage with all later transitions iso
        self.twist_sigma, self.twist_note, self.cycle_products = twist_sigma, twist_note, cycle_products
        self.field, self.side = field, side

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
    In the degrees read (d = -ell - n) a stage block is the whole space on
    its own labels, so its dimension is a path count (`_stage_labels`), and
    a transition is a label bijection exactly when the counts say so
    (`_uncertified`).  The vertex twist sigma is read off the degree-0
    slice and checked against the path coalgebra in every degree.  Where
    sigma fixes every vertex, the cycle products of the two one-sided
    module structures of the stage-m_max blocks are counted off the same
    path counts (`_cycle_products`); each is 1 where it is defined.  No
    path, path table, presentation, label list, vector or matrix is built.
    """
    fld = fld or Field(0)
    rep_q = opposite(quiver) if side == "right" else quiver
    window_length(rep_q)  # gate check
    if i not in (0, 1):
        # each stage has a two-term resolution, so Ext^i vanishes for i >= 2
        raise ValueError(f"index must be 0 or 1, got {i}")
    n = 0 if not rep_q.arrows else 1
    ell_max = m_max - n - 1
    if ell_max < 0:
        raise StabilizationError("m_max too small for any stabilized degree",
                                 f"increase m_max to at least {n + 2}")
    vs = rep_q.vertices
    counts = path_count_matrices(rep_q, m_max)
    rows = [[[(t, c) for t, c in enumerate(row) if c] for row in mat] for mat in counts]
    cols = [[[(s, c) for s, row in enumerate(mat) if (c := row[t])] for t in vs] for mat in counts]
    # a label whose stage path ends at x has one image per arrow out of x
    images = [len(rep_q.arrows_from(x)) for x in vs]
    dims = {}
    stabilized_at = {}
    for u in vs:
        for ell in range(ell_max + 1):
            d = -ell - n
            birth = max(1, -d)
            if birth + 1 > m_max:
                raise StabilizationError(
                    f"degree {ell} needs stages beyond m_max", f"increase m_max beyond {m_max}")
            if i:
                chain = [_stage_labels(rows, cols, u, d, m, trunc) for m in range(birth, m_max + 1)]
                if failed := _uncertified(chain, images):
                    raise StabilizationError(
                        f"colimit piece (u={u + 1}, w={min(failed) + 1}, degree {ell}) did not stabilize",
                        f"increase m_max beyond {m_max} or truncation beyond {trunc}")
                last = chain[-1]
            else:
                # every stage has the same labels (0, y), y a path w -> u of length d, and every move is the identity
                last = {(w, u): c for w, c in cols[d][u]} if 0 <= d <= trunc else {}
            for (w, _), c in sorted(last.items()):
                dims[(u, w, ell)] = dims.get((u, w, ell), 0) + c
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
        cycle_products = _cycle_products(rep_q, fld, n, m_max, trunc, rows, cols, images)
    return LocalCohReport(i, n, dims, stabilized_at, ell_max, twist_sigma, twist_note,
                          cycle_products, fld, side)


def _stage_labels(rows: list, cols: list, u: int, d: int, m: int, trunc: int) -> dict:
    """{(w, x): number} of the index-1 labels of the colimit pieces (u, w) at
    stage m in degree d whose stage path ends at x: N_m[u][x] N_(m+d)[w][x]
    (docs/conventions.md), none when m + d > trunc.  rows[l][s] and
    cols[l][t] list the nonzero path counts N_l[s][t] by row and column."""
    k = m + d
    return {(w, x): a * b for x, a in rows[m][u] for w, b in cols[k][x]} if k <= trunc else {}


def _uncertified(chain: list, images: list) -> set:
    """The targets w of the pieces with a move along `chain` (from
    `_stage_labels`) that is no label bijection: with another number of
    labels, or a label at x moved to images[x] != 1 (docs/conventions.md)."""
    sizes = []
    for stage in chain:
        sizes.append(size := {})
        for (w, _), c in stage.items():
            size[w] = size.get(w, 0) + c
    last = sizes[-1]
    failed = {w for size in sizes[:-1] for w in size.keys() | last.keys() if size.get(w) != last.get(w)}
    return failed.union(w for stage in chain[:-1] for w, x in stage if images[x] != 1)


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


def _cycle_products(quiver, fld, n, m_max, trunc, rows, cols, images) -> dict:
    """{cycle label: fld.one} for each cycle whose right-route and left-route
    composites through the stage-m_max blocks are defined, counted off the
    path counts `rows` and `cols` and the out-degrees `images` as
    `local_cohomology` holds them (docs/conventions.md, "Cycle products,
    counted").

    A route is defined when every block it passes through has one label and
    every step sends the one label onto the next; each step is then a 0/1
    count equal to 1, so the ratio of the two routes is 1.  A cycle needs
    len(cyc) + n + 1 stages, or it gets no entry.
    """
    def count(u, d, w, m=m_max, weight=None):
        # the labels of piece (u, w) at stage m in degree d, each weighted by weight[x],
        # x the end of its stage path
        return sum(c * (weight[x] if weight else 1)
                   for (v, x), c in _stage_labels(rows, cols, u, d, m, trunc).items() if v == w)

    out = {}
    for cyc in simple_cycles(quiver):
        d0 = -len(cyc) - n
        if -d0 + 1 > m_max:
            continue
        u0 = quiver.arrows[cyc[0]].source
        arrows = [quiver.arrows[b] for b in cyc]
        # right route: within summand u0, arrow actions move (d, t(b)) -> (d+1, s(b)); the
        # one label has one image, inside the truncation once the next block has a label
        steps = [c for k, a in enumerate(reversed(arrows))
                 for c in (count(u0, d0 + k, a.target), count(u0, d0 + k + 1, a.source))]
        # left route: across summands, right multiplication by b moves summand s(b) to
        # t(b); a label whose stage path is b q, q of length m_max - 1 from t(b), has one
        # image per arrow out of t(q), and any other label has none
        steps += [c for k, a in enumerate(arrows)
                  for c in (count(a.source, d0 + k, u0), count(a.target, d0 + k + 1, u0),
                            count(a.target, d0 + k + 1, u0, m_max - 1, images))]
        if all(c == 1 for c in steps):
            out["-".join(a.label for a in arrows)] = fld.one
    return out


def simple_cycles(quiver: Quiver) -> list:
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
