"""Reference constructions on representations, presentations and path
counts that only the tests need.

The second half holds code that no command reaches and that the package
therefore no longer ships: minimalization, the dual-resolution exactness
table, the module structure of Ext against A, Ext bases, and a few small
builders.  `tests/fixtures/engine_outputs.json` pins the output of most of
them, so they are kept as they were.

Imported by test modules as `from rep_helpers import ...` (pytest puts
`tests/` on the import path).
"""

from __future__ import annotations

import functools
import random
import sys
from collections import Counter
from fractions import Fraction

from quiverhom import cli, homology, regularity, repmod
from quiverhom.exactlin import Field, Kernel, Matrix, Quotient, _echelon, rank
from quiverhom.homology import (
    ExtReport,
    PresentationModel,
    _Block,
    _graded_rep,
    _induced_map,
    _left_mult,
    _push,
    ext_model,
    free_diff_matrix,
    free_term_basis,
)
from quiverhom.pathcoalg import AlgElement, convolve
from quiverhom.quiver import Path, Quiver, trivial_path
from quiverhom.repmod import (
    GradedPresentation,
    Rep,
    VertexTwist,
    _check_vertex,
    arrow_ends,
    commutation_matrix,
    hom_space,
    presentation_of_rep,
)


def is_normal_scalar(fld, x) -> bool:
    """The strict normal form of a scalar of `fld`: over Q an int, or a
    Fraction whose denominator exceeds 1 (an integral Fraction fails); over
    F_p an int in [0, p)."""
    p = fld.characteristic
    if p:
        return type(x) is int and 0 <= x < p
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def direct_sum(m: Rep, n: Rep) -> Rep:
    """M (+) N, with M's basis first at every vertex."""
    if m.quiver != n.quiver or m.side != n.side:
        raise ValueError("incompatible summands")
    f = m.field
    dims = [m.dims[v] + n.dims[v] for v in m.quiver.vertices]
    maps = []
    for ai, a in enumerate(m.quiver.arrows):
        dom, cod = arrow_ends(m.side, a)
        top = m.maps[ai].hstack(Matrix.zeros(f, m.dims[cod], n.dims[dom]))
        bottom = Matrix.zeros(f, n.dims[cod], m.dims[dom]).hstack(n.maps[ai])
        maps.append(vstack(top, bottom))
    return Rep(m.quiver, m.side, f, dims, maps)


def assert_isomorphic(m: Rep, n: Rep, attempts: int = 64) -> None:
    """Assert M ~= N by exhibiting an invertible morphism M -> N.

    Tries seeded random integer combinations of a Hom(M, N) basis until one
    is invertible at every vertex.  A failure only says that none was found;
    it is no proof that M and N are not isomorphic.
    """
    assert m.side == n.side and m.dims == n.dims, (m.side, m.dims, n.side, n.dims)
    basis = hom_space(m, n)
    rng = random.Random(20240901)
    span = 4 * m.total_dim + 8
    for _ in range(attempts):
        coeffs = [m.field.of(rng.randint(-span, span)) for _ in basis]
        if all(rank(sum((mor[v].scale(c) for c, mor in zip(coeffs, basis)),
                        Matrix.zeros(m.field, n.dims[v], m.dims[v]))) == m.dims[v]
               for v in m.quiver.vertices):
            return
    raise AssertionError(f"no invertible morphism among {attempts} combinations of "
                         f"a {len(basis)}-dimensional Hom(M, N)")


def count_presentations(monkeypatch) -> Counter:
    """Wrap `presentation_of_rep` in every package module that binds it; the
    Counter returned counts its calls by the name of the calling function."""
    calls = Counter()
    real = repmod.presentation_of_rep

    def counting(*args, **kwargs):
        calls[sys._getframe(1).f_code.co_name] += 1
        return real(*args, **kwargs)

    for module in (repmod, homology, regularity, cli):
        if getattr(module, "presentation_of_rep", None) is real:
            monkeypatch.setattr(module, "presentation_of_rep", counting)
    return calls


def adjacency_powers(quiver, up_to: int) -> list:
    """N_0 .. N_up_to, N_l[s][t] the number of paths s -> t of length l, as
    plain products of the adjacency matrix (independent of the package's
    cached count sequence)."""
    adj = quiver.adjacency_counts()
    n = quiver.vertex_count
    powers = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for _ in range(up_to):
        powers.append([[sum(powers[-1][i][k] * adj[k][j] for k in range(n)) for j in range(n)]
                       for i in range(n)])
    return powers


def path_action(rep: Rep, p: Path) -> Matrix:
    """Composite of arrow maps along a path, first-traversed arrow first."""
    f = rep.field
    if rep.side == "left":
        cur = Matrix.identity(f, rep.dims[p.source])
        for ai in p.arrows:
            cur = rep.maps[ai] * cur
        return cur
    cur = Matrix.identity(f, rep.dims[p.target])
    for ai in reversed(p.arrows):
        cur = rep.maps[ai] * cur
    return cur


def ext1_via_presentation(m: Rep, n: Rep) -> int:
    """dim Ext^1(M, N) for left modules, as the cokernel of Hom(F0, N) ->
    Hom(F1, N) over the presentation F1 -> F0 of M (`presentation_of_rep`),
    using Hom(A e_v, N) = N_v: each relation's path entries act on N.  This
    route reads the presentation's differential against the maps of N, not
    the commutation matrix of (M, N)."""
    f = m.field
    pres = presentation_of_rep(m)
    gens0, gens1, entries = pres.generators, pres.relations, pres.entries

    def offsets(gens):
        offs, total = [], 0
        for gv, _ in gens:
            offs.append(total)
            total += n.dims[gv]
        return offs, total

    offs0, tot0 = offsets(gens0)
    rows = []
    for r, (rv, _) in enumerate(gens1):
        for b in range(n.dims[rv]):
            row = [f.zero] * tot0
            for g, (gv, _) in enumerate(gens0):
                for path, coeff in entries[g][r].coeffs.items():
                    act = path_action(n, path)
                    for c in range(n.dims[gv]):
                        row[offs0[g] + c] = f.add(row[offs0[g] + c], f.mul(coeff, act[b, c]))
            rows.append(row)
    big = Matrix(f, rows, cols=tot0) if rows else Matrix.zeros(f, 0, tot0)
    return big.rows - rank(big)


# ----------------------------------------------------------------------
# code the package no longer ships


def is_zero_matrix(m: Matrix) -> bool:
    return not any(map(any, m.entries))


def vstack(top: Matrix, bottom: Matrix) -> Matrix:
    if top.cols != bottom.cols:
        raise ValueError("vstack: col mismatch")
    return Matrix._normalized(top.field, top.entries + bottom.entries, top.cols)


def dual_idempotent(field: Field, v: int) -> AlgElement:
    """The vertex idempotent e_v of A = C*, the dual of the trivial path."""
    return AlgElement.dual_path(field, trivial_path(v))


def dual_unit(quiver: Quiver, field: Field) -> AlgElement:
    """The counit of C, i.e. the sum of all vertex idempotents."""
    return AlgElement(field, {trivial_path(v): field.one for v in quiver.vertices})


def identity_twist(quiver: Quiver) -> VertexTwist:
    return VertexTwist(
        tuple(range(quiver.vertex_count)),
        tuple(range(len(quiver.arrows))),
        tuple(1 for _ in quiver.arrows),
    )


def twist_inverse(t: VertexTwist, field: Field) -> VertexTwist:
    n = len(t.sigma)
    inv_sigma = [0] * n
    for v, w in enumerate(t.sigma):
        inv_sigma[w] = v
    inv_arrow = [0] * len(t.arrow_map)
    for a, b in enumerate(t.arrow_map):
        inv_arrow[b] = a
    inv_scalars = [None] * len(t.arrow_map)
    for a, b in enumerate(t.arrow_map):
        inv_scalars[b] = field.inv(field.of(t.scalars[a]))
    return VertexTwist(tuple(inv_sigma), tuple(inv_arrow), tuple(inv_scalars))


def zero_rep(quiver: Quiver, side: str, field: Field | None = None) -> Rep:
    field = field or Field(0)
    dims = [0] * quiver.vertex_count
    maps = [Matrix.zeros(field, 0, 0) for _ in quiver.arrows]
    return Rep(quiver, side, field, dims, maps)


def truncated_free(quiver: Quiver, vertex: int, n: int, side: str = "left", field: Field | None = None) -> GradedPresentation:
    """Rank-one free presentation at a vertex: one generator, no relations.

    Materializable to degree n through the homology module.
    """
    field = field or Field(0)
    _check_vertex(quiver, vertex)
    return GradedPresentation(quiver, side, field, ((vertex, 0),), (), ((),))


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


def kernel_block(model: PresentationModel, d: int, v: int) -> _Block:
    """The kernel of F1 -> F0 in degree d, on the F1 labels ending at v;
    with no F0 label there the block is all of its own labels."""
    labels = free_term_basis(model.table, model.pres.relations, d, v)
    other = free_term_basis(model.table, model.pres.generators, d, v) if labels else ()
    if other:
        return _Block(labels, Kernel(free_diff_matrix(model.fld, other, labels, model.pres.entries)))
    return _Block(labels, Kernel.whole(model.fld, len(labels)))


def ext_rep(m: Rep, i: int, trunc: int) -> Rep:
    """Ext^i(M, A) for i = 0 or 1 as a graded module on the side opposite
    M's, degreewise to `trunc`: the quotient blocks (i = 1) or kernel blocks
    (i = 0) of ext_model(presentation_of_rep(m), trunc), with arrows acting
    by left multiplication on labels.  It certifies nothing; ext_vs_algebra
    does that for the dimensions."""
    out_side = "right" if m.side == "left" else "left"
    if m.is_zero():
        return zero_rep(m.quiver, out_side, m.field)
    model = ext_model(presentation_of_rep(m), trunc)
    d_min = min(d for _, d in model.pres.generators + model.pres.relations)
    d_max = d_min + trunc
    space = Quotient if i else Kernel
    dims = {(d, w): model.dim(d, w, space) for d in range(d_min, d_max + 1) for w in m.quiver.vertices}
    # _graded_rep asks only for the images of classes, so a block is built only where it has some
    get = model.block if i else functools.cache(functools.partial(kernel_block, model))

    def image(ai, dom, cod, d):
        if not dims.get((d + 1, cod)):
            return None
        return d + 1, _induced_map(m.field, get(d, dom), get(d + 1, cod), _left_mult(model.quiver, ai))

    fibers = {w: [(d, j) for d in range(d_min, d_max + 1) for j in range(dims[(d, w)])]
              for w in m.quiver.vertices}
    return _graded_rep(m.quiver, out_side, m.field, fibers, image)


def ext_fd_basis(m: Rep, n: Rep, i: int) -> tuple:
    """(report, basis) of Ext^i(M, N) for i = 0 or 1: degree 0 has hom
    morphisms (per-vertex matrix tuples) and degree 1 cocycle
    representatives (per-arrow matrix tuples, the components of the
    commutation defect) spanning the cokernel: the `Quotient`
    representatives, so each has a single nonzero entry."""
    f = m.field
    q = m.quiver
    if i == 0:
        basis = hom_space(m, n)
        return ExtReport("ext_fd", 0, len(basis), field=f,
                         note="basis: hom morphisms, one matrix per vertex"), basis
    quot = Quotient(commutation_matrix(m, n))
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
    return ExtReport("ext_fd", 1, len(cocycles), field=f,
                     note="basis: cocycle representatives, one matrix per arrow"), cocycles


def dual_resolution_check(pres: GradedPresentation, trunc: int, depth: int) -> dict:
    """Degreewise exactness of the rationalized dual of a free resolution.

    Extends the presentation F1 -> F0 -> M -> 0 by the kernel cover F2 (free,
    by heredity), then verifies through the requested degree that the graded
    dual sequence 0 -> M* -> F0* -> F1* -> F2* -> 0 is exact, i.e. that the
    ranks tie out degreewise.  The kernel of F1 -> F0 is taken per (degree,
    target vertex) from `kernel_block`, so rank_d1 is F1_d minus its
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
    kernels = {(d, v): kernel_block(model, d, v) for d in range(k_lo, depth + 2) for v in q.vertices}
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
        for c, _ in _echelon(Matrix.from_columns(f, pushes + kern, len(blk.labels))):
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
