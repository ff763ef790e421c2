"""Reference constructions on representations, presentations and path
counts that only the tests need.

The second half holds code that no command reaches and that the package
therefore no longer ships: minimalization, the dual-resolution exactness
table, the module structures of Ext against A, of the rational part and of
Hom into C (on the graded-Rep assembly `_graded_rep` and the arrow actions
of a model), Ext bases, and a few small builders.  `tests/fixtures/engine_outputs.json` pins the output of most of
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
    _induced_map,
    _label_matrix,
    _left_mult,
    _push,
    _stage_presentation,
    ext_model,
    free_diff_matrix,
    free_term_basis,
    rational_part,
    simple_cycles,
)
from quiverhom.pathcoalg import AlgElement, convolve
from quiverhom.quiver import Path, Quiver, compose, enumerate_paths, opposite, trivial_path
from quiverhom.repmod import (
    GradedPresentation,
    Rep,
    VertexTwist,
    _check_vertex,
    _reverse_path,
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
    n = quiver.vertex_count
    adj = [[0] * n for _ in range(n)]
    for a in quiver.arrows:
        adj[a.source][a.target] += 1
    powers = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for _ in range(up_to):
        powers.append([[sum(powers[-1][i][k] * adj[k][j] for k in range(n)) for j in range(n)]
                       for i in range(n)])
    return powers


def count_rows_and_columns(quiver, up_to: int) -> tuple:
    """The nonzero entries of adjacency_powers(quiver, up_to) by row and by
    column, as `homology._stage_labels` reads path counts: rows[l][s] lists
    (t, N_l[s][t]) and cols[l][t] lists (s, N_l[s][t])."""
    powers = adjacency_powers(quiver, up_to)
    vs = range(quiver.vertex_count)
    return ([[[(t, mat[s][t]) for t in vs if mat[s][t]] for s in vs] for mat in powers],
            [[[(s, mat[s][t]) for s in vs if mat[s][t]] for t in vs] for mat in powers])


def bijects(move, src, dst) -> bool:
    """Whether the label move `move` sends each label of `src` to exactly
    one label of `dst`, distinct labels to distinct ones: a permutation
    matrix.  The reference for the colimit's counted transition verdict
    (`homology._uncertified`), read off the labels themselves."""
    index, hit = {lab: k for k, lab in enumerate(dst)}, set()
    for lab in src:
        ks = [k for img in move(lab) if (k := index.get(img)) is not None]
        if len(ks) != 1 or ks[0] in hit:
            return False
        hit.add(ks[0])
    return True


def arrow_path(quiver: Quiver, ai: int) -> Path:
    a = quiver.arrows[ai]
    return Path(a.source, a.target, (ai,))


def relation_move(quiver: Quiver, src: GradedPresentation, dst: GradedPresentation, e: Path):
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
        x_op = _reverse_path(arrow_path(quiver, pe.arrows[-1]))
        hits.setdefault(index[Path(pe.source, x_op.target, pe.arrows[:-1])], []).append((r2, x_op))
    return lambda lab: ((r2, compose(lab[1], x_op)) for r2, x_op in hits.get(lab[0], ()))


def route_product(fld, steps):
    """Product of the 1x1 maps along a route of (src, dst, move) steps, each the
    count of dst[0] among the moves of src[0], or None once a label list is
    not of length one or a map vanishes.  `steps` is consumed lazily."""
    val = fld.one
    for src, dst, move in steps:
        if len(src) != 1 or len(dst) != 1:
            return None
        coord = fld.of(sum(lab == dst[0] for lab in move(src[0])))
        if fld.is_zero(coord):
            return None
        val = fld.mul(val, coord)
    return val


def cycle_products_by_routes(quiver: Quiver, fld, n: int, m_max: int, trunc: int) -> dict:
    """Ratio of right-route to left-route composites around each cycle, walked
    on the labels of the stage-m_max presentations and their moves.  The
    reference for the counted `homology._cycle_products`."""
    out = {}
    q_op = opposite(quiver)
    # m_max may exceed the truncation of the stage labels by one
    table, op_table = enumerate_paths(quiver, m_max), enumerate_paths(q_op, trunc)
    stages = [_stage_presentation(quiver, u, m_max, fld, table) for u in quiver.vertices]

    def labels(u, d, w):
        # the labels of Hom(F1, A) of stage m_max of summand u in degree d, ending at w
        return free_term_basis(op_table, tuple((v, -dr) for v, dr in stages[u].relations), d, w)

    for cyc in simple_cycles(quiver):
        d0 = -len(cyc) - n
        if -d0 + 1 > m_max:
            continue
        u0 = quiver.arrows[cyc[0]].source
        # right route: within summand u0, arrow actions move (d, t(b)) -> (d+1, s(b))
        kappa = route_product(fld, (
            (labels(u0, d0 + k, quiver.arrows[b].target),
             labels(u0, d0 + k + 1, quiver.arrows[b].source),
             _left_mult(arrow_path(q_op, b)))
            for k, b in enumerate(reversed(cyc))))
        if kappa is None:
            continue
        # left route: across summands, right multiplication by b on the
        # quotient modules moves summand s(b) to t(b)
        mu = route_product(fld, (
            (labels(quiver.arrows[b].source, d0 + k, u0),
             labels(quiver.arrows[b].target, d0 + k + 1, u0),
             relation_move(quiver, stages[quiver.arrows[b].source],
                           stages[quiver.arrows[b].target], arrow_path(quiver, b)))
            for k, b in enumerate(cyc)))
        if mu is not None:
            label = "-".join(quiver.arrows[ai].label for ai in cyc)
            out[label] = fld.mul(kappa, fld.inv(mu))
    return out


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
            return () if hit is None else (((hit[0], r), row[key[1]]) for r, row in enumerate(hit[1].entries))

        return _label_matrix(fld, fibers[cod], fibers[dom], images)

    maps = [arrow_matrix(ai, *arrow_ends(side, a)) for ai, a in enumerate(quiver.arrows)]
    return Rep(quiver, side, fld, [len(fibers[v]) for v in quiver.vertices], maps)


def arrow_action(model: PresentationModel, d: int, ai: int) -> Matrix:
    """Left multiplication by arrow ai: block (d, source) -> (d+1, target)."""
    a = model.quiver.arrows[ai]
    return _induced_map(model.fld, model.block(d, a.source), model.block(d + 1, a.target),
                        _left_mult(arrow_path(model.quiver, ai)))


def stacked_arrow_actions(model: PresentationModel, d: int, v: int, k: int) -> Matrix:
    """Stacked matrix of all length-k path composites out of block (d, v),
    each the product of the arrow actions along the path: the reference for
    `homology._kill_matrix`."""
    f = model.fld
    blk_dim = model.dim(d, v)
    rows = []
    for p in model.table.paths(source=v, length=k):
        cur = Matrix.identity(f, blk_dim)
        for step, ai in enumerate(p.arrows):
            cur = arrow_action(model, d + step, ai) * cur
        rows.extend(cur.entries)
    return Matrix(f, rows, cols=blk_dim)


def rational_part_rep(pres: GradedPresentation, trunc: int) -> Rep:
    """The rational part of rational_part(pres, trunc) as a graded module on
    the side of `pres`: per (degree, vertex), the whole block where the
    certificate is exact, else the classes that every path of the longest
    length read kills, with arrows acting by left multiplication.  Raises
    as rational_part does."""
    report = rational_part(pres, trunc)
    cert = report.certificate
    model = PresentationModel(pres, trunc)
    f = model.fld
    gen_degrees = [d for _, d in model.pres.generators]
    d_lo = min(gen_degrees) if gen_degrees else 0
    d_hi = trunc + (min(gen_degrees) if gen_degrees else 0)
    exact = cert["mode"].startswith("exact")
    torsion = {d: {v: Kernel.whole(f, n) if exact else Kernel(stacked_arrow_actions(model, d, v, d_hi - d))
                   for v in model.quiver.vertices if (n := model.dim(d, v))}
               for d in range(d_lo, cert["certified_through"] + 1)}
    # drop the (certified-zero) tail so the assembled carrier is exactly Gamma
    torsion = {d: pv for d, pv in torsion.items()
               if d < cert["zero_from_degree"] or report.dims_by_degree.get(d, 0)}

    def image(ai, dom, cod, d):
        dst = torsion.get(d + 1, {}).get(cod)
        if dst is None:
            return None
        action = arrow_action(model, d, ai)
        try:
            cols = [dst.coordinates(action.apply(vec)) for vec in torsion[d][dom].basis]
        except ValueError:
            raise AssertionError("torsion not closed under the radical action") from None
        return d + 1, Matrix.from_columns(f, cols, dst.dim)

    fibers = {v: [(d, j) for d in sorted(torsion) if v in torsion[d] for j in range(torsion[d][v].dim)]
              for v in model.quiver.vertices}
    return _graded_rep(pres.quiver, pres.side, f, fibers, image)


def hom_into_C_rep(pres: GradedPresentation, trunc: int) -> Rep:
    """Hom_A(M, C) for the presented M as a graded module on the other side,
    in the degrees hom_into_C reads: per (degree, vertex) the dual of the
    model's block, on which an arrow acts by the transpose of the model's
    left action one degree down."""
    model = PresentationModel(pres, trunc)
    gen_degs = [d for _, d in model.pres.generators] or [0]
    rel_degs = [d for _, d in model.pres.relations]
    d_lo = min(gen_degs)
    degrees = range(d_lo, trunc + min(gen_degs + rel_degs) + 1)
    fibers = {v: [(d, j) for d in degrees for j in range(model.dim(d, v))] for v in model.quiver.vertices}

    def image(ai, dom, cod, d):
        if d == d_lo:
            return None
        return d - 1, arrow_action(model, d - 1, ai).transpose()

    out_side = "right" if pres.side == "left" else "left"
    return _graded_rep(pres.quiver, out_side, model.fld, fibers, image)


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
        return d + 1, _induced_map(m.field, get(d, dom), get(d + 1, cod), _left_mult(arrow_path(model.quiver, ai)))

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
                move = _left_mult(arrow_path(q, ai))
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
