"""Finite-dimensional nilpotent quiver representations with a module-side flag.

One data structure carries four categorical guises.  The dictionary is fixed
once, here, and validated end to end by the worked two-vertex example of the
regularity test suite:

  side="left"   left A-module  == right C-comodule.
      Fiber at v models e_v . M; the arrow a: s -> t acts along its
      orientation, fiber(s) -> fiber(t), matrix shape (dim_t, dim_s).

  side="right"  right A-module == left C-comodule.
      Fiber at v models M . e_v; the arrow a: s -> t acts against its
      orientation, fiber(t) -> fiber(s), matrix shape (dim_s, dim_t).

Local nilpotency (some power of the radical kills the module) is exactly the
comodule/rationality condition; the nil bound is computed for every Rep built
from new matrices, never trusted from the caller.  Only linear duals and the
conjugates that `graded_form` and `random_graded_rep` make carry a bound
over: J^k M = 0 exactly when M* J^k = 0, and a fiberwise base change keeps it.
"""

from __future__ import annotations

from .exactlin import Field, Kernel, Matrix, _echelon, _integral, echelon_rows, inverse
from .pathcoalg import AlgElement
from .quiver import Path, Quiver, Record, enumerate_paths, opposite, trivial_path


class NotNilpotentError(ValueError):
    """Raised when a cycle acts invertibly: the data is no comodule."""


class GradingError(ValueError):
    """Raised when no path-length grading compatible with the maps is found."""


def arrow_ends(side: str, arrow) -> tuple:
    """(domain vertex, codomain vertex) of the arrow's action on the given side."""
    if side == "left":
        return arrow.source, arrow.target
    if side == "right":
        return arrow.target, arrow.source
    raise ValueError(f"unknown side {side!r}")


class Rep:
    """A finite-dimensional nilpotent representation with a side flag."""

    __slots__ = ("quiver", "side", "field", "dims", "maps", "nil_bound")

    def __init__(self, quiver: Quiver, side: str, field: Field, dims, maps, _carried_bound=None):
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        self.quiver = quiver
        self.side = side
        self.field = field
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != quiver.vertex_count:
            raise ValueError("dims length must equal vertex count")
        if any(d < 0 for d in self.dims):
            raise ValueError("negative dimension")
        maps = tuple(maps)
        if len(maps) != len(quiver.arrows):
            raise ValueError("one matrix per arrow required")
        for ai, m in enumerate(maps):
            dom, cod = arrow_ends(side, quiver.arrows[ai])
            if (m.rows, m.cols) != (self.dims[cod], self.dims[dom]):
                raise ValueError(
                    f"arrow {quiver.arrows[ai].label!r}: expected shape "
                    f"{self.dims[cod]}x{self.dims[dom]}, got {m.rows}x{m.cols}"
                )
        self.maps = maps
        # set only by linear_dual, graded_form and random_graded_rep, from a Rep that ran _nil_bound
        self.nil_bound = _nil_bound(self) if _carried_bound is None else _carried_bound

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def __repr__(self):
        return f"Rep(side={self.side}, dims={self.dims})"

    def describe(self) -> dict:
        return {"side": self.side, "dims": list(self.dims), "nil_bound": self.nil_bound}


def _nil_bound(rep: Rep) -> int:
    """Least m with J^m M = 0, by propagating a basis of J^m M fiber by fiber.

    Each arrow map is read once as sparse columns, and a basis vector is a
    dict {coordinate: nonzero}.  Where every image arriving at a fiber is a
    nonzero multiple of one coordinate vector, those coordinate vectors are
    the next basis there, found without elimination (distinct coordinate
    vectors are independent); otherwise one elimination of the images gives
    it.  Path-basis models and simples never leave the first case.  Only
    the span is read, so the forward elimination's rows are the next basis.
    """
    f = rep.field
    q = rep.quiver
    arrows = []
    for ai, a in enumerate(q.arrows):
        dom, cod = arrow_ends(rep.side, a)
        if rep.dims[dom] and rep.dims[cod]:
            columns = [{} for _ in range(rep.dims[dom])]
            for i, row in enumerate(rep.maps[ai].entries):
                for j, x in enumerate(row):
                    if x:
                        columns[j][i] = x
            arrows.append((dom, cod, columns))
    basis = {v: [{i: f.one} for i in range(rep.dims[v])] for v in q.vertices}
    m = 0
    current = rep.total_dim
    while current > 0:
        images = {v: [] for v in q.vertices}
        for dom, cod, columns in arrows:
            out = images[cod]
            for vec in basis[dom]:
                img = _apply_columns(f, columns, vec)
                if img:
                    out.append(img)
        new_total = 0
        for v, imgs in images.items():
            if all(len(img) == 1 for img in imgs):
                basis[v] = [{i: f.one} for i in sorted({i for img in imgs for i in img})]
            else:
                basis[v] = [row for _, row in echelon_rows(f, imgs)]
            new_total += len(basis[v])
        m += 1
        if new_total >= current and new_total > 0:
            raise NotNilpotentError(
                "some cycle acts non-nilpotently: not a rational module / comodule"
            )
        current = new_total
        if m > rep.total_dim + 1:
            raise NotNilpotentError(
                "radical action does not reach zero: not a rational module / comodule"
            )
    return m


def _apply_columns(f: Field, columns: list, vec: dict) -> dict:
    """The sparse image of the sparse vector vec under the map whose sparse
    columns are given, with zero entries dropped; for a multiple of one
    coordinate vector, the column itself, which spans the same line."""
    if len(vec) == 1:
        return columns[next(iter(vec))]
    out = {}
    for j, c in vec.items():
        for i, x in columns[j].items():
            out[i] = out.get(i, 0) + c * x
    return {i: x for i, x in zip(out, f.normal(out.values())) if x}


def rep_from_matrices(quiver: Quiver, dims, arrow_maps, side: str, field: Field | None = None) -> Rep:
    """Validated Rep with computed nil bound.

    arrow_maps may be Matrix instances or nested lists, one per arrow in
    quiver order.  Raises NotNilpotentError when a cycle composite fails to
    be nilpotent.
    """
    field = field or Field(0)
    mats = [raw if isinstance(raw, Matrix) else Matrix(field, raw) for raw in arrow_maps]
    return Rep(quiver, side, field, dims, mats)


def _check_vertex(quiver: Quiver, vertex: int) -> None:
    """Reject a 0-based vertex outside the quiver, naming it 1-based."""
    if not 0 <= vertex < quiver.vertex_count:
        raise ValueError(f"vertex {vertex + 1} out of range 1..{quiver.vertex_count}")


def simple(quiver: Quiver, vertex: int, side: str = "left", field: Field | None = None) -> Rep:
    """The one-dimensional simple at a vertex, all arrows acting by zero."""
    field = field or Field(0)
    _check_vertex(quiver, vertex)
    dims = [1 if v == vertex else 0 for v in quiver.vertices]
    maps = []
    for a in quiver.arrows:
        dom, cod = arrow_ends(side, a)
        maps.append(Matrix.zeros(field, dims[cod], dims[dom]))
    return Rep(quiver, side, field, dims, maps)


def _path_basis(quiver: Quiver, field: Field, paths: list) -> tuple:
    """(dims, maps) of the left module spanned by a list of paths: fibers by
    target, and arrow a sends p to a*p when that path is on the list."""
    fibers = {v: [] for v in quiver.vertices}
    index = {}
    for p in paths:
        index[p] = len(fibers[p.target])
        fibers[p.target].append(p)
    dims = [len(fibers[v]) for v in quiver.vertices]
    maps = []
    for ai, a in enumerate(quiver.arrows):
        m = [[field.zero] * dims[a.source] for _ in range(dims[a.target])]
        for j, p in enumerate(fibers[a.source]):
            i = index.get(Path(p.source, a.target, p.arrows + (ai,)))
            if i is not None:
                m[i][j] = field.one
        maps.append(Matrix._normalized(field, tuple(map(tuple, m)), dims[a.source]))
    return dims, maps


def truncated_free_rep(quiver: Quiver, vertex: int, n: int, side: str = "left", field: Field | None = None) -> Rep:
    """The finite quotient (A e_v) / J^(n+1) (side="left"), or its mirror, as a Rep.

    Basis: the paths of length <= n out of v, fibers by target, arrows
    appending at the target end.  The right module e_v A / J^(n+1) is the
    left one over the opposite quiver: the paths into v, read reversed, with
    arrows prepending at the source end.
    """
    field = field or Field(0)
    _check_vertex(quiver, vertex)
    table = enumerate_paths(quiver, n)
    if side == "left":
        dims, maps = _path_basis(quiver, field, table.paths(source=vertex))
    else:
        dims, maps = _path_basis(opposite(quiver), field, [_reverse_path(p) for p in table.paths(target=vertex)])
    return Rep(quiver, side, field, dims, maps)


def truncated_injective(quiver: Quiver, vertex: int, n: int, side: str = "right", field: Field | None = None) -> Rep:
    """Degree <= n piece of the injective envelope of simple(vertex) on a side:
    the linear dual of the truncated free module on the other side.

    side="right" (a left C-comodule): basis are the paths with source
    `vertex`, fibers by target, arrows strip their own last step.
    side="left" is the arrow-reversed mirror (paths with target `vertex`,
    fibers by source, arrows strip their first step).  Socle is the simple.
    """
    return linear_dual(truncated_free_rep(quiver, vertex, n, "left" if side == "right" else "right", field))


def uniserial(quiver: Quiver, start: int, length: int, side: str = "left", field: Field | None = None) -> Rep:
    """Uniserial module following the unique outgoing walk from `start`: the
    truncated free module at `start` of that length.

    On the loop quiver with side="left" this is k[x]/x^length.  Requires
    `start` to be a vertex of the quiver, a length of at least 1 and each
    visited vertex to have exactly one arrow continuing the walk (in the
    opposite quiver for side="right").
    """
    _check_vertex(quiver, start)
    if length < 1:
        raise ValueError(f"length {length} below 1")
    walk_quiver = quiver if side == "left" else opposite(quiver)
    v = start
    for _ in range(length - 1):
        outs = walk_quiver.arrows_from(v)
        if len(outs) != 1:
            raise ValueError(f"vertex {v + 1} does not have a unique continuation")
        v = walk_quiver.arrows[outs[0]].target
    return truncated_free_rep(quiver, start, length - 1, side, field)


def _reverse_path(p: Path) -> Path:
    """The same arrows read in the opposite quiver."""
    return Path(p.target, p.source, tuple(reversed(p.arrows)))


def _commutation_rows(m: Rep, n: Rep) -> tuple:
    """(rows, unknowns) of the map (+)_v Hom(M_v, N_v) -> (+)_a Hom(M_tail, N_head)
    whose kernel is Hom(M, N) and cokernel Ext^1(M, N), each row a sparse
    row {unknown: nonzero normal scalar}.

    The unknowns are per-vertex dims_n[v] x dims_m[v] matrices f_v, flattened
    row-major in vertex order; the rows are the entries (r, c) of
    f_cod * A_a - B_a * f_dom, arrow by arrow.
    """
    f = m.field
    q = m.quiver
    offsets = {}
    total = 0
    for v in q.vertices:
        offsets[v] = total
        total += n.dims[v] * m.dims[v]
    rows = []
    for ai, a in enumerate(q.arrows):
        dom, cod = arrow_ends(m.side, a)
        if not (m.dims[dom] and n.dims[cod]):
            continue  # no rows
        a_cols = [{k: x for k, row in enumerate(m.maps[ai].entries) if (x := row[c])} for c in range(m.dims[dom])]
        for r, b_row in enumerate(n.maps[ai].entries):
            base = offsets[cod] + r * m.dims[cod]
            b_terms = [(offsets[dom] + k * m.dims[dom], f.neg(x)) for k, x in enumerate(b_row) if x]
            for c, a_col in enumerate(a_cols):
                row = {base + k: x for k, x in a_col.items()}
                for start, x in b_terms:
                    # a loop (dom = cod) may hit a cell the first sum set: add, normalized
                    idx = start + c
                    row[idx] = f.add(row[idx], x) if idx in row else x
                rows.append({j: x for j, x in row.items() if x} if dom == cod else row)
    return rows, total


def commutation_matrix(m: Rep, n: Rep) -> Matrix:
    """The dense view of `_commutation_rows`."""
    return Matrix.from_sparse(m.field, *_commutation_rows(m, n))


def _check_pair(m: Rep, n: Rep) -> None:
    if m.quiver is not n.quiver and m.quiver != n.quiver:
        raise ValueError("representations live on different quivers")
    if m.side != n.side:
        raise ValueError("side mismatch")


# no command calls it; it stays because bench/tracer.py binds it by name
def hom_space(m: Rep, n: Rep) -> list:
    """Basis of Hom(M, N): tuples of per-vertex matrices commuting with all arrows.

    Computed as the kernel of the commutation matrix; basis is canonical
    (echelon kernel of that matrix).
    """
    _check_pair(m, n)
    f = m.field
    out = []
    for vec in Kernel(commutation_matrix(m, n)).basis:
        comps = []
        offset = 0
        for v in m.quiver.vertices:
            block = tuple(
                vec[offset + r * m.dims[v]:offset + (r + 1) * m.dims[v]]
                for r in range(n.dims[v])
            )
            comps.append(Matrix._normalized(f, block, m.dims[v]))
            offset += n.dims[v] * m.dims[v]
        out.append(tuple(comps))
    return out


def hom_ext1_dims(m: Rep, n: Rep) -> tuple:
    """(dim Hom(M, N), dim Ext^1(M, N)): the nullity and the corank of the
    commutation rows, read off their one forward elimination."""
    _check_pair(m, n)
    rows, unknowns = _commutation_rows(m, n)
    r = len(echelon_rows(m.field, rows))
    return unknowns - r, len(rows) - r


def hom_dim(m: Rep, n: Rep) -> int:
    """dim Hom(M, N), from `hom_ext1_dims`."""
    return hom_ext1_dims(m, n)[0]


def linear_dual(m: Rep) -> Rep:
    """k-linear dual: side flipped, per-vertex dims kept, arrow maps transposed."""
    new_side = "right" if m.side == "left" else "left"
    return Rep(m.quiver, new_side, m.field, m.dims, tuple(mat.transpose() for mat in m.maps),
               _carried_bound=m.nil_bound)


class VertexTwist(Record):
    """A coalgebra automorphism datum: vertex permutation, arrow matching, scalars.

    sigma[v] is the image vertex, arrow_map[a] the image arrow index, and
    scalars[a] the nonzero coefficient attached to arrow a.
    """

    __slots__ = ("sigma", "arrow_map", "scalars")

    def __init__(self, sigma: tuple, arrow_map: tuple, scalars: tuple):
        self.sigma, self.arrow_map, self.scalars = sigma, arrow_map, scalars

    def validate(self, quiver: Quiver, field: Field) -> None:
        n = quiver.vertex_count
        if sorted(self.sigma) != list(range(n)):
            raise ValueError("sigma is not a vertex permutation")
        if sorted(self.arrow_map) != list(range(len(quiver.arrows))):
            raise ValueError("arrow_map is not an arrow permutation")
        for ai, a in enumerate(quiver.arrows):
            img = quiver.arrows[self.arrow_map[ai]]
            if img.source != self.sigma[a.source] or img.target != self.sigma[a.target]:
                raise ValueError(f"arrow {a.label!r} image incompatible with sigma")
            if field.is_zero(field.of(self.scalars[ai])):
                raise ValueError(f"zero scalar on arrow {a.label!r}")

    def is_identity_on_vertices(self) -> bool:
        return all(self.sigma[v] == v for v in range(len(self.sigma)))

    def order(self) -> int:
        k = 1
        perm = list(self.sigma)
        cur = perm
        while cur != list(range(len(perm))):
            cur = [perm[v] for v in cur]
            k += 1
        return k

    def describe(self) -> dict:
        return {
            "vertex_map": [v + 1 for v in self.sigma],
            "arrow_map": list(self.arrow_map),
            "scalars": [str(c) for c in self.scalars],
            "order": self.order(),
        }


def twist(m: Rep, t: VertexTwist) -> Rep:
    """Twisted representation: fiber at v becomes the old fiber at sigma(v) and
    arrow a acts by scalars[a] times the old action of arrow_map[a]."""
    t.validate(m.quiver, m.field)
    dims = [m.dims[t.sigma[v]] for v in m.quiver.vertices]
    maps = []
    for ai, a in enumerate(m.quiver.arrows):
        img = t.arrow_map[ai]
        maps.append(m.maps[img].scale(m.field.of(t.scalars[ai])))
    return Rep(m.quiver, m.side, m.field, dims, maps)


def euler_pairing(m: Rep, n: Rep) -> int:
    """The hereditary Euler form: sum of fiber products minus arrow terms.

    Equals dim Hom(M, N) - dim Ext^1(M, N); tails and heads follow the side
    convention of the representations.
    """
    if m.side != n.side:
        raise ValueError("side mismatch")
    q = m.quiver
    total = sum(m.dims[v] * n.dims[v] for v in q.vertices)
    for a in q.arrows:
        dom, cod = arrow_ends(m.side, a)
        total -= m.dims[dom] * n.dims[cod]
    return total


# ----------------------------------------------------------------------
# gradings


def _level_grading(m: Rep):
    q = m.quiver
    level = {}
    for start in q.vertices:
        if start in level:
            continue
        level[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for a in q.arrows:
                if a.source != v and a.target != v:
                    continue
                dom, cod = arrow_ends(m.side, a)
                if dom in level and cod in level:
                    if level[cod] != level[dom] + 1:
                        raise GradingError("no consistent vertex level function")
                elif dom in level:
                    level[cod] = level[dom] + 1
                    stack.append(cod)
                elif cod in level:
                    level[dom] = level[cod] - 1
                    stack.append(dom)
    shift = -min(level.values()) if level else 0
    return tuple(tuple(level[v] + shift for _ in range(m.dims[v])) for v in m.quiver.vertices)


def _chain_basis(m: Rep):
    """(degrees, per-fiber change of basis, its inverse) from a fiber-compatible
    chain basis of the total radical operator T; the degrees grade the new basis.

    T^k is the sum of the length-k path actions, so T^h = 0 at the nil bound
    h, and the kernels of T, ..., T^h (each built once) filter the module.
    Going down from height h, the new tops at height k are the
    fiber-homogeneous pieces c of the ker T^k basis with T^k c = 0 that are
    independent of ker T^(k-1), of the chains carried down from greater
    heights and of the tops chosen before them: the pivot columns past that
    layer in one forward elimination of [layer | candidates].  A height with
    T^(k-1) = 0 already has the whole space in its layer and adds no top.
    """
    f = m.field
    total = m.total_dim
    if total == 0:
        empty = {v: Matrix.zeros(f, m.dims[v], 0) for v in m.quiver.vertices}
        return tuple(() for _ in m.quiver.vertices), empty, empty
    offs = {}
    pos = 0
    for v in m.quiver.vertices:
        offs[v] = pos
        pos += m.dims[v]
    big = [[0] * total for _ in range(total)]
    for ai, a in enumerate(m.quiver.arrows):
        dom, cod = arrow_ends(m.side, a)
        for r, row in enumerate(m.maps[ai].entries):
            out = big[offs[cod] + r]
            for c, x in enumerate(row, offs[dom]):
                out[c] += x
    t_mat = Matrix(f, big)
    # fiber of each coordinate
    coord_fiber = []
    for v in m.quiver.vertices:
        coord_fiber.extend([v] * m.dims[v])
    # kernel filtration; ker T^0 = 0
    h = m.nil_bound
    powers = [None, t_mat]
    for _ in range(h - 1):
        powers.append(t_mat * powers[-1])
    kernels = [[]] + [Kernel(p).basis for p in powers[1:]]

    def fiber_vectors(columns):
        """Split vectors into their fiber-homogeneous pieces."""
        vecs = []
        for col in columns:
            by_fiber = {}
            for idx, val in enumerate(col):
                if val:
                    by_fiber.setdefault(coord_fiber[idx], [f.zero] * total)
                    by_fiber[coord_fiber[idx]][idx] = val
            for _, vec in sorted(by_fiber.items()):
                vecs.append(tuple(vec))
        return vecs

    tops = []  # (vector, height)
    for k in range(h, 0, -1):
        layer = list(kernels[k - 1])
        for u, height in tops:
            vec = u
            for _ in range(height - k):
                vec = t_mat.apply(vec)
            layer.append(vec)
        cands = [c for c in fiber_vectors(kernels[k]) if not any(powers[k].apply(_integral(c)))]
        if cands:
            echelon = _echelon(Matrix.from_columns(f, layer + cands, total))
            tops.extend((cands[c - len(layer)], k) for c, _ in echelon if c >= len(layer))
    chosen = []  # (vector, degree)
    for u, height in tops:
        vec = u
        for step in range(height):
            chosen.append((vec, step))
            vec = t_mat.apply(vec)
    if len(chosen) != total:
        raise GradingError("chain basis construction failed to span")
    # assemble per-fiber new bases and degrees
    per_fiber_vectors = {v: [] for v in m.quiver.vertices}
    per_fiber_degs = {v: [] for v in m.quiver.vertices}
    for vec, deg in chosen:
        fibs = {coord_fiber[i] for i, x in enumerate(vec) if x}
        if len(fibs) != 1:
            raise GradingError("chain vector not fiber-homogeneous")
        v = fibs.pop()
        local = [vec[offs[v] + i] for i in range(m.dims[v])]
        per_fiber_vectors[v].append(local)
        per_fiber_degs[v].append(deg)
    base_change = {}
    inverse_change = {}
    for v in m.quiver.vertices:
        cols = per_fiber_vectors[v]
        if len(cols) != m.dims[v]:
            raise GradingError("fiber basis count mismatch")
        base_change[v] = Matrix.from_columns(f, [tuple(c) for c in cols], m.dims[v])
        inverse_change[v] = inverse(base_change[v]) if m.dims[v] else base_change[v]
        if inverse_change[v] is None:
            raise GradingError("fiber chain vectors not independent")
    degs = tuple(tuple(per_fiber_degs[v]) for v in m.quiver.vertices)
    return degs, base_change, inverse_change


def graded_form(m: Rep):
    """(isomorphic Rep, degrees) with every arrow map homogeneous of degree +1,
    or raise GradingError.

    Two strategies: a vertex level function (acyclic instances) on m as it
    stands, then fiberwise nilpotent chain bases (serial instances such as
    disjoint cycles) with the change of basis applied.  A module the radical
    kills (a simple among them) needs no search: each basis vector is a
    chain top of height 1, so m stands as it is, in degree 0.
    """
    try:
        degs = _level_grading(m)
        _verify_grading(m, degs)
        return m, degs
    except GradingError:
        pass
    if m.nil_bound <= 1:
        return m, tuple((0,) * n for n in m.dims)
    degs, base_change, inverse_change = _chain_basis(m)
    f = m.field
    new_maps = []
    for ai, a in enumerate(m.quiver.arrows):
        dom, cod = arrow_ends(m.side, a)
        if m.dims[cod] and m.dims[dom]:
            new_maps.append(inverse_change[cod] * m.maps[ai] * base_change[dom])
        else:
            new_maps.append(m.maps[ai])
    out = Rep(m.quiver, m.side, f, m.dims, new_maps, _carried_bound=m.nil_bound)
    _verify_grading(out, degs)
    return out, degs


def _verify_grading(m: Rep, degs) -> None:
    """GradingError at the first nonzero entry off degree +1, by 1-based (row, column)."""
    for ai, a in enumerate(m.quiver.arrows):
        dom, cod = arrow_ends(m.side, a)
        for r, row in enumerate(m.maps[ai].entries):
            for c, x in enumerate(row):
                if x and degs[cod][r] != degs[dom][c] + 1:
                    raise GradingError(
                        f"arrow {a.label!r} entry ({r + 1},{c + 1}) violates degree +1"
                    )


def random_graded_rep(quiver: Quiver, rng, side: str = "left", field: Field | None = None, max_per_degree: int = 2, max_degree: int = 3) -> Rep:
    """Seeded random nilpotent representation, built graded so nilpotency is
    automatic, then conjugated by a random unitriangular change of basis."""
    field = field or Field(0)
    degrees = {}
    for v in quiver.vertices:
        fiber = []
        for d in range(max_degree + 1):
            fiber.extend([d] * rng.randint(0, max_per_degree))
        degrees[v] = fiber
    dims = [len(degrees[v]) for v in quiver.vertices]
    maps = []
    for a in quiver.arrows:
        dom, cod = arrow_ends(side, a)
        rows = []
        for r in range(dims[cod]):
            row = []
            for c in range(dims[dom]):
                if degrees[cod][r] == degrees[dom][c] + 1:
                    row.append(field.of(rng.randint(-2, 2)))
                else:
                    row.append(field.zero)
            rows.append(row)
        maps.append(Matrix._normalized(field, tuple(map(tuple, rows)), dims[dom]))
    graded = Rep(quiver, side, field, dims, maps)  # its nil bound, on sparse maps
    # conjugate by unipotent random matrices to hide the grading
    conj = {}
    for v in quiver.vertices:
        n = dims[v]
        mat = [[field.one if i == j else (field.of(rng.randint(-1, 1)) if i < j else field.zero) for j in range(n)] for i in range(n)]
        conj[v] = Matrix._normalized(field, tuple(map(tuple, mat)), n)
    new_maps = []
    conj_inv = {}
    for ai, a in enumerate(quiver.arrows):
        dom, cod = arrow_ends(side, a)
        if dims[cod] and dims[dom]:
            if cod not in conj_inv:
                conj_inv[cod] = _unit_upper_inverse(conj[cod])
            new_maps.append(conj_inv[cod] * maps[ai] * conj[dom])
        else:
            new_maps.append(maps[ai])
    return Rep(quiver, side, field, dims, new_maps, _carried_bound=graded.nil_bound)


def _unit_upper_inverse(u: Matrix) -> Matrix:
    """Inverse of a unit upper-triangular matrix by back substitution, integral
    where u is: row i of it is e_i minus u[i][k] times its row k, over k > i."""
    n = u.rows
    inv = [()] * n
    for i in range(n - 1, -1, -1):
        row = [int(i == j) for j in range(n)]
        for k in range(i + 1, n):
            if x := u.entries[i][k]:
                row = [a - x * b for a, b in zip(row, inv[k])]
        inv[i] = u.field.normal(row)
    return Matrix._normalized(u.field, tuple(inv), n)


# ----------------------------------------------------------------------
# graded presentations


class GradedPresentation(Record):
    """Finitely generated graded module over A, by homogeneous presentation.

    generators: tuple of (vertex, degree) for the free cover summands A e_v.
    relations:  tuple of (vertex, degree) for the relation summands.
    entries[g][r]: homogeneous AlgElement in e_(rel vertex) A e_(gen vertex),
    i.e. supported on paths from the generator vertex to the relation vertex,
    of degree rel_degree - gen_degree.
    """

    __slots__ = ("quiver", "side", "field", "generators", "relations", "entries")

    def __init__(self, quiver: Quiver, side: str, field: Field, generators: tuple, relations: tuple,
                 entries: tuple):
        self.quiver, self.side, self.field = quiver, side, field
        self.generators, self.relations, self.entries = generators, relations, entries
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        n = self.quiver.vertex_count
        for kind, terms in (("generator", self.generators), ("relation", self.relations)):
            for k, (v, _) in enumerate(terms):
                if not 0 <= v < n:
                    raise ValueError(f"{kind} {k + 1} at vertex {v + 1} out of range 1..{n}")
        if len(self.entries) != len(self.generators):
            raise ValueError("entry rows must match generators")
        for g, row in enumerate(self.entries):
            if len(row) != len(self.relations):
                raise ValueError("entry columns must match relations")
            gv, gd = self.generators[g]
            for r, el in enumerate(row):
                rv, rd = self.relations[r]
                for p, _ in el.coeffs.items():
                    src, tgt = (gv, rv) if self.side == "left" else (rv, gv)
                    if p.source != src or p.target != tgt:
                        raise ValueError(
                            f"entry ({g + 1},{r + 1}) supported outside e_{rv + 1} A e_{gv + 1}"
                        )
                    if p.length != rd - gd:
                        raise ValueError(
                            f"entry ({g + 1},{r + 1}) not homogeneous of degree {rd - gd}"
                        )

    def describe(self) -> dict:
        return {
            "side": self.side,
            "generators": [[v + 1, d] for v, d in self.generators],
            "relations": [[v + 1, d] for v, d in self.relations],
        }


def presentation_of_rep(m: Rep, degrees=None) -> GradedPresentation:
    """The standard presentation of a finite-dimensional module, on its
    graded form unless `degrees` grades m as it stands.

    One generator per basis vector (v, i) of degree degrees[v][i], in vertex
    order; one relation per arrow a and basis vector x of its domain fiber,
    a . x - (the arrow action on x), of degree one more than x.  The
    presented module is isomorphic to m.
    """
    if degrees is None:
        m, degrees = graded_form(m)
    f = m.field
    first = {}
    gens = []
    for v in m.quiver.vertices:
        first[v] = len(gens)
        gens.extend((v, d) for d in degrees[v])
    rels = []
    cols = []
    for ai, a in enumerate(m.quiver.arrows):
        dom, cod = arrow_ends(m.side, a)
        for c in range(m.dims[dom]):
            col = {first[dom] + c: AlgElement.dual_path(f, Path(a.source, a.target, (ai,)))}
            for r in range(m.dims[cod]):
                x = m.maps[ai][r, c]
                if not f.is_zero(x):
                    g = first[cod] + r
                    col[g] = col.get(g, AlgElement.zero(f)) - AlgElement(f, {trivial_path(cod): x})
            rels.append((cod, degrees[dom][c] + 1))
            cols.append(col)
    entries = tuple(tuple(col.get(g, AlgElement.zero(f)) for col in cols) for g in range(len(gens)))
    return GradedPresentation(m.quiver, m.side, f, tuple(gens), tuple(rels), entries)
