import random
from fractions import Fraction
from pathlib import Path as FilePath

import pytest
from hypothesis import given, settings, strategies as st

from quiverhom.exactlin import Field, Kernel, Matrix, echelon_rows, inverse, rank
from quiverhom.pathcoalg import AlgElement
from quiverhom.quiver import Path, enumerate_paths, extend, opposite, parse_quiver, trivial_path
from quiverhom.repmod import (
    GradingError,
    NotNilpotentError,
    Rep,
    _chain_basis,
    _commutation_rows,
    _level_grading,
    _nil_bound,
    _unit_upper_inverse,
    _verify_grading,
    arrow_ends,
    commutation_matrix,
    euler_pairing,
    GradedPresentation,
    graded_form,
    hom_dim,
    hom_ext1_dims,
    hom_space,
    linear_dual,
    random_graded_rep,
    rep_from_matrices,
    simple,
    truncated_free_rep,
    truncated_injective,
    twist,
    uniserial,
    VertexTwist,
)
from rep_helpers import (  # tests/rep_helpers.py
    assert_isomorphic,
    direct_sum,
    identity_twist,
    is_normal_scalar,
    is_zero_matrix,
    truncated_free,
    twist_inverse,
)


Q = Field(0)
LOOP = parse_quiver("vertices: 1\narrow x 1 1\n")[0]
TWO_CYCLE = parse_quiver("vertices: 2\narrow x 1 2\narrow y 2 1\n")[0]
KRONECKER = parse_quiver("vertices: 2\narrow u 1 2\narrow v 1 2\n")[0]
NO_ARROW = parse_quiver("vertices: 1\n")[0]
THREE_CYCLE = parse_quiver("vertices: 3\narrow a 1 2\narrow b 2 3\narrow c 3 1\n")[0]


def test_simple_dims():
    s1 = simple(TWO_CYCLE, 0, "left", Q)
    assert s1.dims == (1, 0)
    assert s1.nil_bound <= 1
    s = simple(LOOP, 0, "left", Q)
    assert s.dims == (1,)
    assert is_zero_matrix(s.maps[0])


def test_simple_dual_is_other_side_simple():
    for quiv in (LOOP, TWO_CYCLE):
        for v in quiv.vertices:
            s = simple(quiv, v, "left", Q)
            d = linear_dual(s)
            assert d.side == "right"
            assert d.dims == s.dims


def test_truncated_injective_two_cycle():
    inj = truncated_injective(TWO_CYCLE, 0, 3, "right", Q)
    assert sorted(inj.dims) == [2, 2]
    assert inj.total_dim == 4


def test_truncated_injective_loop_uniserial():
    inj = truncated_injective(LOOP, 0, 2, "right", Q)
    assert inj.total_dim == 3
    assert inj.nil_bound == 3
    # socle is the simple: exactly one-dimensional kernel of the arrow action
    from quiverhom.exactlin import Kernel

    assert Kernel(inj.maps[0]).dim == 1


def test_truncated_injective_no_arrows():
    inj = truncated_injective(NO_ARROW, 0, 4, "right", Q)
    assert inj.dims == simple(NO_ARROW, 0, "right", Q).dims


def test_truncated_free_rep_loop_degreewise():
    free = truncated_free_rep(LOOP, 0, 4, "left", Q)
    assert free.total_dim == 5  # one basis path per degree 0..4
    assert free.nil_bound == 5


def test_truncated_free_rep_sink():
    # arrows point 1 -> 2, so vertex 2 emits nothing: its free module is the simple
    free = truncated_free_rep(KRONECKER, 1, 3, "left", Q)
    assert free.total_dim == 1


def test_truncated_free_presentation_shape():
    pres = truncated_free(LOOP, 0, 6, "left", Q)
    assert pres.generators == ((0, 0),)
    assert pres.relations == ()


def test_hom_simples_schur():
    for quiv in (TWO_CYCLE, KRONECKER):
        for i in quiv.vertices:
            for j in quiv.vertices:
                d = hom_dim(simple(quiv, i, "left", Q), simple(quiv, j, "left", Q))
                assert d == (1 if i == j else 0)


def test_hom_uniserials_loop():
    m = uniserial(LOOP, 0, 2, "left", Q)
    n = uniserial(LOOP, 0, 3, "left", Q)
    assert hom_dim(m, n) == 2


def test_hom_contains_identity():
    m = truncated_injective(TWO_CYCLE, 0, 3, "right", Q)
    basis = hom_space(m, m)
    assert len(basis) >= 1
    # identity is in the span, so an invertible combination exists
    assert_isomorphic(m, m)


def test_side_mismatch_rejected():
    with pytest.raises(ValueError):
        hom_space(simple(LOOP, 0, "left", Q), simple(LOOP, 0, "right", Q))


@pytest.mark.parametrize("fld", [Q, Field(7), Field(2147483647)], ids=repr)
def test_hom_dim_counts_hom_space(fld):
    # hom_dim takes the rank of the commutation matrix; hom_space builds the
    # kernel basis of the same matrix
    rng = random.Random(47)
    for quiv in (LOOP, TWO_CYCLE, KRONECKER, THREE_CYCLE):
        for _ in range(6):
            m = random_graded_rep(quiv, rng, "left", fld)[0]
            n = random_graded_rep(quiv, rng, "left", fld)[0]
            for a, b in ((m, n), (n, m), (m, m), (linear_dual(n), linear_dual(m))):
                assert hom_dim(a, b) == len(hom_space(a, b))
    with pytest.raises(ValueError):
        hom_dim(simple(LOOP, 0, "left", Q), simple(LOOP, 0, "right", Q))
    with pytest.raises(ValueError):
        hom_dim(simple(LOOP, 0, "left", Q), simple(TWO_CYCLE, 0, "left", Q))


def test_dual_involution_and_hom_dims():
    rng = random.Random(31)
    for quiv in (LOOP, TWO_CYCLE):
        for _ in range(10):
            m = random_graded_rep(quiv, rng, "left", Q)[0]
            n = random_graded_rep(quiv, rng, "left", Q)[0]
            assert hom_dim(m, n) == hom_dim(linear_dual(n), linear_dual(m))
            dd = linear_dual(linear_dual(m))
            assert dd.side == m.side and dd.dims == m.dims
            assert dd.maps == m.maps


def test_dual_of_injective_is_truncated_free():
    for quiv in (LOOP, TWO_CYCLE):
        for v in quiv.vertices:
            inj = truncated_injective(quiv, v, 3, "right", Q)
            free = truncated_free_rep(quiv, v, 3, "left", Q)
            dual = linear_dual(inj)
            assert dual.side == "left"
            assert dual.dims == free.dims
            assert_isomorphic(dual, free)


def test_twist_identity():
    m = uniserial(LOOP, 0, 3, "left", Q)
    t = identity_twist(LOOP)
    assert twist(m, t).maps[0] == m.maps[0]


def test_twist_swap_simple():
    swap = VertexTwist((1, 0), (1, 0), (1, 1))
    s1 = simple(TWO_CYCLE, 0, "left", Q)
    s2 = simple(TWO_CYCLE, 1, "left", Q)
    assert twist(s1, swap).dims == s2.dims


def test_twist_scaling_isomorphic():
    t = VertexTwist((0,), (0,), (2,))
    m = uniserial(LOOP, 0, 2, "left", Q)
    assert_isomorphic(twist(m, t), m)


def test_twist_preserves_hom_dims():
    swap = VertexTwist((1, 0), (1, 0), (1, -1))
    rng = random.Random(8)
    for _ in range(8):
        m = random_graded_rep(TWO_CYCLE, rng, "left", Q)[0]
        n = random_graded_rep(TWO_CYCLE, rng, "left", Q)[0]
        assert hom_dim(m, n) == hom_dim(twist(m, swap), twist(n, swap))


def test_twist_inverse_roundtrip():
    swap = VertexTwist((1, 0), (1, 0), (3, 5))
    inv = twist_inverse(swap, Q)
    rng = random.Random(9)
    m = random_graded_rep(TWO_CYCLE, rng, "left", Q)[0]
    assert_isomorphic(twist(twist(m, swap), inv), m)


def test_rep_from_matrices_non_nilpotent_loop():
    with pytest.raises(NotNilpotentError):
        rep_from_matrices(LOOP, (1,), [[[1]]], "left", Q)


def test_rep_from_matrices_jordan_block():
    m = rep_from_matrices(LOOP, (2,), [[[0, 1], [0, 0]]], "left", Q)
    assert m.nil_bound == 2


def test_rep_from_matrices_invertible_cycle_composite():
    with pytest.raises(NotNilpotentError):
        rep_from_matrices(TWO_CYCLE, (1, 1), [[[1]], [[1]]], "left", Q)


def test_rep_from_matrices_shape_mismatch():
    with pytest.raises(ValueError):
        rep_from_matrices(TWO_CYCLE, (1, 2), [[[1]], [[1]]], "left", Q)


def test_euler_pairing_values():
    s0 = simple(KRONECKER, 0, "left", Q)
    s1 = simple(KRONECKER, 1, "left", Q)
    # <S_1, S_2> = 0 - 2 = -2 on the Kronecker quiver
    assert euler_pairing(s0, s1) == -2
    assert euler_pairing(s0, s0) == 1


def test_grading_uniserial():
    m = uniserial(LOOP, 0, 4, "left", Q)
    _, degs = graded_form(m)
    assert sorted(degs[0]) == [0, 1, 2, 3]


def test_graded_form_level_quiver():
    rng = random.Random(71)
    for _ in range(8):
        m = random_graded_rep(KRONECKER, rng, "left", Q)[0]
        g, degs = graded_form(m)
        assert g.dims == m.dims


def test_direct_sum_dims():
    m = uniserial(LOOP, 0, 2, "left", Q)
    n = simple(LOOP, 0, "left", Q)
    s = direct_sum(m, n)
    assert s.total_dim == 3
    assert hom_dim(s, s) == hom_dim(m, m) + hom_dim(n, n) + hom_dim(m, n) + hom_dim(n, m)


def test_truncated_free_no_arrows_is_simple():
    free = truncated_free_rep(NO_ARROW, 0, 5, "left", Q)
    s = simple(NO_ARROW, 0, "left", Q)
    assert free.dims == s.dims
    assert_isomorphic(free, s)


# ----------------------------------------------------------------------
# nil bound against the dense reference


def dense_nil_bound(quiver, side, field, dims, maps) -> int:
    """The dense reference for Rep's nil bound: multiply each arrow map by
    the whole unreduced span of the level before, then take the rank of
    every fiber, until the spans vanish."""
    spans = {v: Matrix.identity(field, dims[v]) for v in quiver.vertices}

    def total(sp):
        return sum(rank(m) for m in sp.values())

    total_dim = sum(dims)
    m = 0
    current = total(spans)
    while current > 0:
        nxt = {v: [] for v in quiver.vertices}
        for ai, a in enumerate(quiver.arrows):
            dom, cod = arrow_ends(side, a)
            if dims[dom] == 0 or dims[cod] == 0:
                continue
            nxt[cod].append(maps[ai] * spans[dom])
        spans = {}
        for v in quiver.vertices:
            if nxt[v]:
                acc = nxt[v][0]
                for piece in nxt[v][1:]:
                    acc = acc.hstack(piece)
                spans[v] = acc
            else:
                spans[v] = Matrix.zeros(field, dims[v], 0)
        m += 1
        new_total = total(spans)
        if new_total >= current and new_total > 0:
            raise NotNilpotentError(
                "some cycle acts non-nilpotently: not a rational module / comodule"
            )
        current = new_total
        if m > total_dim + 1:
            raise NotNilpotentError(
                "radical action does not reach zero: not a rational module / comodule"
            )
    return m


def _outcome(fn):
    try:
        return fn()
    except NotNilpotentError as exc:
        return (type(exc), str(exc))


def _rep_outcome(quiver, side, field, dims, maps):
    return _outcome(lambda: Rep(quiver, side, field, dims, maps).nil_bound)


def _oracle_outcome(quiver, side, field, dims, maps):
    return _outcome(lambda: dense_nil_bound(quiver, side, field, dims, maps))


A3 = parse_quiver("vertices: 3\narrow a 1 2\narrow b 2 3\n")[0]
# two arrows into vertex 2 and a loop there: images from several arrows meet
MEET = parse_quiver("vertices: 3\narrow a 1 2\narrow b 3 2\narrow x 2 2\narrow c 2 3\n")[0]
NIL_QUIVERS = (LOOP, TWO_CYCLE, KRONECKER, NO_ARROW, THREE_CYCLE, A3, MEET)
NIL_FIELDS = (Q, Field(2), Field(7), Field(2147483647))


def _random_scalar(rng, fld):
    if fld.characteristic == 0 and rng.random() < 0.3:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return rng.randint(-3, 3)


def _random_map(rng, fld, rows, cols, shape):
    """A random rows x cols matrix: "dense", "sparse" (mostly zeros) or
    "monomial" (at most one nonzero per column, rows may repeat)."""
    entries = [[0] * cols for _ in range(rows)]
    for j in range(cols):
        if shape == "monomial":
            if rows and rng.random() < 0.8:
                x = 0
                while fld.is_zero(fld.of(x)):
                    x = _random_scalar(rng, fld)
                entries[rng.randrange(rows)][j] = x
            continue
        for i in range(rows):
            if shape == "dense" or rng.random() < 0.3:
                entries[i][j] = _random_scalar(rng, fld)
    return Matrix(fld, entries, cols=cols)


def test_nil_bound_matches_dense_oracle_on_random_reps():
    rng = random.Random(2027)
    outcomes = {"bound": 0, "raised": 0}
    for fld in NIL_FIELDS:
        for quiv in NIL_QUIVERS:
            for side in ("left", "right"):
                for trial in range(12):
                    dims = [rng.randint(0, 3) for _ in quiv.vertices]
                    # one shape for all arrows, or (every fourth trial) one per arrow
                    shapes = ("dense", "sparse", "monomial", None)
                    shape = shapes[trial % 4]
                    maps = []
                    for a in quiv.arrows:
                        dom, cod = arrow_ends(side, a)
                        maps.append(_random_map(rng, fld, dims[cod], dims[dom], shape or rng.choice(shapes[:3])))
                    want = _oracle_outcome(quiv, side, fld, dims, maps)
                    assert _rep_outcome(quiv, side, fld, dims, maps) == want, (fld, quiv, side, dims, maps)
                    outcomes["raised" if isinstance(want, tuple) else "bound"] += 1
    # both sides of the check occur often enough to mean something
    assert outcomes["bound"] >= 150 and outcomes["raised"] >= 100, outcomes


def test_nil_bound_matches_dense_oracle_on_graded_reps_and_duals():
    """linear_dual and graded_form carry the nil bound over instead of
    recomputing it; the bound carried must be the one the oracle computes."""
    rng = random.Random(2028)
    conjugated = 0
    for fld in NIL_FIELDS:
        for quiv in NIL_QUIVERS:
            for side in ("left", "right"):
                for _ in range(4):
                    rep = random_graded_rep(quiv, rng, side, fld)[0]
                    reps = [rep, linear_dual(rep)]
                    try:
                        graded = graded_form(rep)[0]
                    except GradingError:  # MEET's vertex 2 lies on two cycles
                        graded = None
                    if graded is not None:
                        reps += [graded, linear_dual(graded)]
                        conjugated += graded is not rep
                    for r in reps:
                        assert r.nil_bound == dense_nil_bound(r.quiver, r.side, r.field, r.dims, r.maps)
    assert conjugated >= 50


def test_nil_bound_matches_dense_oracle_on_path_basis_models():
    seen = set()
    for fld in (Q, Field(7)):
        for quiv in NIL_QUIVERS:
            for v in quiv.vertices:
                for n in range(5):
                    reps = [truncated_free_rep(quiv, v, n, side, fld) for side in ("left", "right")]
                    reps += [truncated_injective(quiv, v, n, side, fld) for side in ("left", "right")]
                    if n:
                        try:
                            reps.append(uniserial(quiv, v, n, "left", fld))
                        except ValueError:
                            pass
                    for r in reps:
                        assert r.nil_bound == dense_nil_bound(r.quiver, r.side, r.field, r.dims, r.maps)
                        seen.add(r.nil_bound)
    assert max(seen) >= 5


def test_nil_bound_non_nilpotent_message_matches_oracle():
    # an invertible cycle composite after a nilpotent tail, on both sides
    cases = [
        (LOOP, (1,), [[[1]]]),
        (LOOP, (2,), [[[0, 1], [1, 0]]]),
        (TWO_CYCLE, (1, 1), [[[1]], [[1]]]),
        (TWO_CYCLE, (2, 1), [[[1, 0]], [[1], [0]]]),
        (THREE_CYCLE, (1, 1, 2), [[[-1]], [[1], [0]], [[1, 0]]]),
    ]
    for fld in NIL_FIELDS:
        for quiv, dims, raw in cases:
            left = [Matrix(fld, r) for r in raw]
            for side, maps in (("left", left), ("right", [m.transpose() for m in left])):
                want = _oracle_outcome(quiv, side, fld, dims, maps)
                assert isinstance(want, tuple) and want[0] is NotNilpotentError
                assert _rep_outcome(quiv, side, fld, dims, maps) == want


def dense_commutation_matrix(m, n):
    """Reference for commutation_matrix: every entry summed onto a zero row."""
    f, q = m.field, m.quiver
    offsets, total = {}, 0
    for v in q.vertices:
        offsets[v] = total
        total += n.dims[v] * m.dims[v]
    rows = []
    for ai, a in enumerate(q.arrows):
        dom, cod = arrow_ends(m.side, a)
        for r in range(n.dims[cod]):
            for c in range(m.dims[dom]):
                row = [f.zero] * total
                for k in range(m.dims[cod]):
                    idx = offsets[cod] + r * m.dims[cod] + k
                    row[idx] = f.add(row[idx], m.maps[ai][k, c])
                for k in range(n.dims[dom]):
                    idx = offsets[dom] + k * m.dims[dom] + c
                    row[idx] = f.sub(row[idx], n.maps[ai][r, k])
                rows.append(tuple(row))
    return tuple(rows)


def test_commutation_matrix_matches_dense_reference():
    # loops (LOOP, MEET) hit a cell from both sums; the entries must be the
    # reference's normalized scalars, of the field's own type.  The sparse
    # rows that hom_ext1_dims ranks are the reference rows' nonzeros.
    rng = random.Random(2029)
    for fld in NIL_FIELDS:
        for quiv in NIL_QUIVERS:
            for side in ("left", "right"):
                for _ in range(4):
                    m = random_graded_rep(quiv, rng, side, fld)[0]
                    n = random_graded_rep(quiv, rng, side, fld)[0]
                    for a, b in ((m, n), (m, m), (linear_dual(n), linear_dual(m))):
                        want = dense_commutation_matrix(a, b)
                        got = commutation_matrix(a, b).entries
                        assert got == want
                        assert all(type(x) is type(fld.zero) for row in got for x in row)
                        rows, unknowns = _commutation_rows(a, b)
                        assert unknowns == sum(x * y for x, y in zip(a.dims, b.dims))
                        assert rows == [{j: x for j, x in enumerate(row) if x} for row in want]


def test_commutation_rows_on_a_loop_hold_normal_scalars():
    # both sums hit every diagonal cell of a loop's rows; a raw sum of these
    # Fractions leaves an integral Fraction there (Fraction(2, 1)), on which
    # the primitive-row scaling of the elimination raised TypeError
    m = rep_from_matrices(LOOP, [2], [[[Fraction(1, 2), Fraction(1, 4)], [-1, Fraction(-1, 2)]]], "left", Q)
    n = rep_from_matrices(LOOP, [2], [[[Fraction(-3, 2), 1], [Fraction(-9, 4), Fraction(3, 2)]]], "left", Q)
    assert hom_ext1_dims(m, n) == (2, 2)
    rows, _ = _commutation_rows(m, n)
    assert all(is_normal_scalar(Q, x) for row in rows for x in row.values())


LOOP_THEN_ARROW = parse_quiver("vertices: 2\narrow x 1 1\narrow t 1 2\n")[0]
P = Field(2147483647)
SCALARS = st.one_of(st.just(0), st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def loop_rep_pairs(draw):
    """Two left reps on the loop or the loop with an arrow out, over Q or
    F_p.  The loop acts by [[h, b], [-h^2/b, -h]] with h a half-integer or
    an integer, so the sums that two loops put on one cell, h - h', are
    often integral Fractions; or by L U L^(-1), U strictly upper and L unit
    lower triangular with entries like 0, 2 and -3/4.  The other arrow acts
    by any matrix."""
    fld = draw(st.sampled_from([Q, P]))
    quiv = draw(st.sampled_from([LOOP, LOOP_THEN_ARROW]))

    def rep():
        dims = [draw(st.integers(1, 3)) for _ in quiv.vertices]
        n = dims[0]
        if n == 2:
            h = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from([1, 2])))
            b = draw(SCALARS.filter(bool))
            maps = [Matrix(fld, [[h, b], [-h * h / b, -h]])]
        else:
            upper = Matrix(fld, [[draw(SCALARS) if i < j else 0 for j in range(n)] for i in range(n)])
            lower = Matrix(fld, [[1 if i == j else (draw(SCALARS) if i > j else 0) for j in range(n)]
                                 for i in range(n)])
            maps = [lower * upper * inverse(lower)]
        if len(dims) == 2:
            maps.append(Matrix(fld, [[draw(SCALARS) for _ in range(n)] for _ in range(dims[1])]))
        return rep_from_matrices(quiv, dims, maps, "left", fld)

    return fld, rep(), rep()


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(loop_rep_pairs())
def test_sparse_commutation_rank_matches_the_dense_rank(case):
    fld, m, n = case
    rows, unknowns = _commutation_rows(m, n)
    assert all(is_normal_scalar(fld, x) for row in rows for x in row.values())
    dense = Matrix(fld, dense_commutation_matrix(m, n), cols=unknowns)
    assert len(echelon_rows(fld, rows)) == rank(dense)
    assert hom_ext1_dims(m, n) == (dense.cols - rank(dense), dense.rows - rank(dense))


def test_random_graded_rep_shortcuts_match_the_general_routes(monkeypatch):
    """random_graded_rep carries its graded Rep's nil bound over to the
    conjugate and inverts the unitriangular conjugation by back
    substitution: the bound is the one _nil_bound finds on the conjugated
    maps, and the inverse is exactlin.inverse's."""
    import quiverhom.repmod as repmod

    inverted = []
    real = repmod._unit_upper_inverse

    def recording(u):
        inverted.append((u, real(u)))
        return inverted[-1][1]

    monkeypatch.setattr(repmod, "_unit_upper_inverse", recording)
    folder = FilePath(__file__).resolve().parents[1] / "examples_quivers"
    quivers = [parse_quiver(path.read_text())[0] for path in sorted(folder.glob("*.quiver"))]
    rng = random.Random(3031)
    bounds = set()
    for fld in (Q, P):
        for quiv in quivers:
            for side in ("left", "right"):
                for _ in range(8):
                    m = random_graded_rep(quiv, rng, side, fld)[0]
                    assert m.nil_bound == _nil_bound(Rep(quiv, side, fld, m.dims, m.maps))
                    bounds.add(m.nil_bound)
    assert len(quivers) == 6 and bounds >= {0, 1, 2, 3}
    assert any(u != Matrix.identity(u.field, u.rows) for u, _ in inverted)
    for u, inv in inverted:
        assert inv == inverse(u)
    assert _unit_upper_inverse(Matrix(P, [[1, -1, 1], [0, 1, -1], [0, 0, 1]])).entries == ((1, 1, 0), (0, 1, 1), (0, 0, 1))


# ---------------------------------------------------------------- chain bases
# The per-candidate search that `repmod._chain_basis` replaced, kept as the
# reference: the same tops, degrees and base changes, found with one `rank`
# per candidate and one per power of the total radical operator.


def reference_chain_basis(m):
    f = m.field
    total = m.total_dim
    if total == 0:
        return tuple(() for _ in m.quiver.vertices), {v: Matrix.zeros(f, m.dims[v], 0) for v in m.quiver.vertices}
    offs = {}
    pos = 0
    for v in m.quiver.vertices:
        offs[v] = pos
        pos += m.dims[v]
    big = [[f.zero] * total for _ in range(total)]
    for ai, a in enumerate(m.quiver.arrows):
        dom, cod = arrow_ends(m.side, a)
        mat = m.maps[ai]
        for r in range(m.dims[cod]):
            for c in range(m.dims[dom]):
                big[offs[cod] + r][offs[dom] + c] = f.add(big[offs[cod] + r][offs[dom] + c], mat[r, c])
    t_mat = Matrix(f, big)
    coord_fiber = []
    for v in m.quiver.vertices:
        coord_fiber.extend([v] * m.dims[v])
    h = 0
    powers = [Matrix.identity(f, total)]
    while True:
        powers.append(t_mat * powers[-1])
        h += 1
        if rank(powers[-1]) == 0:
            break
        assert h <= total + 1, "total radical operator is not nilpotent"

    def fiber_vectors(columns):
        vecs = []
        for col in columns:
            by_fiber = {}
            for idx, val in enumerate(col):
                if not f.is_zero(val):
                    by_fiber.setdefault(coord_fiber[idx], [f.zero] * total)
                    by_fiber[coord_fiber[idx]][idx] = val
            for _, vec in sorted(by_fiber.items()):
                vecs.append(tuple(vec))
        return vecs

    tops = []
    for k in range(h, 0, -1):
        layer = [list(v) for v in Kernel(powers[k - 1]).basis]
        for u, height in tops:
            vec = u
            for _ in range(height - k):
                vec = t_mat.apply(vec)
            layer.append(list(vec))
        base_rank = rank(Matrix(f, layer)) if layer else 0
        for cand in fiber_vectors(Kernel(powers[k]).basis):
            if any(not f.is_zero(x) for x in powers[k].apply(cand)):
                continue
            trial = layer + [list(cand)]
            if rank(Matrix(f, trial)) == base_rank + 1:
                tops.append((cand, k))
                layer = trial
                base_rank += 1
    chosen = []
    for u, height in tops:
        vec = u
        for step in range(height):
            chosen.append((vec, step))
            vec = t_mat.apply(vec)
    if len(chosen) != total:
        raise GradingError("chain basis construction failed to span")
    per_fiber_vectors = {v: [] for v in m.quiver.vertices}
    per_fiber_degs = {v: [] for v in m.quiver.vertices}
    for vec, deg in chosen:
        fibs = {coord_fiber[i] for i, x in enumerate(vec) if not f.is_zero(x)}
        if len(fibs) != 1:
            raise GradingError("chain vector not fiber-homogeneous")
        v = fibs.pop()
        per_fiber_vectors[v].append([vec[offs[v] + i] for i in range(m.dims[v])])
        per_fiber_degs[v].append(deg)
    base_change = {}
    for v in m.quiver.vertices:
        cols = per_fiber_vectors[v]
        if len(cols) != m.dims[v]:
            raise GradingError("fiber basis count mismatch")
        base_change[v] = Matrix.from_columns(f, [tuple(c) for c in cols], m.dims[v])
        if m.dims[v] and inverse(base_change[v]) is None:
            raise GradingError("fiber chain vectors not independent")
    return tuple(tuple(per_fiber_degs[v]) for v in m.quiver.vertices), base_change


def reference_graded_form(m):
    try:
        degs = _level_grading(m)
        _verify_grading(m, degs)
        return m, degs
    except GradingError:
        pass
    degs, base_change = reference_chain_basis(m)
    new_maps = []
    for ai, a in enumerate(m.quiver.arrows):
        dom, cod = arrow_ends(m.side, a)
        if m.dims[cod] and m.dims[dom]:
            new_maps.append(inverse(base_change[cod]) * m.maps[ai] * base_change[dom])
        else:
            new_maps.append(m.maps[ai])
    out = Rep(m.quiver, m.side, m.field, m.dims, new_maps)
    _verify_grading(out, degs)
    return out, degs


TWO_DISJOINT_CYCLES = parse_quiver("vertices: 3\narrow x 1 1\narrow a 2 3\narrow b 3 2\n")[0]
LOOP_WITH_TAIL = parse_quiver("vertices: 2\narrow x 1 1\narrow y 1 2\n")[0]
CHAIN_FIELDS = (Q, Field(2147483647))


def _grading_outcome(fn, m):
    """fn(m), or the GradingError message it raised."""
    try:
        return fn(m)
    except GradingError as exc:
        return str(exc)


def _same_grading(m):
    """Assert that _chain_basis and graded_form give what the reference gives,
    or raise the same GradingError; return the reference's outcome."""
    want = _grading_outcome(reference_chain_basis, m)
    got = _grading_outcome(_chain_basis, m)
    if isinstance(want, str):
        assert got == want
    else:
        degs, base_change, inverse_change = got
        assert (degs, base_change) == want
        for v in m.quiver.vertices:
            if m.dims[v]:
                assert inverse_change[v] == inverse(base_change[v])
    ref = _grading_outcome(reference_graded_form, m)
    g = _grading_outcome(graded_form, m)
    assert g == ref if isinstance(ref, str) else (g[0].maps, g[1]) == (ref[0].maps, ref[1])
    return want


def test_chain_basis_equals_the_per_candidate_search():
    rng = random.Random(1616)
    for fld in CHAIN_FIELDS:
        for quiv in (LOOP, TWO_CYCLE, THREE_CYCLE, TWO_DISJOINT_CYCLES):
            for side in ("left", "right"):
                for _ in range(8):
                    assert not isinstance(_same_grading(random_graded_rep(quiv, rng, side, fld)[0]), str)


def test_chain_basis_where_parallel_loops_cancel_in_the_total_operator():
    # x = -y: T = 0 while the nil bound is 2, so the height-2 layer is the
    # whole space and adds no top
    two_loops = parse_quiver("vertices: 1\narrow x 1 1\narrow y 1 1\n")[0]
    m = rep_from_matrices(two_loops, [2], [[[0, 0], [1, 0]], [[0, 0], [-1, 0]]], "left", Q)
    assert m.nil_bound == 2
    assert _same_grading(m) == (((0, 0),), {0: Matrix.identity(Q, 2)})
    # the entry of x off the grading is row 2, column 1, as in a rep file
    with pytest.raises(GradingError, match=r"arrow 'x' entry \(2,1\) violates degree \+1"):
        graded_form(m)
    rng = random.Random(1619)
    for _ in range(10):
        _same_grading(random_graded_rep(two_loops, rng, "left", Q)[0])


def test_chain_basis_on_a_loop_with_a_tail_fails_where_the_search_failed():
    # a chain through the loop vertex leaks into the tail's fiber on most draws
    rng = random.Random(1617)
    refused = 0
    for fld in CHAIN_FIELDS:
        for _ in range(30):
            m = random_graded_rep(LOOP_WITH_TAIL, rng, "left", fld)[0]
            outcome = _same_grading(m)
            if isinstance(outcome, str):
                assert outcome == "chain vector not fiber-homogeneous"
                refused += 1
    assert 0 < refused < 60


class RecordingRandom(random.Random):
    """A Random that keeps the bounds and the result of each randint call."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = []

    def randint(self, a, b):
        x = super().randint(a, b)
        self.draws.append(((a, b), x))
        return x


# the in-scope shapes: no arrow, cycles, a disjoint union of cycles, acyclic
GRADED_QUIVERS = (NO_ARROW, LOOP, TWO_CYCLE, THREE_CYCLE, TWO_DISJOINT_CYCLES, KRONECKER, A3)
LEVEL_QUIVERS = (NO_ARROW, KRONECKER, A3)


def test_graded_form_random_cycles():
    """random_graded_rep draws the fiber sizes degree by degree, the arrow
    entries, then the strictly upper entries of each fiber's unitriangular
    conjugation, in that order.  Its graded Rep is homogeneous of degree +1
    in the degrees it returns: graded_form's on a quiver with a level
    function, elsewhere degree 0 on a basis vector no nonzero entry touches
    (a simple summand, where a chain grading puts it).  Its conjugate is
    conj^-1 graded conj, and graded_form still finds a grading of a module
    isomorphic to it."""
    rng = RecordingRandom(70)
    for quiv in GRADED_QUIVERS:
        for fld in CHAIN_FIELDS:
            for side in ("left", "right"):
                for _ in range(6):
                    rng.draws.clear()
                    rep, graded, degrees = random_graded_rep(quiv, rng, side, fld)
                    bounds = [b for b, _ in rng.draws]
                    # one size per vertex and degree 0..3 (the default max_degree)
                    sizes, uppers = 4 * quiv.vertex_count, sum(n * (n - 1) // 2 for n in rep.dims)
                    entries = len(bounds) - sizes - uppers
                    assert bounds == [(0, 2)] * sizes + [(-2, 2)] * entries + [(-1, 1)] * uppers
                    assert rep.dims == graded.dims and rep.nil_bound == graded.nil_bound
                    _verify_grading(graded, degrees)
                    if quiv in LEVEL_QUIVERS:
                        assert degrees == graded_form(rep)[1]
                    else:
                        touched = set()
                        for ai, a in enumerate(quiv.arrows):
                            dom, cod = arrow_ends(side, a)
                            for r, row in enumerate(graded.maps[ai].entries):
                                touched |= {pair for c, x in enumerate(row) if x for pair in ((dom, c), (cod, r))}
                        assert all(d == 0 for v, fiber in enumerate(degrees)
                                   for i, d in enumerate(fiber) if (v, i) not in touched)
                    drawn = iter(x for _, x in rng.draws[sizes + entries:])
                    conj = [Matrix(fld, [[1 if i == j else next(drawn) if i < j else 0 for j in range(n)]
                                         for i in range(n)], cols=n) for n in rep.dims]
                    for ai, a in enumerate(quiv.arrows):
                        dom, cod = arrow_ends(side, a)
                        if rep.dims[cod] and rep.dims[dom]:
                            assert rep.maps[ai] == inverse(conj[cod]) * graded.maps[ai] * conj[dom]
                        else:
                            assert rep.maps[ai] == graded.maps[ai]
                    g, degs = graded_form(rep)
                    assert g.dims == rep.dims
                    _verify_grading(g, degs)
                    assert_isomorphic(g, rep)


def test_chain_basis_eliminates_once_per_power_and_inverts_once_per_fiber(monkeypatch):
    import quiverhom.exactlin as exactlin
    import quiverhom.repmod as repmod

    def no_rank(m):
        raise AssertionError("rank called")

    monkeypatch.setattr(exactlin, "rank", no_rank)
    monkeypatch.setattr(repmod, "rank", no_rank, raising=False)
    kernels = []
    inverses = []

    def kernel(mat):
        kernels.append(mat.entries)
        return Kernel(mat)

    def counted_inverse(mat):
        inverses.append(mat)
        return inverse(mat)

    monkeypatch.setattr(repmod, "Kernel", kernel)
    monkeypatch.setattr(repmod, "inverse", counted_inverse)
    rng = random.Random(1618)
    for quiv in (LOOP, TWO_CYCLE, THREE_CYCLE, TWO_DISJOINT_CYCLES):
        for _ in range(6):
            m = random_graded_rep(quiv, rng, "left", Q)[0]
            kernels.clear()
            inverses.clear()
            graded_form(m)
            assert len(kernels) == len(set(kernels)) <= m.nil_bound
            assert len(inverses) == sum(1 for d in m.dims if d)


def test_presentation_errors_name_entries_and_vertices_1_based():
    # one generator at vertex 1 and two relations at vertex 2; the second entry is bad
    u = AlgElement.dual_path(Q, Path(0, 1, (0,)))
    at_1 = AlgElement.dual_path(Q, Path(0, 0, ()))
    with pytest.raises(ValueError, match=r"^entry \(1,2\) supported outside e_2 A e_1$"):
        GradedPresentation(KRONECKER, "left", Q, ((0, 0),), ((1, 1), (1, 1)), ((u, at_1),))
    with pytest.raises(ValueError, match=r"^entry \(1,2\) not homogeneous of degree 2$"):
        GradedPresentation(KRONECKER, "left", Q, ((0, 0),), ((1, 1), (1, 2)), ((u, u),))

    # relation vertices are checked as generator vertices are, 1-based
    at_8 = ((0, 0),), ((7, 1),), ((AlgElement(Q, {}),),)
    with pytest.raises(ValueError, match=r"^relation 1 at vertex 8 out of range 1\.\.1$"):
        GradedPresentation(LOOP, "left", Q, *at_8)
    with pytest.raises(ValueError, match=r"^generator 2 at vertex 3 out of range 1\.\.2$"):
        GradedPresentation(KRONECKER, "left", Q, ((0, 0), (2, 0)), (), ((), ()))
    with pytest.raises(ValueError, match=r"^relation 2 at vertex 0 out of range 1\.\.2$"):
        GradedPresentation(KRONECKER, "right", Q, ((0, 0),), ((0, 0), (-1, 0)), ((at_1, at_1),))


@pytest.mark.parametrize("vertex", [5, -1])
def test_vertex_builders_reject_a_vertex_outside_the_quiver(vertex):
    # each builder used to return the zero module for these vertices
    message = rf"^vertex {vertex + 1} out of range 1\.\.1$"
    for build in (lambda: simple(LOOP, vertex), lambda: truncated_free_rep(LOOP, vertex, 2),
                  lambda: truncated_injective(LOOP, vertex, 2, "left"), lambda: uniserial(LOOP, vertex, 1),
                  lambda: uniserial(LOOP, vertex, 2)):
        with pytest.raises(ValueError, match=message):
            build()


def test_hom_and_ext1_share_one_rank():
    rng = random.Random(19)
    for quiv in (LOOP, KRONECKER, THREE_CYCLE):
        for _ in range(4):
            m, n = (random_graded_rep(quiv, rng, "left", Q)[0] for _ in range(2))
            c = commutation_matrix(m, n)
            assert hom_ext1_dims(m, n) == (c.cols - rank(c), c.rows - rank(c))
            assert hom_ext1_dims(m, n)[0] == hom_dim(m, n) == len(hom_space(m, n))


# ---------------------------------------------------------------- path modules
# The constructions that the truncated free module replaced, kept as the
# reference: injectives built on their paths with each arrow stripping a
# step, and uniserials built on their walk.


def _reference_act(quiver, p, ai, action):
    a = quiver.arrows[ai]
    if action == "strip_last":  # arrow a sends a*q to q
        return Path(p.source, a.source, p.arrows[:-1]) if p.length and p.arrows[-1] == ai else None
    if action == "strip_first":  # arrow a sends q*a to q
        return Path(a.target, p.target, p.arrows[1:]) if p.length and p.arrows[0] == ai else None
    return Path(p.source, a.target, p.arrows + (ai,)) if p.target == a.source else None


def reference_path_basis_rep(quiver, side, field, paths, action):
    """Rep on a path list closed under the action: fibers by source for
    strip_first, by target otherwise."""
    fibers = {v: [] for v in quiver.vertices}
    index = {}
    for p in paths:
        v = p.source if action == "strip_first" else p.target
        index[p] = (v, len(fibers[v]))
        fibers[v].append(p)
    dims = [len(fibers[v]) for v in quiver.vertices]
    maps = []
    for ai, a in enumerate(quiver.arrows):
        dom, cod = arrow_ends(side, a)
        m = [[field.zero] * dims[dom] for _ in range(dims[cod])]
        for j, p in enumerate(fibers[dom]):
            img = _reference_act(quiver, p, ai, action)
            if img in index:
                v, i = index[img]
                assert v == cod, "path action left its expected fiber"
                m[i][j] = field.one
        maps.append(Matrix(field, m, cols=dims[dom]))
    return Rep(quiver, side, field, dims, maps)


def reference_truncated_injective(quiver, v, n, side, field):
    table = enumerate_paths(quiver, n)
    if side == "right":
        return reference_path_basis_rep(quiver, "right", field, table.paths(source=v), "strip_last")
    return reference_path_basis_rep(quiver, "left", field, table.paths(target=v), "strip_first")


def reference_truncated_free_rep(quiver, v, n, side, field):
    table = enumerate_paths(quiver, n)
    if side == "left":
        return reference_path_basis_rep(quiver, "left", field, table.paths(source=v), "append_last")
    reversed_paths = [Path(p.target, p.source, p.arrows[::-1]) for p in table.paths(target=v)]
    op = reference_path_basis_rep(opposite(quiver), "left", field, reversed_paths, "append_last")
    return Rep(quiver, "right", field, op.dims, op.maps)


def reference_uniserial(quiver, start, length, side, field):
    walk_quiver = quiver if side == "left" else opposite(quiver)
    walk = [trivial_path(start)]
    for _ in range(length - 1):
        v = walk[-1].target
        outs = walk_quiver.arrows_from(v)
        if len(outs) != 1:
            raise ValueError(f"vertex {v + 1} does not have a unique continuation")
        walk.append(extend(walk_quiver, walk[-1], outs[0]))
    op = reference_path_basis_rep(walk_quiver, "left", field, walk, "append_last")
    return Rep(quiver, side, field, op.dims, op.maps)


A3_WITH_SHORTCUT = parse_quiver("vertices: 3\narrow a 1 2\narrow b 2 3\narrow c 1 3\n")[0]
DIAMOND = parse_quiver("vertices: 4\narrow a 1 2\narrow b 1 3\narrow c 2 4\narrow d 3 4\n")[0]
TWO_LOOPS = parse_quiver("vertices: 1\narrow x 1 1\narrow y 1 1\n")[0]
PATH_QUIVERS = (LOOP, TWO_CYCLE, THREE_CYCLE, KRONECKER, A3_WITH_SHORTCUT, LOOP_WITH_TAIL, DIAMOND,
                TWO_LOOPS)


def _module_outcome(build):
    """(side, dims, matrices, nil bound) of build(), or the ValueError it raised."""
    try:
        m = build()
    except ValueError as exc:
        return str(exc)
    return m.side, m.dims, m.maps, m.nil_bound


def test_path_modules_equal_the_strip_and_walk_constructions():
    walks = refusals = 0
    for fld in CHAIN_FIELDS:
        for quiv in PATH_QUIVERS:
            for v in quiv.vertices:
                for n in range(5):
                    for side in ("left", "right"):
                        for new, ref, length in ((truncated_free_rep, reference_truncated_free_rep, n),
                                                 (truncated_injective, reference_truncated_injective, n),
                                                 (uniserial, reference_uniserial, n + 1)):
                            got = _module_outcome(lambda: new(quiv, v, length, side, fld))
                            want = _module_outcome(lambda: ref(quiv, v, length, side, fld))
                            assert got == want, (new.__name__, quiv, v, length, side, fld)
                            if new is uniserial:
                                walks += not isinstance(want, str)
                                refusals += isinstance(want, str)
    assert walks and refusals


def test_uniserial_refusals():
    with pytest.raises(ValueError, match=r"^vertex 1 does not have a unique continuation$"):
        uniserial(KRONECKER, 0, 2, "left", Q)
    with pytest.raises(ValueError, match=r"^vertex 2 does not have a unique continuation$"):
        uniserial(KRONECKER, 1, 2, "right", Q)
    with pytest.raises(ValueError, match=r"^vertex 1 does not have a unique continuation$"):
        uniserial(TWO_LOOPS, 0, 3, "right", Q)
    for length in (0, -1):
        with pytest.raises(ValueError, match=rf"^length {length} below 1$"):
            uniserial(LOOP, 0, length, "left", Q)
