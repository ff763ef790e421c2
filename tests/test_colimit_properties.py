"""Properties of local cohomology's colimit on generated quivers.

The path-count oracle, on disjoint unions of oriented cycles: at index 1 the
colimit piece (u, w, ell) of H^1(A) is read at stage m_max in degree
d = -ell - 1, so its dimension is the number of pairs of a path u -> v of
length m_max and a path w -> v of length m_max - ell - 1:
(N_m_max . N_(m_max-ell-1)^T)[u][w].  On the right side the quiver is read
opposite, so N is transposed.  N is computed here from plain adjacency
products (`rep_helpers.adjacency_powers`), independently of the package's
count sequence.  Acyclic quivers are left out: their H^1 is refused today.

The transition certificate, on quivers with branching as well: the colimit
reads each stage's labels as path counts split by the vertex their stage
path ends at (`homology._stage_labels`), and decides each transition from
those counts and the out-degrees (`homology._uncertified`).  The
counts must split the label lists as they are, and the count verdict must
agree with the label bijection test on the lists themselves
(`rep_helpers.bijects`), and, on a square transition, with the invertibility
of the matrix it induces on the labels.  That reference is the push of unit
vectors along the move and the rank of the square matrix they give, as the
colimit was certified before it read label moves.

The counted cycle products, on the same quivers: `homology._cycle_products`
decides from path counts where the right-route and left-route composites
around a cycle are defined and gives each such cycle the product 1.  It
must equal the walk of those routes on the stage-m_max labels and their
moves (`rep_helpers.cycle_products_by_routes`), at every m_max, whatever
the twist.

The counted ranks, on the same quivers: a presentation with one generator
or one relation and single-path entries is monomial, and
`PresentationModel._rank` counts its ranks with no matrix built.  The count
must equal `exactlin.rank` of `free_diff_matrix` on the same labels, on
both sides and over both fields.

The kill matrices, on presentations of the same quivers: the rational part
decides torsion from `homology._kill_matrix`, which stacks one map per
path, the map the path induces on classes by left multiplication.  It must
equal the stack of the products of the arrow actions along each path
(`rep_helpers.stacked_arrow_actions`), as the rational part composed them
before, and a path must map the block at any other vertex to zero.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from quiverhom import homology  # noqa: E402
from quiverhom.exactlin import Field, Kernel, Matrix, Quotient, rank  # noqa: E402
from quiverhom.homology import (  # noqa: E402
    PresentationModel, _induced_map, _kill_matrix, _left_mult, _push, _stage_labels,
    _stage_presentation, _uncertified, free_diff_matrix, free_term_basis, local_cohomology,
)
from quiverhom.pathcoalg import AlgElement  # noqa: E402
from quiverhom.repmod import GradedPresentation, _reverse_path  # noqa: E402
from quiverhom.quiver import Arrow, Quiver, enumerate_paths, opposite, parse_quiver, trivial_path  # noqa: E402
from rep_helpers import (  # noqa: E402  (tests/rep_helpers.py)
    adjacency_powers, bijects, count_rows_and_columns, cycle_products_by_routes, is_zero_matrix,
    relation_move, stacked_arrow_actions,
)

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None, database=None)


@st.composite
def cycle_unions(draw):
    """A disjoint union of 1-3 oriented cycles of lengths 1-4, its vertices
    numbered at random."""
    lengths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    numbering = draw(st.permutations(range(sum(lengths))))
    arrows, start = [], 0
    for length in lengths:
        for k in range(length):
            src, dst = numbering[start + k], numbering[start + (k + 1) % length]
            arrows.append(Arrow(f"a{len(arrows)}", src, dst))
        start += length
    return Quiver(sum(lengths), tuple(arrows))


@PROPERTY
@given(cycle_unions(), st.integers(6, 10), st.sampled_from(["left", "right"]),
       st.sampled_from([Field(0), Field(2147483647)]))
def test_local_cohomology_dims_are_path_counts(quiver, m_max, side, fld):
    report = local_cohomology(quiver, 1, m_max, m_max, fld, side)
    # the opposite quiver's adjacency matrix is the transpose
    counts = adjacency_powers(opposite(quiver) if side == "right" else quiver, m_max)
    vs = quiver.vertices
    assert report.max_degree == m_max - 2
    for ell in range(report.max_degree + 1):
        left, right = counts[m_max], counts[m_max - ell - 1]
        for u in vs:
            for w in vs:
                assert report.dim(u, w, ell) == sum(left[u][v] * right[w][v] for v in vs), (u, w, ell)


@st.composite
def loops_with_tail(draw):
    """A loop at one vertex and a tail of 1-2 steps out of it or into it,
    each step one arrow or two parallel ones.  Two parallel arrows into the
    loop give stage transitions that are bijections on two labels."""
    tail = draw(st.integers(1, 2))
    numbering = draw(st.permutations(range(tail + 1)))
    out = draw(st.booleans())
    arrows = [Arrow("x", numbering[0], numbering[0])]
    for k in range(tail):
        ends = (numbering[k], numbering[k + 1])
        for _ in range(draw(st.integers(1, 2))):
            arrows.append(Arrow(f"t{len(arrows)}", *(ends if out else ends[::-1])))
    return Quiver(tail + 1, tuple(arrows))


@st.composite
def acyclic_quivers(draw):
    """An acyclic quiver on 2-4 vertices whose arrows, 1-2 between a pair,
    go from lower to higher numbers (the Kronecker quiver among them)."""
    n = draw(st.integers(2, 4))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    arrows = []
    for a, b in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=5)):
        arrows.append(Arrow(f"a{len(arrows)}", a, b))
    return Quiver(n, tuple(arrows))


KRONECKER = Quiver(2, (Arrow("u", 0, 1), Arrow("v", 0, 1)))
LOOP_WITH_TAIL = parse_quiver("vertices: 2\narrow x 1 1\narrow t 1 2\n")[0]
# the path 1 -> 2 -> 3 -> 4 with the arrows 1 -> 4 and 2 -> 4: in piece
# (u, w, degree) = (1, 1, 0) the transition from stage 2 to stage 3 keeps
# one label, but the label of stage 2 ends at the sink 4 and has no image;
# the label of stage 3 reaches 4 by other last arrows
FAN_INTO_A_SINK = parse_quiver(
    "vertices: 4\narrow a 1 2\narrow b 1 4\narrow c 2 3\narrow d 2 4\narrow e 3 4\n")[0]
# the two-cycle a, c with both of its vertices sending an arrow to the sink
# 3: on the left route of a-c, a block with one label can hold a label whose
# stage path does not start with the arrow the step multiplies by, so the
# step maps it to 0
TWO_CYCLE_INTO_A_SINK = parse_quiver("vertices: 3\narrow a 1 2\narrow b 1 3\narrow c 2 1\narrow d 2 3\n")[0]


def stage_chains(quiver, m_max, trunc, fld, side):
    """Each chain of stage label lists the index-1 colimit reads, with its
    moves and its counted verdicts: for summand u, degree d = -ell - 1 and
    target w, the labels of stages -d .. m_max, the transitions between
    them, and whether `_uncertified` certifies each transition.  The counts
    of `_stage_labels` are checked against each label list, split by the end
    of the stage path each label's relation names.  Index 0 is left out: its
    stage moves are the identity."""
    rep_q = opposite(quiver) if side == "right" else quiver
    table, op_table = enumerate_paths(rep_q, m_max), enumerate_paths(opposite(rep_q), trunc)
    rows, cols = count_rows_and_columns(rep_q, m_max)
    images = [len(rep_q.arrows_from(x)) for x in rep_q.vertices]
    stages = {(u, m): _stage_presentation(rep_q, u, m, fld, table)
              for u in rep_q.vertices for m in range(1, m_max + 1)}
    for u in rep_q.vertices:
        moves = {m: relation_move(rep_q, stages[(u, m)], stages[(u, m + 1)], trivial_path(u))
                 for m in range(1, m_max)}
        for ell in range(m_max - 1):
            stage_range = range(ell + 1, m_max + 1)
            counted = [_stage_labels(rows, cols, u, -ell - 1, m, trunc) for m in stage_range]
            whole = _uncertified(counted, images)
            steps = [_uncertified(counted[k:k + 2], images) for k in range(len(counted) - 1)]
            for w in rep_q.vertices:
                chain = [free_term_basis(op_table, tuple((v, -dr) for v, dr in stages[(u, m)].relations),
                                         -ell - 1, w)
                         for m in stage_range]
                for m, labs, stage in zip(stage_range, chain, counted):
                    ends = [stages[(u, m)].relations[r][0] for r, _ in labs]
                    assert [stage.get((w, x), 0) for x in rep_q.vertices] == [
                        ends.count(x) for x in rep_q.vertices], (u, w, ell, m)
                verdicts = [w not in failed for failed in steps]
                assert (w not in whole) == all(verdicts), (u, w, ell)
                yield (u, w, ell), chain, [moves[m] for m in range(ell + 1, m_max)], verdicts


def composite(fld, chain, moves):
    """The unit vectors on the first labels of `chain`, pushed along each
    move through the next stage's labels: the square matrix of the
    composite, when the chain keeps one length."""
    vecs = Kernel.whole(fld, len(chain[0])).basis
    for src, dst, move in zip(chain, chain[1:], moves):
        index = {lab: k for k, lab in enumerate(dst)}
        vecs = [_push(fld, src, vec, move, index) for vec in vecs]
    return Matrix.from_columns(fld, vecs, len(chain[-1]))


def invertible(fld, chain, moves):
    return rank(composite(fld, chain, moves)) == len(chain[0])


@PROPERTY
@given(st.one_of(loops_with_tail(), st.just(KRONECKER), acyclic_quivers(), cycle_unions()),
       st.integers(3, 7), st.integers(-3, 1), st.sampled_from(["left", "right"]),
       st.sampled_from([Field(0), Field(2147483647)]))
@example(LOOP_WITH_TAIL, 6, 0, "left", Field(0))
@example(FAN_INTO_A_SINK, 4, 0, "left", Field(0))
def test_a_stage_transition_is_a_label_bijection_exactly_when_invertible(quiver, m_max, slack, side, fld):
    """A transition is certified by its counts exactly when it is a label
    bijection on the lists themselves, and a square transition with labels
    is one exactly when its pushed matrix has full rank; so a chain of one
    length passes every count verdict exactly when its pushed composite, the
    colimit's former certificate, has full rank."""
    for piece, chain, moves, verdicts in stage_chains(quiver, m_max, m_max + slack, fld, side):
        for src, dst, move, verdict in zip(chain, chain[1:], moves, verdicts):
            assert verdict == (len(src) == len(dst) and bijects(move, src, dst)), piece
            if src and len(src) == len(dst):
                assert verdict == invertible(fld, [src, dst], [move]), piece
        if chain[0] and all(len(labs) == len(chain[0]) for labs in chain):
            assert all(verdicts) == invertible(fld, chain, moves), piece


def test_the_loop_with_tail_has_square_transitions_that_are_not_bijections():
    """On the loop x with the tail t out of it, the piece (u, w) = (1, 1) of
    degree ell has two labels at every stage from ell + 2 on, but each
    transition there induces a matrix of rank 1 and is no label bijection.
    The first stage has one label, so the colimit refuses the piece by its
    counts at the first transition already."""
    fld = Field(0)
    seen = 0
    for (u, w, ell), chain, moves, verdicts in stage_chains(LOOP_WITH_TAIL, 6, 6, fld, "left"):
        if (u, w) != (0, 0):
            continue
        assert len(chain[0]) == 1
        for src, dst, move, verdict in zip(chain[1:], chain[2:], moves[1:], verdicts[1:]):
            assert len(src) == len(dst) == 2
            assert rank(composite(fld, [src, dst], [move])) == 1
            assert not bijects(move, src, dst) and not verdict
            seen += 1
    assert seen == 4 + 3 + 2 + 1


@PROPERTY
@given(st.one_of(cycle_unions(), loops_with_tail(), st.just(KRONECKER), acyclic_quivers()),
       st.integers(1, 8), st.sampled_from(["left", "right"]),
       st.sampled_from([Field(0), Field(2147483647)]))
@example(FAN_INTO_A_SINK, 6, "left", Field(0))
@example(TWO_CYCLE_INTO_A_SINK, 5, "left", Field(0))
def test_cycle_products_are_counted_as_the_label_routes_give_them(quiver, trunc, side, fld):
    """The cycle products counted off the path counts equal the ratio of the
    right-route and left-route composites walked on the labels of the
    stage-m_max presentations, at every m_max from 2 to trunc + 1, whatever
    the twist: the same cycles get an entry, and each entry is 1."""
    rep_q = opposite(quiver) if side == "right" else quiver
    images = [len(rep_q.arrows_from(x)) for x in rep_q.vertices]
    for m_max in range(2, trunc + 2):
        rows, cols = count_rows_and_columns(rep_q, m_max)
        counted = homology._cycle_products(rep_q, fld, 1, m_max, trunc, rows, cols, images)
        assert counted == cycle_products_by_routes(rep_q, fld, 1, m_max, trunc), m_max
        assert all(value == fld.one for value in counted.values())


@st.composite
def monomial_presentations(draw):
    """A presentation with one generator or one relation on a generated
    quiver, on either side and over either field.  Each entry is zero or a
    nonzero multiple of one path of length 0-3; the term it joins to the
    fixed one sits at that path's other end.  Repeated paths, paths that
    start another, and zero entries at any degree all occur."""
    quiver = draw(st.one_of(loops_with_tail(), st.just(KRONECKER), acyclic_quivers(), cycle_unions()))
    side = draw(st.sampled_from(["left", "right"]))
    fld = draw(st.sampled_from([Field(0), Field(2147483647)]))
    one_generator = draw(st.booleans())
    # entries are drawn as left data, paths from generator to relation, on
    # the quiver a right presentation is read on
    table = enumerate_paths(quiver if side == "left" else opposite(quiver), 3)
    vertex = st.sampled_from(list(quiver.vertices))
    fixed = (draw(vertex), draw(st.integers(-2, 2)))
    others, entries = [], []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 3)) == 0:
            others.append((draw(vertex), draw(st.integers(-3, 5))))
            entries.append(AlgElement.zero(fld))
            continue
        path = draw(st.sampled_from(table.paths(source=fixed[0]) if one_generator else
                                    table.paths(target=fixed[0])))
        others.append((path.target, fixed[1] + path.length) if one_generator else
                      (path.source, fixed[1] - path.length))
        scalar = fld.of(draw(st.integers(1, 4)) * draw(st.sampled_from([1, -1])))
        entries.append(AlgElement(fld, {path if side == "left" else _reverse_path(path): scalar}))
    if one_generator:
        return GradedPresentation(quiver, side, fld, (fixed,), tuple(others), (tuple(entries),))
    return GradedPresentation(quiver, side, fld, tuple(others), (fixed,), tuple((el,) for el in entries))


@PROPERTY
@given(monomial_presentations(), st.integers(1, 6))
def test_a_monomial_rank_is_counted_and_equals_the_elimination(pres, trunc):
    """Each counted rank of a monomial presentation, at every (degree,
    vertex) with labels on both sides, equals the rank of its F1 -> F0
    matrix, and no matrix is eliminated for it; the dimensions of both kinds
    are the label numbers minus that rank."""
    def refuse(m):
        raise AssertionError("a monomial rank ran an elimination")

    model = PresentationModel(pres, trunc)
    assert model._monomial
    gens, rels = model.pres.generators, model.pres.relations
    low = min(deg for _, deg in gens + rels)
    labels = {(d, v): (free_term_basis(model.table, gens, d, v), free_term_basis(model.table, rels, d, v))
              for d in range(low - 1, low + trunc + 5) for v in model.quiver.vertices}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homology, "rank", refuse)
        counted = {key: model._rank(*key) for key, (rows, cols) in labels.items() if rows and cols}
        dims = {key: (model.dim(*key, Quotient), model.dim(*key, Kernel)) for key in labels}
    for key, (rows, cols) in labels.items():
        r = rank(free_diff_matrix(pres.field, rows, cols, model.pres.entries)) if rows and cols else 0
        assert counted.get(key, 0) == r, key
        assert dims[key] == (len(rows) - r, len(cols) - r), key


@st.composite
def presentations(draw):
    """A presentation on a generated quiver, on either side and over either
    field: 1-3 generators in degrees 0-1 and 0-3 relations, each a path of
    length 1-2 out of one generator plus multiples of the other generators'
    paths to the same end and degree.  With no relation it presents a free
    module, truncated by the model."""
    quiver = draw(st.one_of(loops_with_tail(), st.just(KRONECKER), acyclic_quivers(), cycle_unions()))
    side = draw(st.sampled_from(["left", "right"]))
    fld = draw(st.sampled_from([Field(0), Field(2147483647)]))
    # entries are drawn as left data on the quiver a right presentation is read on
    table = enumerate_paths(quiver if side == "left" else opposite(quiver), 3)
    vertex = st.sampled_from(list(quiver.vertices))
    gens = tuple((draw(vertex), draw(st.integers(0, 1))) for _ in range(draw(st.integers(1, 3))))
    rels, columns = [], []
    for _ in range(draw(st.integers(0, 3))):
        g0 = draw(st.integers(0, len(gens) - 1))
        tops = [p for p in table.paths(source=gens[g0][0]) if 1 <= p.length <= 2]
        if not tops:
            continue
        top = draw(st.sampled_from(tops))
        rel = (top.target, gens[g0][1] + top.length)
        column = []
        for g, (gv, gd) in enumerate(gens):
            coeffs = {p: fld.of(draw(st.integers(-2, 2)))
                      for p in table.paths(source=gv, target=rel[0], length=rel[1] - gd)}
            if g == g0:
                coeffs[top] = fld.one
            column.append(AlgElement(fld, {p if side == "left" else _reverse_path(p): c
                                           for p, c in coeffs.items()}))
        rels.append(rel)
        columns.append(column)
    entries = tuple(tuple(column[g] for column in columns) for g in range(len(gens)))
    return GradedPresentation(quiver, side, fld, gens, tuple(rels), entries)


@PROPERTY
@given(presentations(), st.integers(2, 5))
def test_a_kill_matrix_stacks_the_products_of_the_arrow_actions(pres, trunc):
    """At every block (d, v) and length k the rational part can read (d + k
    at most trunc past the lowest generator degree), the kill matrix equals
    the stacked products of the arrow actions, and each path out of v maps
    the nonzero blocks at the other vertices of degree d to zero."""
    model = PresentationModel(pres, trunc)
    fld = pres.field
    top = trunc + min(deg for _, deg in model.pres.generators)
    for d in range(top - trunc, top):
        for v in model.quiver.vertices:
            if not model.dim(d, v):
                continue
            others = [w for w in model.quiver.vertices if w != v and model.dim(d, w)]
            for k in range(1, top - d + 1):
                assert _kill_matrix(model, d, v, k) == stacked_arrow_actions(model, d, v, k), (d, v, k)
                for p in model.table.paths(source=v, length=k):
                    dst = model.block(d + k, p.target)
                    for w in others:
                        assert is_zero_matrix(_induced_map(fld, model.block(d, w), dst, _left_mult(p))), (d, w, p)
