import random

import pytest

from quiverhom.exactlin import Field
from quiverhom.quiver import parse_quiver
from quiverhom.repmod import (
    NotNilpotentError,
    direct_sum,
    euler_pairing,
    graded_form,
    hom_dim,
    hom_space,
    identity_twist,
    is_isomorphic,
    linear_dual,
    random_graded_rep,
    rep_from_matrices,
    simple,
    truncated_free,
    truncated_free_rep,
    truncated_injective,
    twist,
    uniserial,
    VertexTwist,
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
    assert s.maps[0].is_zero_matrix()


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
    from quiverhom.exactlin import kernel_basis

    assert len(kernel_basis(inj.maps[0])) == 1


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
    # identity is in the span: check an invertible combination exists
    assert is_isomorphic(m, m)


def test_side_mismatch_rejected():
    with pytest.raises(ValueError):
        hom_space(simple(LOOP, 0, "left", Q), simple(LOOP, 0, "right", Q))


def test_dual_involution_and_hom_dims():
    rng = random.Random(31)
    for quiv in (LOOP, TWO_CYCLE):
        for _ in range(10):
            m = random_graded_rep(quiv, rng, "left", Q)
            n = random_graded_rep(quiv, rng, "left", Q)
            assert hom_dim(m, n) == hom_dim(linear_dual(n), linear_dual(m))
            dd = linear_dual(linear_dual(m))
            assert dd.side == m.side and dd.dims == m.dims
            assert is_isomorphic(dd, m)


def test_dual_of_injective_is_truncated_free():
    for quiv in (LOOP, TWO_CYCLE):
        for v in quiv.vertices:
            inj = truncated_injective(quiv, v, 3, "right", Q)
            free = truncated_free_rep(quiv, v, 3, "left", Q)
            dual = linear_dual(inj)
            assert dual.side == "left"
            assert dual.dims == free.dims
            assert is_isomorphic(dual, free)


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
    assert is_isomorphic(twist(m, t), m)


def test_twist_preserves_hom_dims():
    swap = VertexTwist((1, 0), (1, 0), (1, -1))
    rng = random.Random(8)
    for _ in range(8):
        m = random_graded_rep(TWO_CYCLE, rng, "left", Q)
        n = random_graded_rep(TWO_CYCLE, rng, "left", Q)
        assert hom_dim(m, n) == hom_dim(twist(m, swap), twist(n, swap))


def test_twist_inverse_roundtrip():
    swap = VertexTwist((1, 0), (1, 0), (3, 5))
    inv = swap.inverse(TWO_CYCLE, Q)
    rng = random.Random(9)
    m = random_graded_rep(TWO_CYCLE, rng, "left", Q)
    assert is_isomorphic(twist(twist(m, swap), inv), m)


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


def test_graded_form_random_cycles():
    rng = random.Random(70)
    for quiv in (LOOP, TWO_CYCLE, THREE_CYCLE):
        for _ in range(10):
            m = random_graded_rep(quiv, rng, "left", Q)
            g, degs = graded_form(m)
            assert g.dims == m.dims
            assert is_isomorphic(g, m)


def test_graded_form_level_quiver():
    rng = random.Random(71)
    for _ in range(8):
        m = random_graded_rep(KRONECKER, rng, "left", Q)
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
    assert is_isomorphic(free, s)
