import random

from rep_helpers import dual_idempotent, dual_unit  # tests/rep_helpers.py

from quiverhom.exactlin import Field
from quiverhom.pathcoalg import (
    AlgElement,
    PathCoalgebra,
    TruncatedDualAlgebra,
    bigraded_dims,
    comultiply,
)
from quiverhom.quiver import Path, parse_quiver, trivial_path


Q = Field(0)
LOOP = parse_quiver("vertices: 1\narrow x 1 1\n")[0]
TWO_CYCLE = parse_quiver("vertices: 2\narrow x 1 2\narrow y 2 1\n")[0]
NO_ARROW = parse_quiver("vertices: 1\n")[0]


def test_comultiply_trivial():
    e = trivial_path(0)
    assert comultiply(NO_ARROW, e) == [(e, e)]


def test_comultiply_arrow():
    x = Path(0, 1, (0,))
    e0, e1 = trivial_path(0), trivial_path(1)
    assert comultiply(TWO_CYCLE, x) == [(x, e0), (e1, x)]


def test_comultiply_length_two():
    yx = Path(0, 0, (0, 1))  # x then y on the 2-cycle
    splits = comultiply(TWO_CYCLE, yx)
    assert len(splits) == 3
    for p2, p1 in splits:
        assert p1.source == 0 and p2.target == 0
        assert p2.source == p1.target
        assert p1.length + p2.length == 2


def test_counit_laws_and_coassociativity():
    for quiv in (LOOP, TWO_CYCLE):
        coalg = PathCoalgebra(quiv, 5, Q)
        for p in coalg.basis():
            splits = coalg.comultiply(p)
            assert len(splits) == p.length + 1
            # counit laws: the splitting with trivial first (resp. second) leg
            lefts = [p2 for p2, p1 in splits if p1.length == 0]
            rights = [p1 for p2, p1 in splits if p2.length == 0]
            assert lefts == [p] and rights == [p]
            # coassociativity: both double splittings give the same triple multiset
            one = []
            for p2, p1 in splits:
                for q2, q1 in coalg.comultiply(p2):
                    one.append((q2, q1, p1))
            two = []
            for p2, p1 in splits:
                for q2, q1 in coalg.comultiply(p1):
                    two.append((p2, q2, q1))
            assert sorted(one, key=repr) == sorted(two, key=repr)


def test_convolution_unit():
    alg = TruncatedDualAlgebra(TWO_CYCLE, 4, Q)
    eps = dual_unit(TWO_CYCLE, Q)
    rng = random.Random(5)
    basis = alg.coalgebra.basis()
    for _ in range(20):
        f = AlgElement(Q, {p: rng.randint(-3, 3) for p in rng.sample(basis, 3)})
        assert alg.convolve(eps, f) == f
        assert alg.convolve(f, eps) == f


def test_idempotents_orthogonal():
    alg = TruncatedDualAlgebra(TWO_CYCLE, 3, Q)
    e0, e1 = dual_idempotent(Q, 0), dual_idempotent(Q, 1)
    assert alg.convolve(e0, e0) == e0
    assert alg.convolve(e1, e1) == e1
    assert alg.convolve(e0, e1).is_zero()
    assert alg.convolve(e1, e0).is_zero()


def test_dual_basis_multiplication_loop():
    alg = TruncatedDualAlgebra(LOOP, 4, Q)
    x = AlgElement.dual_path(Q, Path(0, 0, (0,)))
    xx = alg.convolve(x, x)
    assert xx == AlgElement.dual_path(Q, Path(0, 0, (0, 0)))


def test_convolution_associative_random():
    rng = random.Random(11)
    for quiv in (LOOP, TWO_CYCLE):
        alg = TruncatedDualAlgebra(quiv, 4, Q)
        basis = alg.coalgebra.basis()
        for _ in range(30):
            f, g, h = (
                AlgElement(Q, {p: rng.randint(-2, 2) for p in rng.sample(basis, min(3, len(basis)))})
                for _ in range(3)
            )
            assert alg.convolve(alg.convolve(f, g), h) == alg.convolve(f, alg.convolve(g, h))


def test_bigraded_dims_examples():
    d = bigraded_dims(TWO_CYCLE, 2)
    assert d.matrix(0) == [[1, 0], [0, 1]]
    assert d.matrix(1) == [[0, 1], [1, 0]]
    d_loop = bigraded_dims(LOOP, 4)
    for ell in range(5):
        assert d_loop.matrix(ell) == [[1]]


def test_bigraded_dims_direction():
    # one arrow 1 -> 2: a single path from 1 to 2 at degree 1, so D_1[i=2][j=1] = 1
    quiv = parse_quiver("vertices: 2\narrow a 1 2\n")[0]
    d = bigraded_dims(quiv, 1)
    assert d.matrix(1) == [[0, 0], [1, 0]]
