"""Seeded property suites, at least 100 cases each per quiver."""

import random
import zlib
from collections import Counter

import pytest

from quiverhom.exactlin import Field, Matrix
from quiverhom.pathcoalg import AlgElement, PathCoalgebra, bigraded_dims, convolve
from quiverhom.quiver import parse_quiver
from quiverhom.repmod import (
    arrow_ends,
    euler_pairing,
    graded_form,
    hom_dim,
    hom_ext1_dims,
    hom_space,
    linear_dual,
    presentation_of_rep,
    random_graded_rep,
    simple,
)
from quiverhom.homology import (
    ext_fd,
    ext_vs_algebra,
    hom_into_C,
)
from rep_helpers import dual_unit, ext1_via_presentation  # tests/rep_helpers.py

Q = Field(0)
QUIVERS = {
    "loop": parse_quiver("vertices: 1\narrow x 1 1\n")[0],
    "two_cycle": parse_quiver("vertices: 2\narrow x 1 2\narrow y 2 1\n")[0],
    "three_cycle": parse_quiver("vertices: 3\narrow a 1 2\narrow b 2 3\narrow c 3 1\n")[0],
    "kronecker": parse_quiver("vertices: 2\narrow u 1 2\narrow v 1 2\n")[0],
}
CASES = 100


def quiver_items(ids=None):
    names = ids or list(QUIVERS)
    return pytest.mark.parametrize("name", names)


@quiver_items()
def test_euler_form_identity(name):
    # hom_dim and ext_fd read one rank of one commutation matrix, so their
    # difference is the Euler form by construction; Ext^1 over M's
    # presentation, acting on N, is the independent input
    quiv = QUIVERS[name]
    rng = random.Random(zlib.crc32(repr(("euler", name)).encode()))
    for _ in range(CASES):
        m = random_graded_rep(quiv, rng, "left", Q, max_per_degree=1, max_degree=3)
        n = random_graded_rep(quiv, rng, "left", Q, max_per_degree=1, max_degree=3)
        assert hom_dim(m, n) - ext_fd(m, n, 1).total_dim == euler_pairing(m, n)
        hom, ext1 = hom_ext1_dims(m, n)
        assert ext1 == ext1_via_presentation(m, n)
        assert hom - ext1 == euler_pairing(m, n)


@quiver_items()
def test_coassociativity_and_counit(name):
    quiv = QUIVERS[name]
    coalg = PathCoalgebra(quiv, 6, Q)
    basis = coalg.basis()
    count = 0
    idx = 0
    while count < CASES:
        p = basis[idx % len(basis)]
        idx += 1
        splits = coalg.comultiply(p)
        assert len(splits) == p.length + 1
        assert [p2 for p2, p1 in splits if p1.length == 0] == [p]
        assert [p1 for p2, p1 in splits if p2.length == 0] == [p]
        one = sorted(((q2, q1, p1) for p2, p1 in splits
                      for q2, q1 in coalg.comultiply(p2)), key=repr)
        two = sorted(((p2, q2, q1) for p2, p1 in splits
                      for q2, q1 in coalg.comultiply(p1)), key=repr)
        assert one == two
        count += 1


@quiver_items()
def test_convolution_associativity(name):
    quiv = QUIVERS[name]
    basis = PathCoalgebra(quiv, 5, Q).basis()
    rng = random.Random(zlib.crc32(repr(("conv", name)).encode()))
    for _ in range(CASES):
        f, g, h = (
            AlgElement(Q, {p: rng.randint(-3, 3)
                           for p in rng.sample(basis, min(4, len(basis)))})
            for _ in range(3)
        )
        assert convolve(convolve(f, g, 5), h, 5) == convolve(f, convolve(g, h, 5), 5)
        eps = dual_unit(quiv, Q)
        assert convolve(eps, f, 5) == f and convolve(f, eps, 5) == f


@quiver_items()
def test_duality_involution_hom_dims(name):
    quiv = QUIVERS[name]
    rng = random.Random(zlib.crc32(repr(("dual", name)).encode()))
    for _ in range(CASES):
        m = random_graded_rep(quiv, rng, "left", Q, max_per_degree=1, max_degree=3)
        n = random_graded_rep(quiv, rng, "left", Q, max_per_degree=1, max_degree=3)
        assert hom_dim(m, n) == hom_dim(linear_dual(n), linear_dual(m))


@quiver_items()
def test_double_dual_complex_roundtrip(name):
    quiv = QUIVERS[name]
    rng = random.Random(zlib.crc32(repr(("dd", name)).encode()))
    for _ in range(CASES):
        m = random_graded_rep(quiv, rng, "left", Q, max_per_degree=1, max_degree=2)
        dual = linear_dual(m)
        dd = linear_dual(dual)
        assert dd.side == m.side and dd.dims == m.dims and dd.maps == m.maps
        assert hom_dim(m, m) == hom_dim(dual, dual)


@quiver_items(["loop", "two_cycle", "three_cycle"])
def test_phi_check_through_degree_six(name):
    quiv = QUIVERS[name]
    rng = random.Random(zlib.crc32(repr(("phi", name)).encode()))
    done = 0
    while done < CASES:
        m = random_graded_rep(quiv, rng, "left", Q, max_per_degree=1, max_degree=2)
        if m.total_dim == 0:
            continue
        g, degrees = graded_form(m)
        report = hom_into_C(presentation_of_rep(g, degrees), 7)
        # Hom(M, C) is the graded dual of M
        assert report.dims_by_degree == Counter(d for fiber in degrees for d in fiber)
        done += 1


@quiver_items()
def test_graded_finality_under_truncation_increase(name):
    quiv = QUIVERS[name]
    small = bigraded_dims(quiv, 6)
    large = bigraded_dims(quiv, 9)
    for ell in range(7):
        assert small.matrix(ell) == large.matrix(ell)
    for v in quiv.vertices:
        s = simple(quiv, v, "left", Q)
        a = ext_vs_algebra(s, 1, 10)
        b = ext_vs_algebra(s, 1, 12)
        assert a.graded_dims == b.graded_dims
        assert a.total_dim == b.total_dim


@quiver_items()
def test_double_dual_two_term_complexes(name):
    """Random two-term complexes f: M -> N: the componentwise transpose of f
    is a morphism D(N) -> D(M) of the linear duals."""
    quiv = QUIVERS[name]
    rng = random.Random(zlib.crc32(repr(("dd2", name)).encode()))
    built = 0
    attempts = 0
    while built < CASES and attempts < CASES * 4:
        attempts += 1
        m = random_graded_rep(quiv, rng, "left", Q, max_per_degree=1, max_degree=2)
        n = random_graded_rep(quiv, rng, "left", Q, max_per_degree=1, max_degree=2)
        morphisms = hom_space(m, n)
        if not morphisms:
            continue
        coeffs = [rng.randint(-2, 2) for _ in morphisms]
        transposed = []
        for v in quiv.vertices:
            acc = Matrix.zeros(Q, n.dims[v], m.dims[v])
            for c, mor in zip(coeffs, morphisms):
                if c:
                    acc = acc + mor[v].scale(c)
            transposed.append(acc.transpose())
        dm, dn = linear_dual(m), linear_dual(n)
        for ai, a in enumerate(quiv.arrows):
            dom, cod = arrow_ends(dn.side, a)
            assert transposed[cod] * dn.maps[ai] == dm.maps[ai] * transposed[dom]
        built += 1
    assert built >= CASES // 2


@quiver_items(["loop", "two_cycle", "three_cycle"])
def test_presentation_functor_finality(name):
    """Rational part and Hom into C reproduce certified degrees at larger N."""
    import random as _random

    from quiverhom.homology import hom_into_C, rational_part
    from quiverhom.repmod import presentation_of_rep

    quiv = QUIVERS[name]
    rng = _random.Random(zlib.crc32(repr(("final", name)).encode()))
    done = 0
    while done < 10:
        m = random_graded_rep(quiv, rng, "left", Q, max_per_degree=1, max_degree=2)
        if m.total_dim == 0:
            continue
        pres = presentation_of_rep(m)
        small = rational_part(pres, 10)
        large = rational_part(pres, 13)
        assert small.dims_by_degree == large.dims_by_degree
        h_small = hom_into_C(pres, 8)
        h_large = hom_into_C(pres, 11)
        for d, n in h_small.dims_by_degree.items():
            if d <= 8:
                assert h_large.dims_by_degree.get(d, 0) == n
        done += 1
