"""A short battery of larger random modules through the main cross-checks."""

import random

from quiverhom.exactlin import Field
from quiverhom.quiver import parse_quiver
from quiverhom.repmod import (
    euler_pairing,
    hom_dim,
    linear_dual,
    presentation_of_rep,
    random_graded_rep,
)
from quiverhom.homology import ext_fd, ext_vs_algebra, rational_part

Q = Field(0)
QUIVERS = [
    parse_quiver("vertices: 1\narrow x 1 1\n")[0],
    parse_quiver("vertices: 2\narrow x 1 2\narrow y 2 1\n")[0],
]


def test_larger_modules_cross_checks():
    rng = random.Random(77)
    for quiv in QUIVERS:
        done = 0
        while done < 4:
            m = random_graded_rep(quiv, rng, "left", Q, max_per_degree=2, max_degree=4)[0]
            n = random_graded_rep(quiv, rng, "left", Q, max_per_degree=2, max_degree=4)[0]
            if m.total_dim == 0 or n.total_dim == 0:
                continue
            assert hom_dim(m, n) - ext_fd(m, n, 1).total_dim == euler_pairing(m, n)
            assert hom_dim(m, n) == hom_dim(linear_dual(n), linear_dual(m))
            e1 = ext_vs_algebra(m, 1, 14).total_dim
            rat = rational_part(presentation_of_rep(m), 14).total_dim
            assert e1 == rat == m.total_dim
            done += 1
