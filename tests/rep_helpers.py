"""Reference constructions on representations that only the tests need.

Imported by test modules as `from rep_helpers import ...` (pytest puts
`tests/` on the import path).
"""

from __future__ import annotations

import random
import sys
from collections import Counter

from quiverhom import cli, homology, regularity, repmod
from quiverhom.exactlin import Matrix, rank
from quiverhom.repmod import Rep, arrow_ends, hom_space


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
        maps.append(top.vstack(bottom))
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
