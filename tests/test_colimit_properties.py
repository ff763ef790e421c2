"""The path-count oracle for local cohomology, as a property on generated
disjoint unions of oriented cycles.

At index 1 the colimit piece (u, w, ell) of H^1(A) is read at stage m_max in
degree d = -ell - 1, so its dimension is the number of pairs of a path
u -> v of length m_max and a path w -> v of length m_max - ell - 1:
(N_m_max . N_(m_max-ell-1)^T)[u][w].  On the right side the quiver is read
opposite, so N is transposed.  N is computed here from plain adjacency
products (`rep_helpers.adjacency_powers`), independently of the package's
count sequence.  Acyclic quivers are left out: their H^1 is refused today.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from quiverhom.exactlin import Field  # noqa: E402
from quiverhom.homology import local_cohomology  # noqa: E402
from quiverhom.quiver import Arrow, Quiver, opposite  # noqa: E402
from rep_helpers import adjacency_powers  # noqa: E402  (tests/rep_helpers.py)

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
