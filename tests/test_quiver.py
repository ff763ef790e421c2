import math
from pathlib import Path as FilePath

import pytest

from quiverhom import quiver as quiver_module
from quiverhom.quiver import (
    GrowthVerdict,
    Path,
    QuiverParseError,
    compose,
    enumerate_paths,
    growth_gate,
    opposite,
    parse_quiver,
    path_count_matrices,
    trivial_path,
    _scc_cycle_data,
)
from rep_helpers import adjacency_powers  # tests/rep_helpers.py


LOOP = "vertices: 1\narrow x 1 1\n"
TWO_CYCLE = "vertices: 2\narrow x 1 2\narrow y 2 1\n"
KRONECKER = "vertices: 2\narrow u 1 2\narrow v 1 2\n"
TWO_LOOPS = "vertices: 1\narrow x 1 1\narrow y 1 1\n"
NO_ARROW = "vertices: 1\n"
THREE_CYCLE = "vertices: 3\narrow a 1 2\narrow b 2 3\narrow c 3 1\n"


def q(text):
    return parse_quiver(text)[0]


def test_parse_loop():
    quiv, fld = parse_quiver(LOOP)
    assert quiv.vertex_count == 1
    assert len(quiv.arrows) == 1
    assert quiv.arrows[0].source == 0 and quiv.arrows[0].target == 0
    assert fld.characteristic == 0


def test_parse_two_cycle_and_field():
    quiv, fld = parse_quiver(TWO_CYCLE + "field: F7\n")
    assert quiv.vertex_count == 2
    assert fld.characteristic == 7


def test_parse_duplicate_label():
    with pytest.raises(QuiverParseError, match="line 3"):
        parse_quiver("vertices: 2\narrow x 1 2\narrow x 2 1\n")


def test_parse_out_of_range():
    with pytest.raises(QuiverParseError, match="out of range"):
        parse_quiver("vertices: 2\narrow x 1 3\n")


def test_parse_malformed():
    with pytest.raises(QuiverParseError, match="line 2"):
        parse_quiver("vertices: 1\nzigzag\n")


def test_parse_comments_ok():
    quiv, _ = parse_quiver("# a loop\nvertices: 1\n\narrow x 1 1\n")
    assert len(quiv.arrows) == 1


def test_compose_convention():
    quiv = q(TWO_CYCLE)
    x = Path(0, 1, (0,))
    y = Path(1, 0, (1,))
    yx = compose(y, x)  # traverse x first, then y
    assert yx.source == 0 and yx.target == 0
    assert yx.arrows == (0, 1)
    with pytest.raises(ValueError):
        compose(x, x)


def test_enumerate_loop():
    quiv = q(LOOP)
    table = enumerate_paths(quiv, 3)
    for ell in range(4):
        assert len(table.by_length[ell]) == 1


def test_enumerate_two_cycle_parity():
    quiv = q(TWO_CYCLE)
    table = enumerate_paths(quiv, 4)
    for ell in range(5):
        for s in (0, 1):
            ends = [p.target for p in table.paths(source=s, length=ell)]
            assert len(ends) == 1
            assert ends[0] == (s if ell % 2 == 0 else 1 - s)
    # lengths outside the table select no paths
    assert table.paths(source=0, length=-1) == []
    assert table.paths(source=0, length=5) == []
    assert table.paths(source=0, target=1, length=3) == [p for p in table.by_length[3] if p.source == 0]
    # a query with both ends and the length is served from an index: same
    # paths and order as the scan, and a fresh list each time
    for text in (KRONECKER, THREE_CYCLE, TWO_LOOPS):
        table = enumerate_paths(q(text), 4)
        for s in table.quiver.vertices:
            for t in table.quiver.vertices:
                for ell in range(-1, 6):
                    got = table.paths(source=s, target=t, length=ell)
                    scan = [p for p in table.paths(source=s, length=ell) if p.target == t]
                    assert got == scan
                    got.append(None)
                    assert table.paths(source=s, target=t, length=ell) == scan


def test_enumerate_no_arrows():
    quiv = q(NO_ARROW)
    table = enumerate_paths(quiv, 5)
    assert table.paths() == [trivial_path(0)]


def test_counts_match_adjacency_powers():
    for text in (LOOP, TWO_CYCLE, KRONECKER, THREE_CYCLE):
        quiv = q(text)
        table = enumerate_paths(quiv, 5)
        all_counts = path_count_matrices(quiv, 5)
        assert len(all_counts) == 6
        for ell, counts in enumerate(all_counts):
            for s in quiv.vertices:
                for t in quiv.vertices:
                    assert counts[s][t] == len(table.paths(s, t, ell))
                assert table.paths(s, t, -1) == table.paths(s, t, 6) == []


def test_gate_two_cycle_bounded_period_2():
    verdict = growth_gate(q(TWO_CYCLE))
    assert verdict.bounded
    assert verdict.period == 2
    # memoized: an equal quiver gets the same frozen verdict object
    assert growth_gate(q(TWO_CYCLE)) is verdict


def test_gate_two_loops_unbounded_with_witness():
    verdict = growth_gate(q(TWO_LOOPS))
    assert not verdict.bounded
    w = verdict.witness
    p1, p2 = w["paths"]
    assert p1 != p2
    assert p1.length == p2.length == 1
    assert w["vertex_pair"] == (0, 0)


def test_gate_acyclic_bounded():
    verdict = growth_gate(q(KRONECKER))
    assert verdict.bounded
    # path counts vanish beyond length 1
    assert path_count_matrices(q(KRONECKER), 2)[2] == [[0, 0], [0, 0]]


def test_gate_linked_cycles_unbounded():
    text = "vertices: 2\narrow x 1 1\narrow t 1 2\narrow y 2 2\n"
    verdict = growth_gate(q(text))
    assert not verdict.bounded
    p1, p2 = verdict.witness["paths"]
    assert p1 != p2
    assert p1.length == p2.length
    assert (p1.source, p1.target) == (p2.source, p2.target)


def test_gate_bounded_periodicity_certificate():
    for text in (LOOP, TWO_CYCLE, THREE_CYCLE, NO_ARROW):
        verdict = growth_gate(q(text))
        assert verdict.bounded
        # certificate: counts at transient+period equal counts at transient
        counts = path_count_matrices(q(text), verdict.transient + verdict.period)
        assert counts[verdict.transient] == counts[verdict.transient + verdict.period]


def test_opposite_involution():
    for text in (LOOP, TWO_CYCLE, KRONECKER):
        quiv = q(text)
        assert opposite(opposite(quiv)) == quiv


def test_opposite_swaps_two_cycle():
    quiv = opposite(q(TWO_CYCLE))
    assert quiv.arrows[0].source == 1 and quiv.arrows[0].target == 0
    assert quiv.arrows[0].label == "x"


def test_opposite_enumeration_mirrors():
    quiv = q(THREE_CYCLE)
    table = enumerate_paths(quiv, 4)
    table_op = enumerate_paths(opposite(quiv), 4)
    for ell in range(5):
        for s in quiv.vertices:
            for t in quiv.vertices:
                assert len(table.paths(s, t, ell)) == len(table_op.paths(t, s, ell))


# ----------------------------------------------------------------- gate and count contract

EXAMPLES = FilePath(__file__).resolve().parent.parent / "examples_quivers"


def cycle(order):
    """The oriented cycle visiting the 1-based vertices in `order`."""
    arrows = "".join(f"arrow a{v} {v} {order[(k + 1) % len(order)]}\n" for k, v in enumerate(order))
    return f"vertices: {len(order)}\n{arrows}"


def eager_gate(quiv):
    """The bounded verdict as the gate first computed it: every power through
    the horizon multiplied up front, then the first repeat searched."""
    period = math.lcm(*(c["length"] for c in _scc_cycle_data(quiv) if c["kind"] == "cycle"))
    horizon = 2 * (quiv.vertex_count + len(quiv.arrows)) + 2 * period + 4
    powers = adjacency_powers(quiv, horizon + period)
    transient = next(t for t in range(1, horizon + 1) if powers[t + period] == powers[t])
    bound = max(sum(sum(row) for row in powers[t]) for t in range(1, transient + period + 1))
    return GrowthVerdict(True, period=period, degree_bound=max(bound, quiv.vertex_count),
                         transient=transient)


def clear_count_caches():
    growth_gate.cache_clear()
    quiver_module._count_sequence.cache_clear()


TAIL_INTO_LOOP = "vertices: 3\narrow x 1 1\narrow s 2 1\narrow t 3 2\n"
A2 = "vertices: 2\narrow x 1 2\n"
TWO_AND_THREE = "vertices: 5\narrow a 1 2\narrow b 2 1\narrow c 3 4\narrow d 4 5\narrow e 5 3\n"
BOUNDED = {
    **{path.stem: path.read_text() for path in sorted(EXAMPLES.glob("*.quiver")) if path.stem != "two_loops"},
    **{f"cycle {order}": cycle(order) for order in
       ([1], [1, 2], [1, 2, 3], [1, 3, 2], [1, 2, 3, 4], [1, 3, 2, 4], [1, 2, 3, 4, 5], [1, 2, 3, 5, 4])},
    "tail into a loop": TAIL_INTO_LOOP,
    "a2": A2,
    "two cycle and three cycle": TWO_AND_THREE,
}


@pytest.mark.parametrize("name", sorted(BOUNDED))
def test_gate_matches_the_eager_reference(name):
    clear_count_caches()
    quiv = q(BOUNDED[name])
    assert growth_gate(quiv) == eager_gate(quiv)


def test_gate_reference_covers_transient_and_period():
    assert (growth_gate(q(TAIL_INTO_LOOP)).transient, growth_gate(q(A2)).transient) == (2, 2)
    assert growth_gate(q(TWO_AND_THREE)).period == 6


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_gate_grows_counts_only_through_the_first_repeat(n):
    # on an n-cycle T = 1 and P = n, so N_0 .. N_(n+1) are all the gate needs
    clear_count_caches()
    quiv = q(cycle(list(range(1, n + 1))))
    assert growth_gate(quiv).transient == 1
    assert len(quiver_module._count_sequence(quiv)) == n + 2


def test_unbounded_gate_grows_no_counts():
    clear_count_caches()
    assert not growth_gate(q(TWO_LOOPS)).bounded
    assert quiver_module._count_sequence.cache_info().currsize == 0


def test_path_count_matrices_returns_a_fresh_list():
    quiv = q(THREE_CYCLE)
    first = path_count_matrices(quiv, 4)
    first.append("extra")
    first[0] = None
    assert path_count_matrices(quiv, 4) == adjacency_powers(quiv, 4)
    assert path_count_matrices(quiv, 2) == adjacency_powers(quiv, 2)
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert path_count_matrices(quiv, 0) == path_count_matrices(quiv, -3) == [identity]
