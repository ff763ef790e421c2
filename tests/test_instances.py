"""Integration coverage beyond the core worked examples: disjoint unions,
longer cycles, prime-field runs, and gate-passing instances where truncated
certificates genuinely cannot be issued."""

import pytest

from quiverhom.exactlin import Field
from quiverhom.quiver import growth_gate, parse_quiver
from quiverhom.repmod import simple, uniserial
from quiverhom.homology import StabilizationError, ext_vs_algebra, local_cohomology
from quiverhom.regularity import as_regular_check, cy_check, nakayama

Q = Field(0)
F7 = Field(7)

TWO_DISJOINT_LOOPS = parse_quiver("vertices: 2\narrow x 1 1\narrow y 2 2\n")[0]
LOOP_PLUS_TWO_CYCLE = parse_quiver("vertices: 3\narrow x 1 1\narrow a 2 3\narrow b 3 2\n")[0]
FOUR_CYCLE = parse_quiver("vertices: 4\narrow a 1 2\narrow b 2 3\narrow c 3 4\narrow d 4 1\n")[0]
LOOP = parse_quiver("vertices: 1\narrow x 1 1\n")[0]
LOOP_PLUS_POINT = parse_quiver("vertices: 2\narrow x 1 1\n")[0]
LOOP_WITH_TAIL = parse_quiver("vertices: 2\narrow x 1 1\narrow t 1 2\n")[0]


def test_two_disjoint_loops_cy():
    verdict = as_regular_check(TWO_DISJOINT_LOOPS, 8, Q)
    assert verdict.as_regular and verdict.gldim == 1
    nak = nakayama(TWO_DISJOINT_LOOPS, 8, 6, Q)
    assert nak.vertex_map == (0, 1)
    assert nak.inner == "yes"
    assert len(nak.localcoh.cycle_products) == 2
    family = [simple(TWO_DISJOINT_LOOPS, 0, "left", Q),
              simple(TWO_DISJOINT_LOOPS, 1, "left", Q),
              uniserial(TWO_DISJOINT_LOOPS, 0, 2, "left", Q)]
    assert cy_check(TWO_DISJOINT_LOOPS, family, 8, 6, Q)["verdict"] == "CY-1"


def test_loop_plus_two_cycle_mixed_twist():
    # identity on the loop component, swap on the cycle component
    gate = growth_gate(LOOP_PLUS_TWO_CYCLE)
    assert gate.bounded and gate.period == 2
    nak = nakayama(LOOP_PLUS_TWO_CYCLE, 10, 8, Q)
    assert nak.vertex_map == (0, 2, 1)
    assert nak.order == 2
    assert nak.inner == "no"


def test_four_cycle_order_four():
    nak = nakayama(FOUR_CYCLE, 12, 10, Q)
    assert nak.order == 4
    assert sorted(nak.vertex_map) == [0, 1, 2, 3]
    assert nak.inner == "no"


def test_prime_field_end_to_end():
    verdict = as_regular_check(LOOP, 8, F7)
    assert verdict.as_regular
    assert verdict.field.characteristic == 7
    nak = nakayama(LOOP, 8, 6, F7)
    assert nak.inner == "yes"
    h1 = local_cohomology(LOOP, 1, 6, 8, F7)
    assert h1.twist_sigma == (0,)


def test_isolated_vertex_breaks_regularity():
    verdict = as_regular_check(LOOP_PLUS_POINT, 8, Q)
    assert not verdict.as_regular
    assert any(f["simple"] == 2 and f["degree"] == 0 and f["dimension"] == 1
               for f in verdict.failures)


def test_gate_passing_non_artinian_instance_reports_persistence():
    # a loop with an exit tail has bounded path growth, yet Hom(S_2, A) is
    # infinite-dimensional; the engine must refuse with a diagnosis that
    # enlarging the truncation cannot fix
    assert growth_gate(LOOP_WITH_TAIL).bounded
    with pytest.raises(StabilizationError) as err:
        ext_vs_algebra(simple(LOOP_WITH_TAIL, 1, "left", Q), 0, 10)
    assert "persist" in err.value.suggestion


def test_three_cycle_injective_roundtrips_all_vertices():
    from quiverhom.homology import duality_roundtrip_injective

    THREE = parse_quiver("vertices: 3\narrow a 1 2\narrow b 2 3\narrow c 3 1\n")[0]
    verdicts = duality_roundtrip_injective(THREE, 9, 12, Q)
    assert len(verdicts) == THREE.vertex_count
    assert all(verdict["passes"] for verdict in verdicts)


def test_one_sided_twists_are_mutually_inverse():
    THREE = parse_quiver("vertices: 3\narrow a 1 2\narrow b 2 3\narrow c 3 1\n")[0]
    h_left = local_cohomology(THREE, 1, 9, 12, Q, side="left")
    h_right = local_cohomology(THREE, 1, 9, 12, Q, side="right")
    left, right = h_left.twist_sigma, h_right.twist_sigma
    assert left is not None and right is not None
    assert all(right[left[v]] == v for v in THREE.vertices)


def test_serre_identities_hold_on_both_sides():
    THREE = parse_quiver("vertices: 3\narrow a 1 2\narrow b 2 3\narrow c 3 1\n")[0]
    for side in ("left", "right"):
        family = [simple(THREE, v, side, Q) for v in THREE.vertices]
        family.append(uniserial(THREE, 0, 2, side, Q))
        result = cy_check(THREE, family, 12, 9, Q)
        assert all(row["holds"] for row in result["identities"]), side


def test_functor_values_as_module_structures():
    """Module-level identifications, not just dimension counts.

    For finite-dimensional M: the rational part is M itself, Hom(M, C) is
    the linear dual, and top Ext against the algebra is the dual twisted by
    the inverse Nakayama vertex map (plain dual exactly when the twist is
    inner).  The self-inverse swap hides the direction; the 3-cycle pins it.
    """
    import random

    from rep_helpers import assert_isomorphic, ext_rep, hom_into_C_rep, rational_part_rep

    from quiverhom.repmod import (
        VertexTwist,
        linear_dual,
        presentation_of_rep,
        random_graded_rep,
        twist,
    )
    from quiverhom.regularity import _arrow_matching, nakayama

    cases = {
        "loop": (parse_quiver("vertices: 1\narrow x 1 1\n")[0], 10, 8),
        "two_cycle": (parse_quiver("vertices: 2\narrow x 1 2\narrow y 2 1\n")[0], 10, 8),
        "three_cycle": (parse_quiver("vertices: 3\narrow a 1 2\narrow b 2 3\narrow c 3 1\n")[0], 12, 9),
    }
    rng = random.Random(41)
    for name, (quiv, trunc, mmax) in cases.items():
        nak = nakayama(quiv, trunc, mmax, Q)
        inv = [0] * quiv.vertex_count
        for v, w in enumerate(nak.twist.sigma):
            inv[w] = v
        t_inv = VertexTwist(tuple(inv), _arrow_matching(quiv, tuple(inv)),
                            tuple(Q.one for _ in quiv.arrows))
        done = 0
        while done < 3:
            m = random_graded_rep(quiv, rng, "left", Q, max_per_degree=1, max_degree=2)
            if m.total_dim == 0:
                continue
            dual = linear_dual(m)
            pres = presentation_of_rep(m)
            assert_isomorphic(rational_part_rep(pres, trunc), m)
            assert_isomorphic(hom_into_C_rep(pres, trunc), dual)
            e1 = ext_rep(m, 1, trunc)
            assert_isomorphic(e1, twist(dual, t_inv))
            done += 1


def test_char_two_end_to_end():
    F2 = Field(2)
    TWO = parse_quiver("vertices: 2\narrow x 1 2\narrow y 2 1\n")[0]
    nak = nakayama(TWO, 10, 8, F2)
    assert nak.vertex_map == (1, 0)
    assert nak.inner == "no"


def test_linked_cycles_with_longer_transit():
    linked = parse_quiver(
        "vertices: 3\narrow x 1 1\narrow s 1 2\narrow t 2 3\narrow y 3 3\n")[0]
    verdict = growth_gate(linked)
    assert not verdict.bounded
    assert verdict.witness["kind"] == "path linking two cycles"
    p1, p2 = verdict.witness["paths"]
    assert p1 != p2
    assert p1.length == p2.length
    assert (p1.source, p1.target) == (p2.source, p2.target) == (0, 2)


def test_five_cycle_rotation():
    lines = ["vertices: 5"] + [f"arrow a{k} {k + 1} {(k + 1) % 5 + 1}" for k in range(5)]
    quiv = parse_quiver("\n".join(lines))[0]
    verdict = as_regular_check(quiv, 14, Q)
    assert verdict.as_regular
    nak = nakayama(quiv, 14, 12, Q)
    assert nak.order == 5
    assert nak.inner == "no"


def test_loop_deep_truncation():
    h = local_cohomology(LOOP, 1, 18, 20, Q)
    assert h.max_degree == 16
    assert all(h.dim(0, 0, ell) == 1 for ell in range(h.max_degree + 1))


def test_unicode_labels_parse_and_compute():
    quiv, fld = parse_quiver("vertices: 2\narrow α 1 2\narrow β 2 1\n")
    assert quiv.arrows[0].label == "α"
    verdict = as_regular_check(quiv, 10, fld)
    assert verdict.as_regular


def test_force_allows_finite_dimensional_work_on_unbounded_quiver():
    from quiverhom.homology import ext_fd
    from quiverhom.repmod import rep_from_matrices

    two_loops = parse_quiver("vertices: 1\narrow x 1 1\narrow y 1 1\n")[0]
    assert not growth_gate(two_loops).bounded
    m = rep_from_matrices(two_loops, (2,),
                          [[[0, 1], [0, 0]], [[0, 0], [0, 0]]], "left", Q)
    n = rep_from_matrices(two_loops, (1,), [[[0]], [[0]]], "left", Q)
    assert ext_fd(m, n, 0).total_dim == 1
    assert ext_fd(m, n, 1).total_dim >= 1


def test_grading_across_mixed_components():
    import random

    from rep_helpers import assert_isomorphic

    from quiverhom.repmod import graded_form, random_graded_rep

    rng = random.Random(61)
    for _ in range(6):
        m = random_graded_rep(LOOP_PLUS_TWO_CYCLE, rng, "left", Q)
        g, degs = graded_form(m)
        assert_isomorphic(g, m)


def test_twist_preserves_ext_dimensions():
    import random

    from quiverhom.homology import ext_fd
    from quiverhom.repmod import VertexTwist, random_graded_rep, twist

    swap = VertexTwist((1, 0), (1, 0), (1, 2))
    TWO = parse_quiver("vertices: 2\narrow x 1 2\narrow y 2 1\n")[0]
    rng = random.Random(62)
    for _ in range(10):
        m = random_graded_rep(TWO, rng, "left", Q, max_per_degree=1, max_degree=2)
        n = random_graded_rep(TWO, rng, "left", Q, max_per_degree=1, max_degree=2)
        for i in (0, 1):
            assert (ext_fd(m, n, i).total_dim
                    == ext_fd(twist(m, swap), twist(n, swap), i).total_dim)


def test_a2_quiver_negative_control():
    # single arrow 1 -> 2: bounded and acyclic but not regular (sink witness)
    a2 = parse_quiver("vertices: 2\narrow x 1 2\n")[0]
    assert growth_gate(a2).bounded
    verdict = as_regular_check(a2, 8, Q)
    assert not verdict.as_regular
    assert verdict.sides_agree
    assert any(f["simple"] == 2 and f["degree"] == 0 and f["dimension"] == 2
               for f in verdict.failures)
    from quiverhom.regularity import chi_probe

    probe = chi_probe(a2, 8, Q)
    for per_probe in probe["probes"].values():
        for data in per_probe.values():
            assert all(d >= 0 for d in data["dims"])


def test_eight_cycle_at_the_matching_bound():
    # eight vertices is the brute-force permutation-matching bound
    lines = ["vertices: 8"] + [f"arrow a{k} {k + 1} {(k + 1) % 8 + 1}" for k in range(8)]
    quiv = parse_quiver("\n".join(lines))[0]
    nak = nakayama(quiv, 18, 16, Q)
    assert nak.order == 8
    assert nak.inner == "no"
