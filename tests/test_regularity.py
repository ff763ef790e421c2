from pathlib import Path

import pytest

from quiverhom.exactlin import Field
from quiverhom.quiver import parse_quiver
from quiverhom.repmod import VertexTwist, simple, truncated_free_rep, uniserial
from quiverhom.regularity import (
    NotASRegularError,
    as_regular_check,
    chi_probe,
    cy_check,
    dualizing_report,
    global_dimension,
    inner_test,
    nakayama,
    serre_twist,
)
from quiverhom import homology, regularity, repmod
from rep_helpers import count_presentations, identity_twist  # tests/rep_helpers.py

Q = Field(0)
LOOP = parse_quiver("vertices: 1\narrow x 1 1\n")[0]
TWO_CYCLE = parse_quiver("vertices: 2\narrow x 1 2\narrow y 2 1\n")[0]
THREE_CYCLE = parse_quiver("vertices: 3\narrow a 1 2\narrow b 2 3\narrow c 3 1\n")[0]
KRONECKER = parse_quiver("vertices: 2\narrow u 1 2\narrow v 1 2\n")[0]
NO_ARROW = parse_quiver("vertices: 1\n")[0]


def test_global_dimension():
    assert global_dimension(NO_ARROW) == 0
    assert global_dimension(LOOP) == 1
    assert global_dimension(TWO_CYCLE) == 1


def test_global_dimension_builds_no_presentation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("global_dimension resolved a module")

    for module, name in ((repmod, "presentation_of_rep"), (homology, "presentation_of_rep"),
                         (regularity, "presentation_of_rep"), (homology, "standard_resolution")):
        monkeypatch.setattr(module, name, refuse)
    assert [global_dimension(q) for q in (NO_ARROW, LOOP, TWO_CYCLE, KRONECKER)] == [0, 1, 1, 1]
    two_loops_file = Path(__file__).resolve().parents[1] / "examples_quivers" / "two_loops.quiver"
    with pytest.raises(ValueError, match="^growth gate rejected the quiver$"):
        global_dimension(parse_quiver(two_loops_file.read_text())[0])


def _cycle(n):
    arrows = "".join(f"arrow a{v} {v} {v % n + 1}\n" for v in range(1, n + 1))
    return parse_quiver(f"vertices: {n}\n{arrows}")[0]


def count_commutation_matrices(monkeypatch) -> list:
    """Wrap `repmod._commutation_rows`, which `hom_ext1_dims` and
    `commutation_matrix` build through; the list returned collects the
    (M, N) objects of its calls, so no id is reused during the run."""
    pairs = []
    real = repmod._commutation_rows

    def counting(m, n):
        pairs.append((m, n))
        return real(m, n)

    monkeypatch.setattr(repmod, "_commutation_rows", counting)
    return pairs


def test_cy_check_ranks_each_pair_once(monkeypatch):
    """Hom and Ext^1 of (X, Y) and of (Y, S X) each come off one commutation
    matrix: 2 per pair of the default family, simples and small frees."""
    pairs = count_commutation_matrices(monkeypatch)
    for length, want in ((2, 32), (3, 72), (4, 128)):
        q = _cycle(length)
        family = [simple(q, v, "left", Q) for v in q.vertices]
        family += [truncated_free_rep(q, v, 2, "left", Q) for v in q.vertices]
        pairs.clear()
        assert cy_check(q, family, 12, None, Q)["identity_count"] == len(family) ** 2 * 2
        keys = [(id(m), id(n)) for m, n in pairs]
        assert len(keys) == want == 2 * len(family) ** 2 and len(set(keys)) == want


def test_chi_probe_ranks_each_probe_pair_once(monkeypatch):
    """Both degrees of a finite-dimensional probe come off one commutation
    matrix: one per (simple or injective probe, simple), 2n^2 in all."""
    pairs = count_commutation_matrices(monkeypatch)
    for q in (LOOP, TWO_CYCLE, THREE_CYCLE, KRONECKER):
        pairs.clear()
        assert chi_probe(q, 8, Q)["passes"] is True
        assert len(pairs) == 2 * q.vertex_count ** 2


def test_chi_probe_builds_one_comodule_model_per_simple(monkeypatch):
    """Both degrees of the coalgebra probe Ext_C(C, S_j) are read off one
    model, so ext_comodule_C builds none of its own."""
    built = []
    make = homology.ext_comodule_model

    def counting(q, j, trunc, fld):
        built.append(j)
        return make(q, j, trunc, fld)

    def refuse(*args):
        raise AssertionError("ext_comodule_C built its own model")

    monkeypatch.setattr(regularity, "ext_comodule_model", counting)
    monkeypatch.setattr(homology, "ext_comodule_model", refuse)
    for q in (LOOP, TWO_CYCLE, THREE_CYCLE, KRONECKER, NO_ARROW):
        built.clear()
        chi_probe(q, 8, Q)
        assert built == list(q.vertices)


def test_as_regular_check_resolves_each_simple_once(monkeypatch):
    """Both Ext degrees of a simple are read off one model of one
    presentation: 2 sides x 3 simples, and no other presentation."""
    calls = count_presentations(monkeypatch)
    assert as_regular_check(THREE_CYCLE, 8, Q).as_regular
    assert calls == {"as_regular_check": 6}


def test_regularity_on_cycles_eliminates_only_the_probe_pairs(monkeypatch):
    """On a cycle every rank the regularity verdicts read off a model is a
    count: the Hom-dual of a simple's presentation has one relation and
    single-path entries, a simple is graded with no chain-basis search, and
    local cohomology reads path counts.  So as_regular_check and nakayama
    run no forward elimination, and chi_probe runs one per finite probe
    pair, the rank of its commutation rows.  Every forward elimination runs
    `echelon_rows`, wrapped wherever a module binds it."""
    from quiverhom import exactlin

    runs = []
    echelon = exactlin.echelon_rows

    def counting(field, rows):
        runs.append(rows)
        return echelon(field, rows)

    for module in (exactlin, repmod, homology):
        monkeypatch.setattr(module, "echelon_rows", counting)
    for n in range(1, 6):
        q = _cycle(n)
        for fld in (Q, Field(2147483647)):
            runs.clear()
            assert as_regular_check(q, 12, fld).as_regular
            assert nakayama(q, 12, 12, fld).gldim == 1
            assert runs == []
            chi_probe(q, 12, fld)
            assert len(runs) == 2 * n ** 2


def test_nakayama_on_cycles_builds_no_path_table(monkeypatch):
    """Every dimension nakayama reads on a cycle is counted off path counts,
    and a model enumerates its path table only when a block, label list or
    kill matrix reads it, so a fresh path cache stays empty."""
    from quiverhom import quiver

    def refuse(*args, **kwargs):
        raise AssertionError("nakayama built a path table")

    monkeypatch.setattr(quiver.PathTable, "__init__", refuse)
    for n in range(1, 6):
        for fld in (Q, Field(2147483647)):
            quiver.enumerate_paths.cache_clear()
            assert nakayama(_cycle(n), 12, 12, fld).inner == ("yes" if n == 1 else "no")


def test_asreg_on_cycles_builds_no_block_and_no_long_path_table(monkeypatch):
    """`ext_comodule_C` counts the vertex support of a whole-space Ext^1
    block off path counts, so asreg on a cycle builds no block, and its
    only path tables are the arrows of each simple's presentation (length 1)
    and chi_probe's truncated injectives (length 3)."""
    from quiverhom import quiver

    lengths = []
    enumerate_table = quiver.PathTable.__init__

    def recording(self, q, max_len):
        lengths.append(max_len)
        enumerate_table(self, q, max_len)

    def refuse(*args, **kwargs):
        raise AssertionError("asreg built a block")

    monkeypatch.setattr(quiver.PathTable, "__init__", recording)
    monkeypatch.setattr(homology.PresentationModel, "block", refuse)
    for n in range(1, 6):
        for fld in (Q, Field(2147483647)):
            quiver.enumerate_paths.cache_clear()
            assert as_regular_check(_cycle(n), 12, fld).as_regular
            chi_probe(_cycle(n), 12, fld)
    assert sorted(set(lengths)) == [1, 3]


def test_natural_map_values():
    assert nakayama(TWO_CYCLE, 10, 8, Q).vertex_map == (1, 0)
    assert nakayama(LOOP, 8, 6, Q).vertex_map == (0,)
    # the three-cycle rotates one step along the arrows
    assert nakayama(THREE_CYCLE, 12, 9, Q).vertex_map == (1, 2, 0)


def test_natural_map_rejects_non_regular():
    with pytest.raises(NotASRegularError, match=r"^instance is not AS-regular$") as exc:
        nakayama(KRONECKER, 10, 8, Q)
    # Ext^1(S_2, A) is not simple: it vanishes
    assert {"side": "left", "simple": 2, "degree": 1, "dimension": 0,
            "reason": "top Ext not one-dimensional simple"} in exc.value.witness


def test_nakayama_refusals_name_vertices_one_based(monkeypatch):
    real_lc = regularity.local_cohomology

    def identity_twist_lc(q, i, *args, **kwargs):
        lc = real_lc(q, i, *args, **kwargs)
        lc.twist_sigma = tuple(q.vertices)
        return lc

    monkeypatch.setattr(regularity, "local_cohomology", identity_twist_lc)
    with pytest.raises(NotASRegularError,
                       match=r"^vertex maps disagree: natural map \[2, 3, 1\], "
                             r"local cohomology \[1, 2, 3\]$"):
        nakayama(THREE_CYCLE, 12, 9, Q)
    monkeypatch.undo()

    real_check = regularity.as_regular_check

    def collapsed_check(q, trunc, fld=None):
        verdict = real_check(q, trunc, fld)
        for per_degree in verdict.tables["left"].values():
            per_degree[verdict.gldim].vertex_support = {0: 1}
        return verdict

    monkeypatch.setattr(regularity, "as_regular_check", collapsed_check)
    with pytest.raises(NotASRegularError, match=r"^natural map \[1, 1\] is not a bijection$"):
        nakayama(TWO_CYCLE, 10, 8, Q)


def test_as_regular_loop():
    v = as_regular_check(LOOP, 8, Q)
    assert v.as_regular and v.gldim == 1 and v.sides_agree


def test_as_regular_two_cycle():
    v = as_regular_check(TWO_CYCLE, 10, Q)
    assert v.as_regular and v.gldim == 1


def test_as_regular_no_arrow():
    v = as_regular_check(NO_ARROW, 6, Q)
    assert v.as_regular and v.gldim == 0


def test_kronecker_negative_with_witnesses():
    v = as_regular_check(KRONECKER, 10, Q)
    assert not v.as_regular
    assert v.sides_agree
    # sink-simple degree-0 witness of dimension 3...
    assert any(f["side"] == "left" and f["simple"] == 2 and f["degree"] == 0
               and f["dimension"] == 3 for f in v.failures)
    # ... and the source simple has a five-dimensional top Ext
    assert any(f["side"] == "left" and f["simple"] == 1 and f["degree"] == 1
               and f["dimension"] == 5 for f in v.failures)


def test_left_right_verdicts_agree_everywhere():
    for quiv, trunc in ((LOOP, 8), (TWO_CYCLE, 10), (THREE_CYCLE, 12),
                        (KRONECKER, 10), (NO_ARROW, 6)):
        assert as_regular_check(quiv, trunc, Q).sides_agree


def test_natural_map_is_bijection_on_regular_instances():
    for quiv, trunc, m_max in ((LOOP, 8, 6), (TWO_CYCLE, 10, 8), (THREE_CYCLE, 12, 9)):
        perm = nakayama(quiv, trunc, m_max, Q).vertex_map
        assert sorted(perm) == list(quiv.vertices)


def test_nakayama_loop_inner_identity():
    nak = nakayama(LOOP, 8, 6, Q)
    assert nak.vertex_map == (0,)
    assert nak.order == 1
    assert nak.inner == "yes"


def test_nakayama_two_cycle_swap():
    nak = nakayama(TWO_CYCLE, 10, 8, Q)
    assert nak.vertex_map == (1, 0)
    assert nak.order == 2
    assert nak.inner == "no"


def test_nakayama_three_cycle_order_three():
    nak = nakayama(THREE_CYCLE, 12, 9, Q)
    assert nak.order == 3
    assert nak.inner == "no"


def test_nakayama_no_arrow():
    nak = nakayama(NO_ARROW, 6, 4, Q)
    assert nak.vertex_map == (0,)
    assert nak.gldim == 0
    assert nak.inner == "yes"


def test_nakayama_rejects_kronecker():
    with pytest.raises(NotASRegularError):
        nakayama(KRONECKER, 10, 8, Q)


def test_inner_test_identity():
    verdict = inner_test(TWO_CYCLE, identity_twist(TWO_CYCLE), Q)
    assert verdict["inner"]
    assert set(verdict["witness"]["vertex_units"].values()) == {"1"}


def test_inner_test_vertex_criterion():
    swap = VertexTwist((1, 0), (1, 0), (1, 1))
    verdict = inner_test(TWO_CYCLE, swap, Q)
    assert not verdict["inner"]
    assert verdict["reason"].startswith("vertex map moves")


def test_inner_test_cycle_product():
    t = VertexTwist((0,), (0,), (2,))
    verdict = inner_test(LOOP, t, Q)
    assert not verdict["inner"]
    assert verdict["reason"] == "cycle product differs from 1"
    # on the 2-cycle scalars 2 and 1/2 are a coboundary
    t2 = VertexTwist((0, 1), (0, 1), (2, "1/2"))
    from fractions import Fraction

    t2 = VertexTwist((0, 1), (0, 1), (2, Fraction(1, 2)))
    assert inner_test(TWO_CYCLE, t2, Q)["inner"]


def test_chi_probe_loop_and_two_cycle():
    probe = chi_probe(LOOP, 8, Q)
    assert probe["passes"]
    for per_probe in probe["probes"].values():
        for data in per_probe.values():
            assert all(d <= 1 for d in data["dims"])
    probe2 = chi_probe(TWO_CYCLE, 10, Q)
    # the coalgebra probe against S_1 has dims (0, 1) in degrees (0, 1)
    assert probe2["probes"]["S_1"]["coalgebra"]["dims"] == [0, 1]


def test_chi_probe_no_arrow():
    probe = chi_probe(NO_ARROW, 6, Q)
    for per_probe in probe["probes"].values():
        for name, data in per_probe.items():
            assert data["dims"][0] >= 0
            assert all(d == 0 for d in data["dims"][1:])


def test_serre_twist_values():
    nak = nakayama(LOOP, 8, 6, Q)
    image, shift = serre_twist(uniserial(LOOP, 0, 2, "left", Q), nak)
    assert shift == 1
    assert image.dims == (2,)
    nak2 = nakayama(TWO_CYCLE, 10, 8, Q)
    image2, shift2 = serre_twist(simple(TWO_CYCLE, 0, "left", Q), nak2)
    assert shift2 == 1
    assert image2.dims == simple(TWO_CYCLE, 1, "left", Q).dims


def test_cy_loop_family():
    family = [uniserial(LOOP, 0, j, "left", Q) for j in range(1, 5)]
    result = cy_check(LOOP, family, 8, 6, Q)
    assert result["verdict"] == "CY-1"
    assert result["identity_count"] == 32
    assert all(row["holds"] for row in result["identities"])


def test_cy_two_cycle_twisted():
    family = [simple(TWO_CYCLE, 0, "left", Q), simple(TWO_CYCLE, 1, "left", Q)]
    result = cy_check(TWO_CYCLE, family, 10, 8, Q)
    assert all(row["holds"] for row in result["identities"])
    assert not result["cy"]
    assert "twisted" in result["verdict"]


def test_cy_identity_table_symmetric():
    family = [simple(TWO_CYCLE, 0, "left", Q), simple(TWO_CYCLE, 1, "left", Q),
              uniserial(TWO_CYCLE, 0, 2, "left", Q)]
    result = cy_check(TWO_CYCLE, family, 10, 8, Q)
    table = {(r["X"], r["Y"], r["i"]): (r["ext_X_Y"], r["ext_Y_SX"]) for r in result["identities"]}
    for (x, y, i), (lhs, rhs) in table.items():
        assert lhs == rhs


def test_cy_no_arrow():
    result = cy_check(NO_ARROW, [simple(NO_ARROW, 0, "left", Q)], 6, 4, Q)
    assert result["verdict"] == "CY-0"


def test_dualizing_report_texts():
    loop_report = dualizing_report(nakayama(LOOP, 8, 6, Q))
    assert "CY-1" in loop_report["summary"]
    assert loop_report["shift"] == 1
    two_report = dualizing_report(nakayama(TWO_CYCLE, 10, 8, Q))
    assert "not inner" in two_report["summary"]
    zero_report = dualizing_report(nakayama(NO_ARROW, 6, 4, Q))
    assert zero_report["shift"] == 0


def test_chi_probe_on_non_regular_instance():
    # finiteness probes still certify on the double arrow, where regularity fails
    probe = chi_probe(KRONECKER, 10, Q)
    assert probe["probes"]["S_1"]["coalgebra"]["dims"] == [0, 5]
    assert probe["probes"]["S_2"]["coalgebra"]["dims"][0] == 3


def test_serre_twist_gldim_zero_is_identity_shift_zero():
    nak = nakayama(NO_ARROW, 6, 4, Q)
    x = simple(NO_ARROW, 0, "left", Q)
    image, shift = serre_twist(x, nak)
    assert shift == 0
    assert image.dims == x.dims
