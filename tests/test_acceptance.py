"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Everything asserts exact integer equality; the two timed criteria enforce
their one-second budgets.  Run with `pytest -s tests/test_acceptance.py` to
see the per-criterion lines.
"""

import json
import random
import zlib
import time
from collections import Counter

from quiverhom.cli import main
from quiverhom.exactlin import Field
from quiverhom.pathcoalg import AlgElement, PathCoalgebra, TruncatedDualAlgebra, bigraded_dims
from quiverhom.quiver import parse_quiver, path_count_matrices
from quiverhom.repmod import (
    euler_pairing,
    graded_form,
    hom_dim,
    linear_dual,
    presentation_of_rep,
    random_graded_rep,
    simple,
    uniserial,
)
from quiverhom.homology import (
    ext_fd,
    ext_vs_algebra,
    hom_into_C,
    local_cohomology,
    rational_part,
)
from quiverhom.regularity import (
    as_regular_check,
    cy_check,
    inner_test,
    nakayama,
)
from rep_helpers import dual_resolution_check, zero_rep  # tests/rep_helpers.py

Q = Field(0)
LOOP = parse_quiver("vertices: 1\narrow x 1 1\n")[0]
TWO_CYCLE = parse_quiver("vertices: 2\narrow x 1 2\narrow y 2 1\n")[0]
THREE_CYCLE = parse_quiver("vertices: 3\narrow a 1 2\narrow b 2 3\narrow c 3 1\n")[0]


def _report(label, ok):
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def _write_quiver(tmp_path, text, name):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_criterion_1_worked_example_reproduction(tmp_path, capsys):
    """Ext^0_C(C, S_1) = 0 and Ext^1_C(C, S_1) = T_2 on the 2-cycle, N = 8."""
    path = _write_quiver(tmp_path, "vertices: 2\narrow x 1 2\narrow y 2 1\n", "two_cycle.quiver")
    started = time.perf_counter()
    ok = True
    for j, expected_support in ((1, {"2": 1}), (2, {"1": 1})):
        code = main(["ext", "--quiver", path, "--module", "C",
                     "--target", f"simple:{j}", "--trunc", "8", "--json"])
        out = capsys.readouterr().out
        report = json.loads(out)
        table = report["tables"]["ext"]
        ok = ok and code == 0
        ok = ok and table["0"]["dimension"] == 0
        ok = ok and table["1"]["dimension"] == 1
        ok = ok and table["1"]["vertex_support"] == expected_support
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    with capsys.disabled():
        _report("1 (worked two-vertex example, < 1 s)", ok)


def test_criterion_2_loop_cy(capsys):
    """Loop quiver: AS-regular n = 1, inner identity twist, CY-1, 32 Serre identities."""
    started = time.perf_counter()
    verdict = as_regular_check(LOOP, 8, Q)
    nak = nakayama(LOOP, 8, 6, Q)
    family = [uniserial(LOOP, 0, j, "left", Q) for j in range(1, 5)]
    cy = cy_check(LOOP, family, 8, 6, Q)
    elapsed = time.perf_counter() - started
    ok = verdict.as_regular and verdict.gldim == 1
    ok = ok and nak.inner == "yes" and nak.vertex_map == (0,)
    ok = ok and cy["verdict"] == "CY-1"
    ok = ok and cy["identity_count"] == 32
    ok = ok and all(row["holds"] for row in cy["identities"])
    ok = ok and elapsed < 1.0
    with capsys.disabled():
        _report("2 (loop is CY-1, 32 identities, < 1 s)", ok)


def test_criterion_3_local_cohomology_matches_twisted_coalgebra(capsys):
    """H^0 = 0 and H^1 equals the Nakayama-twisted coalgebra through degree 8."""
    ok = True
    for quiv, trunc in ((LOOP, 10), (TWO_CYCLE, 10)):
        m_max = 10
        h0 = local_cohomology(quiv, 0, m_max, trunc, Q)
        ok = ok and all(v == 0 for v in h0.dims.values())
        h1 = local_cohomology(quiv, 1, m_max, trunc, Q)
        sigma = h1.twist_sigma
        ok = ok and sigma is not None
        nak = nakayama(quiv, trunc, m_max, Q)
        ok = ok and (sigma == nak.twist.sigma)
        inv = [0] * quiv.vertex_count
        for v, w in enumerate(sigma):
            inv[w] = v
        top = min(8, h1.max_degree)
        ok = ok and top == 8
        for ell, counts in enumerate(path_count_matrices(quiv, top)):
            for u in quiv.vertices:
                for w in quiv.vertices:
                    ok = ok and h1.dim(u, w, ell) == counts[u][inv[w]]
        ok = ok and all((u, ell) in h1.stabilized_at
                        for u in quiv.vertices for ell in range(top + 1))
    with capsys.disabled():
        _report("3 (local cohomology = twisted coalgebra, degrees <= 8)", ok)


def test_criterion_4_torsion_ext_identities(capsys):
    """dim Ext^1(M, A) = dim Rat(M) and Ext^0(M, A) = Ext^0(M / Rat M, A)."""
    ok = True
    for quiv, label in ((LOOP, "loop"), (TWO_CYCLE, "two_cycle"), (THREE_CYCLE, "three_cycle")):
        rng = random.Random(zlib.crc32(repr(("torsion-ext", label)).encode()))
        done = 0
        while done < 10:
            m = random_graded_rep(quiv, rng, "left", Q, max_per_degree=1, max_degree=3)
            if m.total_dim == 0:
                continue
            ext1 = ext_vs_algebra(m, 1, 12).total_dim
            rat = rational_part(presentation_of_rep(m), 12)
            ok = ok and ext1 == rat.rep.total_dim
            # finite-dimensional modules are all torsion, so M / Rat M = 0
            ok = ok and rat.rep.total_dim == m.total_dim
            ext0 = ext_vs_algebra(m, 0, 12).total_dim
            ext0_quotient = ext_vs_algebra(zero_rep(quiv, "left", Q), 0, 12).total_dim
            ok = ok and ext0 == ext0_quotient
            done += 1
    with capsys.disabled():
        _report("4 (torsion-duality identities, 10 random modules per cycle quiver)", ok)


def test_criterion_5_negative_controls(tmp_path, capsys):
    """Kronecker fails AS-regularity with the sink witness; two loops fail the gate."""
    kron = _write_quiver(tmp_path, "vertices: 2\narrow u 1 2\narrow v 1 2\n", "kron.quiver")
    code = main(["asreg", "--quiver", kron, "--trunc", "8", "--json"])
    report = json.loads(capsys.readouterr().out)
    ok = code == 0 and report["verdicts"]["as_regular"] is False
    failures = report["tables"]["failures"]
    ok = ok and any(f["side"] == "left" and f["simple"] == 2 and f["degree"] == 0
                    and f["dimension"] == 3 for f in failures)
    two_loops = _write_quiver(tmp_path, "vertices: 1\narrow x 1 1\narrow y 1 1\n", "tl.quiver")
    code2 = main(["gate", "--quiver", two_loops, "--json"])
    report2 = json.loads(capsys.readouterr().out)
    ok = ok and code2 == 3
    ok = ok and report2["verdicts"]["growth"]["bounded"] is False
    ok = ok and len(report2["verdicts"]["growth"]["witness"]["paths"]) == 2
    code3 = main(["asreg", "--quiver", two_loops, "--trunc", "6", "--json"])
    capsys.readouterr()
    ok = ok and code3 == 3
    with capsys.disabled():
        _report("5 (negative controls: Kronecker witness, gate rejection)", ok)


def test_criterion_6_natural_bijection_and_symmetry(capsys):
    """Natural-map bijection, left/right agreement, three-cycle twist order 3."""
    ok = True
    for quiv, trunc, m_max in ((LOOP, 8, 6), (TWO_CYCLE, 10, 8), (THREE_CYCLE, 12, 9)):
        perm = nakayama(quiv, trunc, m_max, Q).vertex_map
        ok = ok and sorted(perm) == list(quiv.vertices)
        verdict = as_regular_check(quiv, trunc, Q)
        ok = ok and verdict.as_regular and verdict.sides_agree
    nak = nakayama(THREE_CYCLE, 12, 9, Q)
    ok = ok and nak.order == 3
    verdict = inner_test(THREE_CYCLE, nak.twist, Q)
    ok = ok and verdict["inner"] is False
    with capsys.disabled():
        _report("6 (natural-map bijection, symmetry, 3-cycle order 3 not inner)", ok)


def test_criterion_7_property_suites(capsys):
    """Seven seeded property suites, 100 cases each per quiver, zero failures."""
    quivers = {
        "loop": LOOP,
        "two_cycle": TWO_CYCLE,
        "three_cycle": THREE_CYCLE,
    }
    failures = 0
    cases = 100
    for label, quiv in quivers.items():
        rng = random.Random(zlib.crc32(repr(("acceptance7", label)).encode()))
        # euler form + duality involution
        for _ in range(cases):
            m = random_graded_rep(quiv, rng, "left", Q, max_per_degree=1, max_degree=3)
            n = random_graded_rep(quiv, rng, "left", Q, max_per_degree=1, max_degree=3)
            if hom_dim(m, n) - ext_fd(m, n, 1).total_dim != euler_pairing(m, n):
                failures += 1
            if hom_dim(m, n) != hom_dim(linear_dual(n), linear_dual(m)):
                failures += 1
        # coassociativity / counit laws
        coalg = PathCoalgebra(quiv, 6, Q)
        basis = coalg.basis()
        for k in range(cases):
            p = basis[k % len(basis)]
            splits = coalg.comultiply(p)
            if len(splits) != p.length + 1:
                failures += 1
            one = sorted(((q2, q1, p1) for p2, p1 in splits
                          for q2, q1 in coalg.comultiply(p2)), key=repr)
            two = sorted(((p2, q2, q1) for p2, p1 in splits
                          for q2, q1 in coalg.comultiply(p1)), key=repr)
            if one != two:
                failures += 1
        # convolution associativity
        alg = TruncatedDualAlgebra(quiv, 5, Q)
        cbasis = alg.coalgebra.basis()
        for _ in range(cases):
            f, g, h = (
                AlgElement(Q, {p: rng.randint(-3, 3)
                               for p in rng.sample(cbasis, min(4, len(cbasis)))})
                for _ in range(3)
            )
            if alg.convolve(alg.convolve(f, g), h) != alg.convolve(f, alg.convolve(g, h)):
                failures += 1
        # double-dual roundtrip
        for _ in range(cases):
            m = random_graded_rep(quiv, rng, "left", Q, max_per_degree=1, max_degree=2)
            dual = linear_dual(m)
            if linear_dual(dual).maps != m.maps or hom_dim(m, m) != hom_dim(dual, dual):
                failures += 1
        # phi check through degree 6
        done = 0
        while done < cases:
            m = random_graded_rep(quiv, rng, "left", Q, max_per_degree=1, max_degree=2)
            if m.total_dim == 0:
                continue
            g, degrees = graded_form(m)
            hom = hom_into_C(presentation_of_rep(g, degrees), 7)
            if hom.dims_by_degree != Counter(d for fiber in degrees for d in fiber):
                failures += 1
            done += 1
        # graded finality under truncation increase
        small = bigraded_dims(quiv, 6)
        large = bigraded_dims(quiv, 9)
        for ell in range(7):
            if small.matrix(ell) != large.matrix(ell):
                failures += 1
        for v in quiv.vertices:
            s = simple(quiv, v, "left", Q)
            if (ext_vs_algebra(s, 1, 10).graded_dims
                    != ext_vs_algebra(s, 1, 12).graded_dims):
                failures += 1
    ok = failures == 0
    with capsys.disabled():
        _report(f"7 (property suites, zero failures; observed {failures})", ok)


def test_criterion_8_dual_resolution_exactness(capsys):
    """Dual-resolution sequence exact degreewise through degree 6, five
    presentations per cycle quiver."""
    ok = True
    for quiv, label in ((LOOP, "loop"), (TWO_CYCLE, "two_cycle"), (THREE_CYCLE, "three_cycle")):
        rng = random.Random(zlib.crc32(repr(("clem2", label)).encode()))
        done = 0
        while done < 5:
            m = random_graded_rep(quiv, rng, "left", Q, max_per_degree=1, max_degree=2)
            if m.total_dim == 0:
                continue
            result = dual_resolution_check(presentation_of_rep(m), 12, 6)
            ok = ok and result["passes"]
            for row in result["rows"]:
                ok = ok and row["exact"]
            done += 1
    with capsys.disabled():
        _report("8 (dual-resolution exactness through degree 6)", ok)
