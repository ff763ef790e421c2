import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quiverhom.cli import COMMANDS, COMMON_OPTIONS, REQUIRED, _quick_parse, build_parser, main, parse_rep_literal
from quiverhom.exactlin import Field
from quiverhom.quiver import parse_quiver


LOOP = "vertices: 1\narrow x 1 1\n"
TWO_CYCLE = "vertices: 2\narrow x 1 2\narrow y 2 1\n"
TWO_LOOPS = "vertices: 1\narrow x 1 1\narrow y 1 1\n"
KRONECKER = "vertices: 2\narrow u 1 2\narrow v 1 2\n"


@pytest.fixture
def quiver_file(tmp_path):
    def write(text, name="q.quiver"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_gate_bounded(quiver_file, capsys):
    code, report = run_json(capsys, ["gate", "--quiver", quiver_file(TWO_CYCLE), "--json"])
    assert code == 0
    assert report["schema"] == 1
    assert report["verdicts"]["growth"]["bounded"] is True
    assert report["verdicts"]["growth"]["period"] == 2


def test_gate_rejects_two_loops(quiver_file, capsys):
    code, report = run_json(capsys, ["gate", "--quiver", quiver_file(TWO_LOOPS), "--json"])
    assert code == 3
    witness = report["verdicts"]["growth"]["witness"]
    assert witness["kind"] == "vertex on two cycles"
    assert len(witness["paths"]) == 2


def test_gate_force_exits_zero(quiver_file, capsys):
    code, report = run_json(capsys, ["gate", "--quiver", quiver_file(TWO_LOOPS), "--json", "--force"])
    assert code == 0


def test_parse_error_exit_two(quiver_file, capsys):
    path = quiver_file("vertices: 2\narrow x 1 5\n")
    code = main(["gate", "--quiver", path, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert "line 2" in report["error"]
    for spec in ("F4", "X", "F1000000000000000000000000000057"):
        code = main(["gate", "--quiver", quiver_file(LOOP), "--field", spec, "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert "--field" in report["error"]


def test_large_prime_field_is_quick(quiver_file, capsys):
    code, report = run_json(
        capsys, ["gate", "--quiver", quiver_file(LOOP), "--field", "F1000000000000000003", "--json"])
    assert code == 0
    assert report["config"]["field"] == "F1000000000000000003"


def test_stabilization_exit_four(quiver_file, capsys):
    code, report = run_json(
        capsys, ["ext", "--quiver", quiver_file(TWO_CYCLE), "--module", "simple:1",
                 "--target", "A", "--deg", "1", "--trunc", "3", "--json"])
    assert code == 4
    assert "increase" in report["suggestion"]


def test_module_outside_grading_scope_exits_two(quiver_file, capsys):
    # a two-cycle with a transit arrow into it: some random modules have no
    # path-length grading, which is an input error, not a crash
    path = quiver_file("vertices: 3\narrow x 1 2\narrow y 2 1\narrow z 3 1\n")
    code, report = run_json(
        capsys, ["verify", "--quiver", path, "--seed", "1", "--cases", "4", "--trunc", "6", "--json"])
    assert code == 2
    assert set(report) == {"schema", "command", "error"}
    assert "acyclic quivers and disjoint unions of cycles" in report["error"]


def test_ext_comodule_command(quiver_file, capsys):
    code, report = run_json(
        capsys, ["ext", "--quiver", quiver_file(TWO_CYCLE), "--module", "C",
                 "--target", "simple:1", "--trunc", "8", "--json"])
    assert code == 0
    table = report["tables"]["ext"]
    assert table["0"]["dimension"] == 0
    assert table["1"]["dimension"] == 1
    assert table["1"]["vertex_support"] == {"2": 1}
    # both degrees are read off one model; each matches its own --deg run
    for i in ("0", "1"):
        _, alone = run_json(
            capsys, ["ext", "--quiver", quiver_file(TWO_CYCLE), "--module", "C",
                     "--target", "simple:1", "--trunc", "8", "--deg", i, "--json"])
        assert alone["tables"]["ext"][i] == table[i]


def test_ext_fd_command(quiver_file, capsys):
    code, report = run_json(
        capsys, ["ext", "--quiver", quiver_file(LOOP), "--module", "uniserial:1:2",
                 "--target", "uniserial:1:3", "--json"])
    assert code == 0
    assert report["tables"]["ext"]["0"]["dimension"] == 2
    assert report["tables"]["ext"]["1"]["dimension"] == 2


def test_asreg_negative_is_success(quiver_file, capsys):
    code, report = run_json(
        capsys, ["asreg", "--quiver", quiver_file(KRONECKER), "--trunc", "8", "--json"])
    assert code == 0
    assert report["verdicts"]["as_regular"] is False


def test_nakayama_command(quiver_file, capsys):
    code, report = run_json(
        capsys, ["nakayama", "--quiver", quiver_file(TWO_CYCLE), "--trunc", "10",
                 "--mmax", "8", "--json"])
    assert code == 0
    nak = report["tables"]["nakayama"]
    assert nak["natural_map"] == [2, 1]
    assert report["verdicts"]["inner"] == "no"


def test_nakayama_not_applicable_exits_zero(quiver_file, capsys):
    code, report = run_json(
        capsys, ["nakayama", "--quiver", quiver_file(KRONECKER), "--trunc", "8", "--json"])
    assert code == 0
    assert report["verdicts"]["applicable"] is False


def test_nakayama_nine_disjoint_loops(quiver_file, capsys):
    # nine vertices: the twist is read off degree 0, with no bound on the
    # vertex count
    nine_loops = "vertices: 9\n" + "".join(f"arrow x{v} {v} {v}\n" for v in range(1, 10))
    code, report = run_json(
        capsys, ["nakayama", "--quiver", quiver_file(nine_loops), "--trunc", "8",
                 "--mmax", "6", "--json"])
    assert code == 0
    assert report["verdicts"] == {"applicable": True, "inner": "yes"}
    lc = report["tables"]["nakayama"]["local_cohomology"]
    assert lc["twist_vertex_map"] == list(range(1, 10))
    assert lc["cycle_products"] == {f"x{v}": "1" for v in range(1, 10)}


@pytest.mark.parametrize("text, labels", [(LOOP, ["x"]), ("vertices: 2\narrow x 1 1\narrow y 2 2\n", ["x", "y"])])
def test_nakayama_innerness_is_undetermined_below_the_cycle_products_stage(quiver_file, capsys, text, labels):
    # a loop's cycle product reads stages through 3: at --mmax 2 none is
    # counted, so innerness is undetermined, and at 3 each loop's is 1
    for m_max, products, inner in (("2", {}, "undetermined"), ("3", dict.fromkeys(labels, "1"), "yes")):
        code, report = run_json(capsys, ["nakayama", "--quiver", quiver_file(text), "--mmax", m_max, "--json"])
        assert code == 0
        assert report["verdicts"] == {"applicable": True, "inner": inner}
        nak = report["tables"]["nakayama"]
        assert nak["local_cohomology"]["cycle_products"] == products
        assert nak["twist"]["scalars"] == ["1"] * len(labels)


def test_cy_loop(quiver_file, capsys):
    code, report = run_json(
        capsys, ["cy", "--quiver", quiver_file(LOOP), "--trunc", "8", "--mmax", "6",
                 "--family", "uniserial:1:1,uniserial:1:2,uniserial:1:3,uniserial:1:4",
                 "--json"])
    assert code == 0
    assert report["verdicts"]["verdict"] == "CY-1"


def test_localcoh_command(quiver_file, capsys):
    code, report = run_json(
        capsys, ["localcoh", "--quiver", quiver_file(LOOP), "--trunc", "10",
                 "--mmax", "10", "--json"])
    assert code == 0
    lc = report["tables"]["local_cohomology"]
    assert lc["twist_vertex_map"] == [1]
    assert report["verdicts"]["matches_twisted_coalgebra"] is True


@pytest.mark.parametrize("text, index, gldim", [(LOOP, 2, 1), (LOOP, -1, 1), ("vertices: 2\n", 1, 0)])
def test_localcoh_index_outside_gldim_exits_two(quiver_file, capsys, text, index, gldim):
    # A is hereditary, so H^i vanishes for i > gldim; such an index is an
    # input error, not a table of ones
    code, report = run_json(
        capsys, ["localcoh", "--quiver", quiver_file(text), "--index", str(index),
                 "--trunc", "6", "--json"])
    assert code == 2
    assert set(report) == {"schema", "command", "error"}
    assert f"index must be 0..{gldim} (gldim {gldim})" in report["error"]


def test_verify_command(quiver_file, capsys):
    code, report = run_json(
        capsys, ["verify", "--quiver", quiver_file(LOOP), "--trunc", "8",
                 "--cases", "12", "--json"])
    assert code == 0
    assert report["verdicts"]["all_passed"] is True


def test_verify_resolves_each_torsion_module_once(quiver_file, capsys, monkeypatch):
    """The torsion suite resolves each drawn nonzero module once, for its
    rational part and for one model read at both Ext degrees; the other
    presentations are the phi check's, the regularity check's and the
    graded-finality simple's."""
    from quiverhom import cli
    from rep_helpers import count_presentations  # tests/rep_helpers.py

    calls = count_presentations(monkeypatch)
    drawn = {"rational_part": 0, "graded_form": 0}

    def counting(name):
        real = getattr(cli, name)

        def wrapper(*args):
            drawn[name] += 1
            return real(*args)

        monkeypatch.setattr(cli, name, wrapper)

    # one rational part per nonzero torsion module, one graded form per nonzero phi module
    counting("rational_part")
    counting("graded_form")
    code, report = run_json(
        capsys, ["verify", "--quiver", quiver_file(TWO_CYCLE), "--trunc", "8",
                 "--cases", "40", "--seed", "3", "--json"])
    assert code == 0 and report["verdicts"]["all_passed"] is True
    assert report["tables"]["suite"]["torsion_ext_identities"]["cases"] == 4
    assert drawn["rational_part"] > 1 and drawn["graded_form"] > 0
    # graded finality reads the simple at two truncations, one model each
    assert calls == {"cmd_verify": drawn["graded_form"] + drawn["rational_part"],
                     "as_regular_check": 4, "ext_vs_algebra": 2}


def test_json_determinism(quiver_file, capsys):
    path = quiver_file(TWO_CYCLE)
    argv = ["verify", "--quiver", path, "--trunc", "8", "--cases", "8",
            "--seed", "7", "--json"]
    main(argv)
    first = json.loads(capsys.readouterr().out)
    main(argv)
    second = json.loads(capsys.readouterr().out)
    first.pop("timings")
    second.pop("timings")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_field_flag_annotated(quiver_file, capsys):
    code, report = run_json(
        capsys, ["asreg", "--quiver", quiver_file(LOOP), "--trunc", "8",
                 "--field", "F7", "--json"])
    assert code == 0
    assert report["field"] == {"kind": "prime", "characteristic": 7}


def test_text_output_renders(quiver_file, capsys):
    code = main(["gate", "--quiver", quiver_file(LOOP)])
    out = capsys.readouterr().out
    assert code == 0
    assert "quiverhom gate" in out
    assert "bounded: True" in out


def test_rep_literal_parser():
    quiver, _ = parse_quiver(TWO_CYCLE)
    text = """
side: left
dims: 1 1
arrow x:
1
"""
    rep = parse_rep_literal(text, quiver, Field(0))
    assert rep.dims == (1, 1)
    assert rep.nil_bound == 2


def test_rep_literal_via_ext(quiver_file, tmp_path, capsys):
    qpath = quiver_file(LOOP)
    rep_path = tmp_path / "m.rep"
    rep_path.write_text("side: left\ndims: 2\narrow x:\n0 0\n1 0\n", encoding="utf-8")
    code, report = run_json(
        capsys, ["ext", "--quiver", qpath, "--module", f"rep:{rep_path}",
                 "--target", "uniserial:1:2", "--deg", "1", "--json"])
    assert code == 0
    assert report["tables"]["ext"]["1"]["dimension"] == 2


def test_grading_error_names_the_rep_file_entry_1_based(quiver_file, tmp_path, capsys):
    # x = -y on two loops has no path-length grading; the entry of x off the
    # grading is the 1 on the file's second row, first column
    rep_path = tmp_path / "m.rep"
    rep_path.write_text("side: left\ndims: 2\narrow x:\n0 0\n1 0\narrow y:\n0 0\n-1 0\n",
                        encoding="utf-8")
    code, report = run_json(
        capsys, ["ext", "--quiver", quiver_file(TWO_LOOPS), "--module", f"rep:{rep_path}",
                 "--target", "A", "--force", "--json"])
    assert code == 2
    assert "arrow 'x' entry (2,1) violates degree +1" in report["error"]


@pytest.mark.parametrize("entry, field", [("1/0", "Q"), ("1/7", "F7"), ("x", "Q")])
def test_rep_literal_bad_entry_is_a_parse_error(quiver_file, tmp_path, capsys, entry, field):
    rep_path = tmp_path / "m.rep"
    rep_path.write_text(f"side: left\ndims: 2\narrow x:\n0 0\n{entry} 0\n", encoding="utf-8")
    code, report = run_json(
        capsys, ["ext", "--quiver", quiver_file(LOOP), "--module", f"rep:{rep_path}",
                 "--target", "uniserial:1:2", "--deg", "1", "--field", field, "--json"])
    assert code == 2
    assert report["error"] == f"rep literal line 5: entry {entry!r} is not an element of {field}"


def test_verify_skips_identity_on_non_regular_instance(quiver_file, capsys):
    code, report = run_json(
        capsys, ["verify", "--quiver", quiver_file(KRONECKER), "--trunc", "8",
                 "--cases", "10", "--json"])
    assert code == 0
    assert report["verdicts"]["all_passed"] is True
    assert "skipped" in report["tables"]["suite"]["torsion_ext_identities"]


def test_asreg_table_shows_coalgebra_ext_support(quiver_file, capsys):
    code, report = run_json(
        capsys, ["asreg", "--quiver", quiver_file(TWO_CYCLE), "--trunc", "8", "--json"])
    assert code == 0
    probe = report["tables"]["chi_probe"]["probes"]["S_1"]["coalgebra"]
    assert probe["dims"] == [0, 1]
    assert probe["vertex_support"][1] == {"2": 1}


def test_mmax_bound_enforced(quiver_file, capsys):
    with pytest.raises(SystemExit):
        main(["gate", "--quiver", quiver_file(LOOP), "--trunc", "4", "--mmax", "9"])
    capsys.readouterr()


def test_trunc_lower_bound(quiver_file, capsys):
    with pytest.raises(SystemExit):
        main(["gate", "--quiver", quiver_file(LOOP), "--trunc", "0"])
    capsys.readouterr()


def test_verify_cases_lower_bound(quiver_file, capsys):
    for cases in ("0", "-5"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--quiver", quiver_file(LOOP), "--cases", cases, "--json"])
        assert exc.value.code == 2
        assert "--cases must be at least 1" in capsys.readouterr().err


def test_ext_degree_two_certified_zero(quiver_file, capsys):
    code, report = run_json(
        capsys, ["ext", "--quiver", quiver_file(TWO_CYCLE), "--module", "C",
                 "--target", "simple:1", "--deg", "2", "--trunc", "8", "--json"])
    assert code == 0
    assert report["tables"]["ext"]["2"]["dimension"] == 0


def test_bad_object_spec_exits_two(quiver_file, capsys):
    code = main(["ext", "--quiver", quiver_file(LOOP), "--module", "simple:zebra",
                 "--target", "A", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert "simple:zebra" in report["error"]
    code2 = main(["ext", "--quiver", quiver_file(LOOP), "--module", "simple:7",
                  "--target", "A", "--json"])
    report2 = json.loads(capsys.readouterr().out)
    assert code2 == 2
    assert "out of range" in report2["error"]
    # vertices are 1-based; a bad vertex or a side mismatch is an input error
    cases = [
        (LOOP, ["--module", "simple:5", "--target", "A"], "vertex 5 out of range 1..1"),
        (LOOP, ["--module", "uniserial:0:2", "--target", "A"], "vertex 0 out of range 1..1"),
        (LOOP, ["--module", "free:0", "--target", "A"], "vertex 0 out of range 1..1"),
        (TWO_CYCLE, ["--module", "C", "--target", "simple:3"], "vertex 3 out of range 1..2"),
        (LOOP, ["--module", "injective:1", "--target", "simple:1"], "side mismatch"),
        (LOOP, ["--module", "free:1:-1", "--target", "A"], "degree -1 below 0"),
        (LOOP, ["--module", "uniserial:1:0", "--target", "A"], "length 0 below 1"),
        (KRONECKER, ["--module", "uniserial:1:2", "--target", "A"],
         "vertex 1 does not have a unique continuation"),
        (LOOP, ["--module", "C", "--target", "simple:1", "--deg", "-1"], "--deg -1"),
    ]
    for text, argv, message in cases:
        code = main(["ext", "--quiver", quiver_file(text), *argv, "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert message in report["error"]
    for family, message in (("injective:1,simple:1", "mixes left and right"),
                            ("simple:2", "vertex 2 out of range 1..1")):
        code = main(["cy", "--quiver", quiver_file(LOOP), "--family", family, "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert message in report["error"]


@pytest.mark.parametrize("module, target, message", [
    ("simple:1:7", "A", "simple takes at most 1 field(s) after its kind, got 2"),
    ("free:1:2:9", "A", "free takes at most 2 field(s) after its kind, got 3"),
    ("uniserial:1:2:3", "A", "uniserial takes at most 2 field(s) after its kind, got 3"),
    ("injective:1:1:x", "A", "injective takes at most 2 field(s) after its kind, got 3"),
    ("free:1:2", "simple:1:9", "simple takes at most 1 field(s) after its kind, got 2"),
    ("C", "simple:1:9", "simple takes at most 1 field(s) after its kind, got 2"),
], ids=["simple", "free", "uniserial", "injective", "target", "comodule-target"])
def test_object_spec_with_extra_fields_exits_two(quiver_file, capsys, module, target, message):
    code, report = run_json(capsys, ["ext", "--quiver", quiver_file(TWO_CYCLE), "--module", module,
                                     "--target", target, "--trunc", "8", "--json"])
    assert code == 2
    spec = target if module in ("C", "free:1:2") else module
    assert report["error"].startswith("bad ") and f"spec {spec!r}: {message}" in report["error"]


def test_rep_spec_keeps_colons_in_its_path(quiver_file, capsys, tmp_path):
    # rep:<file> reads everything after the first colon as the path
    folder = tmp_path / "a:b"
    folder.mkdir()
    (folder / "m.rep").write_text("side: left\ndims: 1 0\n", encoding="utf-8")
    code, report = run_json(capsys, ["ext", "--quiver", quiver_file(TWO_CYCLE), "--module",
                                     f"rep:{folder / 'm.rep'}", "--target", "A", "--trunc", "8", "--json"])
    assert code == 0
    assert report["tables"]["ext"]["1"]["dimension"] == 1


def test_ext_injective_against_algebra(quiver_file, capsys):
    code, report = run_json(
        capsys, ["ext", "--quiver", quiver_file(LOOP), "--module", "injective:1:3",
                 "--target", "A", "--trunc", "10", "--json"])
    assert code == 0
    assert report["tables"]["ext"]["1"]["dimension"] == 4
    assert report["tables"]["ext"]["0"]["dimension"] == 0


def test_ext_against_algebra_builds_no_module_structure(quiver_file, capsys, monkeypatch):
    """The ext report prints dimensions and certificates only, so neither
    degree builds a map of the module structure of Ext(M, A)."""
    from quiverhom import homology

    def refuse(*args, **kwargs):
        raise AssertionError("ext --target A built an induced map")

    monkeypatch.setattr(homology, "_induced_map", refuse)
    for deg in ([], ["--deg", "1"]):
        code, report = run_json(
            capsys, ["ext", "--quiver", quiver_file(LOOP), "--module", "injective:1:3",
                     "--target", "A", "--trunc", "10", "--json", *deg])
        assert code == 0
        assert report["tables"]["ext"]["1"]["dimension"] == 4


def test_quiver_file_field_used_when_no_flag(quiver_file, capsys):
    path = quiver_file(LOOP + "field: F3\n", name="loop_f3.quiver")
    code, report = run_json(capsys, ["asreg", "--quiver", path, "--trunc", "8", "--json"])
    assert code == 0
    assert report["field"] == {"kind": "prime", "characteristic": 3}
    # an explicit flag overrides the file
    code2, report2 = run_json(
        capsys, ["asreg", "--quiver", path, "--trunc", "8", "--field", "Q", "--json"])
    assert code2 == 0
    assert report2["field"] == {"kind": "rationals", "characteristic": 0}


def test_nakayama_report_names_conventions(quiver_file, capsys):
    code, report = run_json(
        capsys, ["nakayama", "--quiver", quiver_file(TWO_CYCLE), "--trunc", "10",
                 "--mmax", "8", "--json"])
    assert code == 0
    nak = report["tables"]["nakayama"]
    assert "compose right to left" in nak["convention"]
    assert "natural map" in nak["orientation"]


def test_verify_double_dual_roundtrip_catches_a_broken_dual(quiver_file, capsys, monkeypatch):
    from quiverhom import cli
    from quiverhom.exactlin import Matrix
    from quiverhom.repmod import Rep

    def zero_dual(m):
        side = "right" if m.side == "left" else "left"
        return Rep(m.quiver, side, m.field, m.dims,
                   tuple(Matrix.zeros(m.field, mat.cols, mat.rows) for mat in m.maps))

    monkeypatch.setattr(cli, "linear_dual", zero_dual)
    code, report = run_json(
        capsys, ["verify", "--quiver", quiver_file(LOOP), "--trunc", "8",
                 "--cases", "32", "--seed", "1", "--json"])
    assert code == 0
    roundtrip = report["tables"]["suite"]["double_dual_roundtrip"]
    assert roundtrip["cases"] == 4
    assert roundtrip["failures"] > 0
    assert report["verdicts"]["all_passed"] is False


def test_verify_builds_each_commutation_matrix_once(quiver_file, capsys, monkeypatch):
    """Hom and Ext^1 of one pair are read off one set of commutation rows,
    which `commutation_matrix` also builds through."""
    from quiverhom import repmod

    pairs = []  # the (M, N) objects themselves, so no id is reused during the run
    real = repmod._commutation_rows

    def counting(m, n):
        pairs.append((m, n))
        return real(m, n)

    monkeypatch.setattr(repmod, "_commutation_rows", counting)
    code, report = run_json(
        capsys, ["verify", "--quiver", quiver_file(KRONECKER), "--trunc", "6",
                 "--cases", "12", "--seed", "2", "--json"])
    assert code == 0 and report["verdicts"]["all_passed"] is True
    keys = [(id(m), id(n)) for m, n in pairs]
    assert len(keys) >= 2 * 12 and len(set(keys)) == len(keys)


def test_cli_import_loads_no_dataclasses_machinery():
    # dataclasses pulls in inspect, ast, dis and tokenize: several ms of every job's start-up
    src = Path(__file__).resolve().parent.parent / "src"
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    probe = f"import sys, quiverhom.cli; print(sorted(set({heavy!r}) & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


ROOT = Path(__file__).resolve().parent.parent
FLAGS = sorted({flag for *_, options in COMMANDS.values() for flag, *_ in COMMON_OPTIONS + options})
VALUES = ["12", "0", "-1", "x", "", "F7", "examples_quivers/two_cycle.quiver"]
TOKENS = [*COMMANDS, "bogus", *FLAGS, "--tr", "--trunc=12", "-h", "--", *VALUES]


@st.composite
def argvs(draw):
    """A plain argv of a command, with at most two tokens of the vocabulary
    inserted or overwritten, so that draws both parse and do not."""
    command = draw(st.sampled_from([*COMMANDS, "bogus"]))
    options = COMMON_OPTIONS + COMMANDS.get(command, (None, "", ()))[2]
    plain = st.sampled_from([(flag,) if kind is bool else (flag, value) for flag, kind, *_ in options
                             for value in (["12", "0"] if kind is int else ["x", "", "F7"])])
    required = [token for flag, _, default, _ in options if default is REQUIRED for token in (flag, "x")]
    argv = [command, *required, *(token for chunk in draw(st.lists(plain, max_size=5)) for token in chunk)]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv)))
        argv[at:at + draw(st.integers(0, 1))] = [draw(st.sampled_from(TOKENS))]
    return argv


@settings(derandomize=True, max_examples=400, deadline=None)
@given(argvs())
def test_quick_parse_agrees_with_argparse(argv):
    quick = _quick_parse(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            expected = vars(build_parser().parse_args(argv))
    except SystemExit:
        assert quick is None, argv
    else:
        assert quick is None or vars(quick) == expected, argv


def test_quick_parse_takes_every_golden_argv():
    golden = json.loads((ROOT / "bench" / "golden.json").read_text(encoding="utf-8"))
    parser = build_parser()
    assert len(golden) == 153
    for argv in map(str.split, golden):
        assert vars(_quick_parse(argv)) == vars(parser.parse_args(argv)), argv


def _run_module(*argv):
    return subprocess.run([sys.executable, "-S", "-m", "quiverhom", *argv], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True)


def test_plain_command_loads_no_argparse():
    # argparse loads gettext and locale: about 3 ms of every job, paid only for help and errors
    heavy = ("argparse", "gettext", "locale")
    probe = (f"import sys, quiverhom.cli as cli; loaded = set({heavy!r}) & set(sys.modules); "
             "code = cli.main(['localcoh', '--quiver', 'examples_quivers/two_cycle.quiver', '--trunc', '10', "
             "'--mmax', '10']); "
             f"print(sorted(loaded), sorted(set({heavy!r}) & set(sys.modules)), code, file=sys.stderr)")
    result = subprocess.run([sys.executable, "-S", "-c", probe], cwd=ROOT,
                            env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True)
    assert result.stderr.strip() == "[] [] 0"


def test_help_and_usage_errors_stay_argparse():
    helped = _run_module("--help")
    assert helped.returncode == 0 and helped.stdout.startswith("usage: quiverhom")
    for argv, message in (
            (["gate", "--quiver", "q.quiver", "--bogus"], "quiverhom: error: unrecognized arguments: --bogus"),
            (["gate", "--json"], "quiverhom gate: error: the following arguments are required: --quiver"),
            (["gate", "--quiver", "q.quiver", "--trunc", "x"],
             "quiverhom gate: error: argument --trunc: invalid int value: 'x'")):
        failed = _run_module(*argv)
        assert failed.returncode == 2 and failed.stdout == ""
        assert failed.stderr.startswith("usage: quiverhom ") and failed.stderr.endswith(message + "\n")
