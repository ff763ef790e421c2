"""Byte-identity guards for the engines.

Two checks, both against outputs recorded on a trusted commit:

- a cheap subset of the benchmark golden set (`bench/golden.json`) replays
  through `cli.main`, and each report, without `timings`, must match byte
  for byte with the same exit code;
- engine outputs the golden set does not pin (the dual-resolution row
  table, Hom into C and the rational part with their module maps, Ext
  against the algebra with its module maps, Ext bases, `ext` CLI reports,
  and standard resolutions before and after minimalization) must equal
  `tests/fixtures/engine_outputs.json` on the example quivers.  The package
  no longer ships the code behind some of them (the dual-resolution table,
  the module maps of Ext against the algebra, Ext bases, minimalization);
  `tests/rep_helpers.py` keeps it as it was.

Rewrite the fixture, on a trusted commit only, with

    PYTHONPATH=src python3 tests/test_golden_replay.py
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path as FilePath

import pytest

from quiverhom.homology import (
    StabilizationError,
    ext_vs_algebra,
    hom_into_C,
    rational_part,
    standard_resolution,
)
from quiverhom.pathcoalg import AlgElement
from quiverhom.quiver import Path, parse_quiver
from quiverhom.repmod import (
    GradedPresentation,
    presentation_of_rep,
    random_graded_rep,
    simple,
    truncated_free_rep,
    truncated_injective,
)
from rep_helpers import (  # tests/rep_helpers.py
    dual_resolution_check,
    ext_fd_basis,
    ext_rep,
    minimalize,
    truncated_free,
)
from replay_golden import load_workloads, run_job  # tests/replay_golden.py

ROOT = FilePath(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "fixtures" / "engine_outputs.json"
EXAMPLES = ("point", "loop", "two_cycle", "three_cycle", "kronecker")


# ----------------------------------------------------------------------
# golden replay

GOLDEN = json.loads((ROOT / "bench" / "golden.json").read_text(encoding="utf-8"))
_CHEAP = re.compile(r"^(localcoh|asreg|cy|nakayama) --quiver bench/\.work/cycle-1(-2(-3)?)?\.quiver --trunc 12 --json$")
WORKLOADS = load_workloads()
REPLAYED = sorted(k for k in GOLDEN if _CHEAP.match(k)) + [
    "verify --quiver bench/.work/kronecker.quiver --trunc 12 --seed 3 --cases 8 --json"]


@pytest.mark.parametrize("key", REPLAYED)
def test_golden_report_replays(key, tmp_path, monkeypatch):
    work = tmp_path / WORKLOADS.WORK_DIR
    work.mkdir(parents=True)
    stem = re.search(r"bench/\.work/(\S+)\.quiver", key).group(1)
    (work / f"{stem}.quiver").write_text(WORKLOADS.quiver_text(stem), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, report = run_job(key.split())
    assert code == GOLDEN[key]["exit"]
    assert report == GOLDEN[key]["report"]


# ----------------------------------------------------------------------
# engine outputs on the example quivers


def _quiver(name):
    return parse_quiver((ROOT / "examples_quivers" / f"{name}.quiver").read_text(encoding="utf-8"))


def _matrix(m) -> list:
    return [m.rows, m.cols, [[str(x) for x in row] for row in m.entries]]


def _rep(rep) -> dict:
    return {"side": rep.side, "dims": list(rep.dims), "maps": [_matrix(m) for m in rep.maps]}


def _described(fn, *args, rep=None) -> dict:
    """describe() of fn(*args) with its module maps (those of rep(*args)
    when given, else the report's own), or the certificate failure."""
    try:
        report = fn(*args)
    except StabilizationError as exc:
        return {"error": str(exc)}
    return {**report.describe(), "rep": _rep(rep(*args) if rep else report.rep)}


def _modules(q, fld):
    """Small left modules named by how they were built."""
    rng = random.Random(11)
    out = {}
    for v in q.vertices:
        out[f"simple:{v + 1}"] = simple(q, v, "left", fld)
        out[f"free:{v + 1}:2"] = truncated_free_rep(q, v, 2, "left", fld)
    for k in range(2):
        out[f"random:{k}"] = random_graded_rep(q, rng, "left", fld, max_per_degree=1, max_degree=2)
    return out


def _redundant(q, fld, side):
    """One generator at vertex 1 with a repeated relation and a relation that
    is a multiple of another, so that F1 -> F0 has a kernel on both counts."""
    ends = (lambda a: (a.source, a.target)) if side == "left" else (lambda a: (a.target, a.source))
    first = next((ai for ai, a in enumerate(q.arrows) if ends(a)[0] == 0), None)
    if first is None:
        return None
    a = q.arrows[first]
    v1 = ends(a)[1]
    one = Path(a.source, a.target, (first,))
    rels = [((v1, 1), one, 1), ((v1, 1), one, 2)]
    second = next((ai for ai, a in enumerate(q.arrows) if ends(a)[0] == v1), None)
    if second is not None:
        v2 = ends(q.arrows[second])[1]
        arrows = (first, second) if side == "left" else (second, first)
        src, tgt = (0, v2) if side == "left" else (v2, 0)
        rels.append(((v2, 2), Path(src, tgt, arrows), 1))
    entries = (tuple(AlgElement(fld, {p: c}) for _, p, c in rels),)
    return GradedPresentation(q, side, fld, ((0, 0),), tuple(r for r, _, _ in rels), entries)


def _presentations(q, fld):
    pres = {name: presentation_of_rep(m) for name, m in _modules(q, fld).items() if m.total_dim}
    for side in ("left", "right"):
        extra = _redundant(q, fld, side)
        if extra is not None:
            pres[f"{side} redundant"] = extra
    for v in q.vertices:
        pres[f"truncated_free:{v + 1}"] = truncated_free(q, v, 6, "left", fld)
        pres[f"right simple:{v + 1}"] = presentation_of_rep(simple(q, v, "right", fld))
        pres[f"right injective:{v + 1}:2"] = presentation_of_rep(truncated_injective(q, v, 2, "right", fld))
    return pres


def _presentation_outputs(name):
    q, fld = _quiver(name)
    out = {}
    for label, pres in _presentations(q, fld).items():
        out[label] = {
            "dual_resolution": dual_resolution_check(pres, 8, 5),
            "hom_into_C": _described(hom_into_C, pres, 8),
            "rational_part": _described(rational_part, pres, 8),
        }
    return out


def _ext_outputs(name):
    q, fld = _quiver(name)
    mods = _modules(q, fld)
    out = {}
    for a, m in mods.items():
        for b, n in mods.items():
            for i in (0, 1):
                report, basis = ext_fd_basis(m, n, i)
                out[f"ext_fd {a} {b} {i}"] = {
                    **report.describe(),
                    "basis": [[_matrix(x) for x in item] for item in basis],
                }
        if q.arrows:
            for i in (0, 1):
                out[f"ext_vs_algebra {a} {i}"] = _described(ext_vs_algebra, m, i, 10, rep=ext_rep)
    return out


def _element(el) -> list:
    return sorted([list(p.arrows), str(c)] for p, c in el.coeffs.items())


def _resolution(pres) -> dict:
    return {"generators": [list(g) for g in pres.generators],
            "relations": [list(r) for r in pres.relations],
            "entries": [[_element(el) for el in row] for row in pres.entries]}


def _resolution_outputs(name):
    q, fld = _quiver(name)
    out = {}
    for label, m in _modules(q, fld).items():
        pres = standard_resolution(m)
        out[label] = {"standard": _resolution(pres), "minimal": _resolution(minimalize(pres))}
    return out


def _cli_outputs(name):
    path = f"examples_quivers/{name}.quiver"
    q, _ = _quiver(name)
    specs = [("C", "simple:1"), ("simple:1", "A"), ("free:1:2", "A"), ("injective:1:2", "A"),
             ("free:1:2", "simple:1"), ("simple:1", "free:1:2"), ("injective:1:2", "injective:1:1")]
    if q.vertex_count > 1:
        specs += [("C", f"simple:{q.vertex_count}"), (f"simple:{q.vertex_count}", "A")]
    out = {}
    for module, target in specs:
        argv = ["ext", "--quiver", path, "--module", module, "--target", target, "--trunc", "8", "--json"]
        code, report = run_job(argv)
        out[" ".join(argv)] = {"exit": code, "report": report}
    return out


SECTIONS = {f"{kind} {name}": (fn, name)
            for name in EXAMPLES
            for kind, fn in (("presentations", _presentation_outputs), ("ext", _ext_outputs),
                             ("cli", _cli_outputs), ("resolutions", _resolution_outputs))}


def _compute(section):
    fn, name = SECTIONS[section]
    return json.loads(json.dumps(fn(name), sort_keys=True))


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_engine_outputs_match_fixture(section, monkeypatch):
    monkeypatch.chdir(ROOT)
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert _compute(section) == recorded[section]


if __name__ == "__main__":
    import os

    os.chdir(ROOT)
    FIXTURE.parent.mkdir(exist_ok=True)
    data = {section: _compute(section) for section in sorted(SECTIONS)}
    FIXTURE.write_text(json.dumps(data, sort_keys=True, indent=0) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE} ({len(data)} sections)")
