"""Command-line front door: quiver files in, structured verdicts out.

Commands: gate, ext, asreg, nakayama, cy, localcoh, verify.  Negative
mathematical verdicts (not AS-regular, not CY) are successful runs and exit
zero; nonzero exits are reserved for computation failures:

    2  parse or input error (parse errors carry line numbers; vertices in
       object specs are 1-based), including a module with no path-length
       grading: gradings are found on acyclic quivers and disjoint unions
       of cycles only
    3  growth-gate rejection without --force
    4  stabilization / truncation failure (the report names the smallest
       parameter change expected to fix it)

JSON reports carry a schema version and are byte-identical for identical
inputs and seed, apart from the timings block.

A plain command line (a command, then exact long options with their values)
is parsed from the option table without argparse.  Anything else, help and
usage errors included, goes to the argparse parser built from the same
table, so its help text, messages and exit codes are argparse's own.
"""

from __future__ import annotations

import json
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

from .exactlin import Field, Matrix
from .homology import (
    StabilizationError,
    duality_roundtrip_injective,
    ext_comodule_C,
    ext_comodule_model,
    ext_fd,
    ext_model,
    ext_vs_algebra,
    hom_into_C,
    local_cohomology,
    rational_part,
)
from .pathcoalg import AlgElement, PathCoalgebra, bigraded_dims, convolve
from .quiver import QuiverParseError, growth_gate, parse_quiver
from .regularity import (
    NotASRegularError,
    as_regular_check,
    chi_probe,
    cy_check,
    dualizing_report,
    nakayama,
)
from .repmod import (
    GradingError,
    Rep,
    arrow_ends,
    euler_pairing,
    graded_form,
    hom_dim,
    hom_ext1_dims,
    linear_dual,
    presentation_of_rep,
    random_graded_rep,
    rep_from_matrices,
    simple,
    truncated_injective,
    truncated_free_rep,
    uniserial,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GATE = 3
EXIT_STABILIZATION = 4


class CliError(RuntimeError):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def parse_rep_literal(text: str, quiver, fld: Field) -> Rep:
    """Parse the small Rep text format: side line, dims line, one matrix
    block per arrow introduced by 'arrow <label>:'.  Entries are integers or
    fractions p/q, coerced into the field line by line."""
    side = "left"
    dims = None
    blocks = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("side:"):
            side = line.split(":", 1)[1].strip()
            continue
        if line.startswith("dims:"):
            dims = [int(x) for x in line.split(":", 1)[1].split()]
            continue
        if line.startswith("arrow"):
            label = line.split(None, 1)[1].rstrip(":").strip()
            matches = [i for i, a in enumerate(quiver.arrows) if a.label == label]
            if not matches:
                raise CliError(f"rep literal line {lineno}: unknown arrow {label!r}", EXIT_PARSE)
            current = matches[0]
            blocks[current] = []
            continue
        if current is None:
            raise CliError(f"rep literal line {lineno}: matrix row outside arrow block", EXIT_PARSE)
        row = []
        for tok in line.split():
            try:
                row.append(fld.of(Fraction(tok)))
            except (ValueError, ZeroDivisionError):
                raise CliError(f"rep literal line {lineno}: entry {tok!r} is not an element of {fld!r}",
                               EXIT_PARSE) from None
        blocks[current].append(row)
    if dims is None:
        raise CliError("rep literal: missing dims line", EXIT_PARSE)
    maps = []
    for ai, a in enumerate(quiver.arrows):
        dom, cod = arrow_ends(side, a)
        rows = blocks.get(ai, [])
        if not rows:
            maps.append(Matrix.zeros(fld, dims[cod], dims[dom]))
        else:
            maps.append(Matrix(fld, rows, cols=dims[dom]))
    return rep_from_matrices(quiver, dims, maps, side, fld)


def _vertex(text: str, quiver) -> int:
    """0-based index of the 1-based vertex named in an object spec."""
    v = int(text)
    if not 1 <= v <= quiver.vertex_count:
        raise ValueError(f"vertex {v} out of range 1..{quiver.vertex_count}")
    return v - 1


def _at_least(text: str, least: int, what: str) -> int:
    n = int(text)
    if n < least:
        raise ValueError(f"{what} {n} below {least}")
    return n


# the most fields an object spec of each kind has, the kind included
_SPEC_FIELDS = {"simple": 2, "injective": 3, "free": 3, "uniserial": 3}


def _spec_fields(spec: str) -> list:
    """The ':'-separated fields of an object spec; rep:<file> keeps the rest
    as its path.  A spec with more fields than its kind takes is refused."""
    kind = spec.split(":", 1)[0]
    parts = spec.split(":", 1) if kind == "rep" else spec.split(":")
    most = _SPEC_FIELDS.get(kind, len(parts))
    if len(parts) > most:
        raise ValueError(f"{kind} takes at most {most - 1} field(s) after its kind, got {len(parts) - 1}")
    return parts


def resolve_rep_spec(spec: str, quiver, trunc: int, fld: Field) -> Rep:
    """Object specs: simple:<v>, injective:<v>[:<N>], free:<v>[:<N>],
    uniserial:<v>:<len>, rep:<file>; vertices are 1-based."""
    try:
        parts = _spec_fields(spec)
        kind = parts[0]
        if kind == "simple":
            return simple(quiver, _vertex(parts[1], quiver), "left", fld)
        if kind == "injective":
            n = _at_least(parts[2], 0, "degree") if len(parts) > 2 else min(3, trunc)
            return truncated_injective(quiver, _vertex(parts[1], quiver), n, "right", fld)
        if kind == "free":
            n = _at_least(parts[2], 0, "degree") if len(parts) > 2 else min(3, trunc)
            return truncated_free_rep(quiver, _vertex(parts[1], quiver), n, "left", fld)
        if kind == "uniserial":
            return uniserial(quiver, _vertex(parts[1], quiver), _at_least(parts[2], 1, "length"), "left", fld)
        if kind == "rep":
            with open(parts[1], encoding="utf-8") as fh:
                return parse_rep_literal(fh.read(), quiver, fld)
    except (IndexError, ValueError, OSError) as exc:
        raise CliError(f"bad object spec {spec!r}: {exc}", EXIT_PARSE) from None
    raise CliError(f"unknown object spec {spec!r}", EXIT_PARSE)


def _base_report(args, command: str) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "config": {
            "quiver": args.quiver,
            "trunc": args.trunc,
            "mmax": args.mmax,
            "field": args.field,
            "seed": args.seed,
            "force": bool(args.force),
        },
    }


def _load(args):
    try:
        with open(args.quiver, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read quiver file: {exc}", EXIT_PARSE) from None
    try:
        quiver, file_field = parse_quiver(text)
    except QuiverParseError as exc:
        raise CliError(str(exc), EXIT_PARSE) from None
    try:
        fld = Field.parse(args.field) if args.field else file_field
    except ValueError as exc:
        raise CliError(f"--field: {exc}", EXIT_PARSE) from None
    return quiver, fld


def _gate(quiver, args):
    verdict = growth_gate(quiver)
    if not verdict.bounded and not args.force:
        witness = verdict.describe()
        raise CliError(
            "growth gate rejected the quiver (pass --force for "
            f"finite-dimensional-only computations); witness: {witness['witness']['kind']}",
            EXIT_GATE,
        )
    return verdict


def cmd_gate(args) -> tuple:
    quiver, fld = _load(args)
    verdict = growth_gate(quiver)
    report = _base_report(args, "gate")
    desc = verdict.describe()
    if not verdict.bounded:
        w = desc["witness"]
        desc["witness"] = {
            "kind": w["kind"],
            "vertex_pair": [v + 1 for v in w["vertex_pair"]],
            "path_length": w["paths"][0].length,
            "paths": [
                {"source": p.source + 1, "target": p.target + 1,
                 "arrows": [quiver.arrows[ai].label for ai in p.arrows]}
                for p in w["paths"]
            ],
        }
    report["verdicts"] = {"growth": desc}
    code = EXIT_OK if verdict.bounded or args.force else EXIT_GATE
    return report, code


def cmd_ext(args) -> tuple:
    quiver, fld = _load(args)
    report = _base_report(args, "ext")
    report["config"]["module"] = args.module
    report["config"]["target"] = args.target
    report["config"]["degree"] = args.deg
    if args.deg is not None and args.deg < 0:
        raise CliError(f"--deg {args.deg}: cohomological degrees start at 0", EXIT_PARSE)
    degrees = [args.deg] if args.deg is not None else [0, 1]
    results = {}
    if args.module == "C":
        _gate(quiver, args)
        if not args.target.startswith("simple:"):
            raise CliError("ext with module C needs target simple:<v>", EXIT_PARSE)
        try:
            j = _vertex(_spec_fields(args.target)[1], quiver)
        except (IndexError, ValueError) as exc:
            raise CliError(f"bad target spec {args.target!r}: {exc}", EXIT_PARSE) from None
        model = ext_comodule_model(quiver, j, args.trunc, fld) if args.deg is None else None
        for i in degrees:
            results[str(i)] = ext_comodule_C(quiver, j, i, args.trunc, fld, model=model).describe()
    elif args.target == "A":
        _gate(quiver, args)
        m = resolve_rep_spec(args.module, quiver, args.trunc, fld)
        # both default degrees are read off one model; the report holds no module structure
        model = ext_model(presentation_of_rep(m), args.trunc) if args.deg is None else None
        for i in degrees:
            results[str(i)] = ext_vs_algebra(m, i, args.trunc, model=model).describe()
    else:
        m = resolve_rep_spec(args.module, quiver, args.trunc, fld)
        n = resolve_rep_spec(args.target, quiver, args.trunc, fld)
        if m.side != n.side:
            raise CliError(f"side mismatch: {args.module} is a {m.side} module, "
                           f"{args.target} a {n.side} module", EXIT_PARSE)
        for i in degrees:
            results[str(i)] = ext_fd(m, n, i).describe()
    report["tables"] = {"ext": results}
    return report, EXIT_OK


def cmd_asreg(args) -> tuple:
    quiver, fld = _load(args)
    _gate(quiver, args)
    report = _base_report(args, "asreg")
    verdict = as_regular_check(quiver, args.trunc, fld)
    report["verdicts"] = {"as_regular": verdict.as_regular,
                          "gldim": verdict.gldim,
                          "sides_agree": verdict.sides_agree}
    report["tables"] = {"ext": verdict.describe()["tables"],
                        "failures": verdict.failures,
                        "chi_probe": chi_probe(quiver, args.trunc, fld)}
    report["field"] = fld.describe()
    return report, EXIT_OK


def cmd_nakayama(args) -> tuple:
    quiver, fld = _load(args)
    _gate(quiver, args)
    report = _base_report(args, "nakayama")
    try:
        nak = nakayama(quiver, args.trunc, args.mmax, fld)
    except NotASRegularError as exc:
        report["verdicts"] = {"applicable": False, "reason": str(exc),
                              "witness": exc.witness}
        return report, EXIT_OK
    report["verdicts"] = {"applicable": True, "inner": nak.inner}
    report["tables"] = {"nakayama": nak.describe(),
                        "dualizing": dualizing_report(nak)}
    return report, EXIT_OK


def cmd_cy(args) -> tuple:
    quiver, fld = _load(args)
    _gate(quiver, args)
    report = _base_report(args, "cy")
    if args.family:
        family = [resolve_rep_spec(s.strip(), quiver, args.trunc, fld)
                  for s in args.family.split(",")]
        if len({x.side for x in family}) > 1:
            raise CliError(f"side mismatch: --family {args.family} mixes left and right modules", EXIT_PARSE)
    else:
        family = [simple(quiver, v, "left", fld) for v in quiver.vertices]
        family += [truncated_free_rep(quiver, v, 2, "left", fld) for v in quiver.vertices]
    report["config"]["family"] = args.family or "default (simples + small frees)"
    try:
        result = cy_check(quiver, family, args.trunc, args.mmax, fld)
    except NotASRegularError as exc:
        report["verdicts"] = {"applicable": False, "reason": str(exc),
                              "witness": exc.witness}
        return report, EXIT_OK
    report["verdicts"] = {"cy": result["cy"], "verdict": result["verdict"]}
    report["tables"] = {"cy": result}
    return report, EXIT_OK


def cmd_localcoh(args) -> tuple:
    quiver, fld = _load(args)
    _gate(quiver, args)
    report = _base_report(args, "localcoh")
    gldim = 0 if not quiver.arrows else 1
    i = args.index if args.index is not None else gldim
    if not 0 <= i <= gldim:
        raise CliError(f"--index {i}: index must be 0..{gldim} (gldim {gldim})", EXIT_PARSE)
    report["config"]["index"] = i
    lc = local_cohomology(quiver, i, args.mmax, args.trunc, fld)
    report["tables"] = {"local_cohomology": lc.describe(),
                        "coalgebra_bigraded": bigraded_dims(quiver, lc.max_degree).describe()}
    report["verdicts"] = {"matches_twisted_coalgebra": lc.twist_sigma is not None}
    return report, EXIT_OK


def cmd_verify(args) -> tuple:
    quiver, fld = _load(args)
    _gate(quiver, args)
    report = _base_report(args, "verify")
    rng = random.Random(args.seed)
    cases = args.cases
    suite = {}

    # coalgebra laws
    coalg = PathCoalgebra(quiver, min(args.trunc, 6), fld)
    law_fail = 0
    for p in coalg.basis():
        splits = coalg.comultiply(p)
        lefts = [p2 for p2, p1 in splits if not fld.is_zero(coalg.counit(p1))]
        rights = [p1 for p2, p1 in splits if not fld.is_zero(coalg.counit(p2))]
        if lefts != [p] or rights != [p] or len(splits) != p.length + 1:
            law_fail += 1
        one = sorted(
            ((q2, q1, p1) for p2, p1 in splits for q2, q1 in coalg.comultiply(p2)), key=repr)
        two = sorted(
            ((p2, q2, q1) for p2, p1 in splits for q2, q1 in coalg.comultiply(p1)), key=repr)
        if one != two:
            law_fail += 1
    suite["coalgebra_laws"] = {"cases": len(coalg.basis()), "failures": law_fail}

    # convolution associativity on random triples
    n_conv = min(args.trunc, 5)
    basis = PathCoalgebra(quiver, n_conv, fld).basis()
    conv_fail = 0
    for _ in range(cases):
        f, g, h = (
            AlgElement(fld, {p: rng.randint(-2, 2)
                             for p in rng.sample(basis, min(3, len(basis)))})
            for _ in range(3)
        )
        if convolve(convolve(f, g, n_conv), h, n_conv) != convolve(f, convolve(g, h, n_conv), n_conv):
            conv_fail += 1
    suite["convolution_associativity"] = {"cases": cases, "failures": conv_fail}

    # Euler form and duality involution on random pairs
    euler_fail = 0
    dual_fail = 0
    for _ in range(cases):
        m = random_graded_rep(quiver, rng, "left", fld)
        n = random_graded_rep(quiver, rng, "left", fld)
        d_hom, d_ext = hom_ext1_dims(m, n)
        if d_hom - d_ext != euler_pairing(m, n):
            euler_fail += 1
        if d_hom != hom_dim(linear_dual(n), linear_dual(m)):
            dual_fail += 1
    suite["euler_form"] = {"cases": cases, "failures": euler_fail}
    suite["duality_involution"] = {"cases": cases, "failures": dual_fail}

    # double-dual roundtrip: the linear dual keeps the endomorphism dimension
    roundtrip_fail = 0
    for _ in range(max(4, cases // 8)):
        m = random_graded_rep(quiver, rng, "left", fld)
        dual = linear_dual(m)
        if hom_dim(m, m) != hom_dim(dual, dual):
            roundtrip_fail += 1
    suite["double_dual_roundtrip"] = {"cases": max(4, cases // 8), "failures": roundtrip_fail}

    # injective roundtrips through both one-sided local cohomologies; only
    # meaningful where the twisted-column identification exists
    try:
        verdicts = duality_roundtrip_injective(quiver, args.mmax, args.trunc, fld)
        inj_fail = sum(1 for verdict in verdicts if not verdict["passes"])
        suite["injective_roundtrip"] = {"cases": quiver.vertex_count, "failures": inj_fail}
    except (StabilizationError, ValueError):
        suite["injective_roundtrip"] = {
            "cases": 0, "failures": 0,
            "skipped": "no stabilized twisted column at these parameters",
        }

    # phi check on random graded presentations through degree 6: Hom(M, C)
    # is the graded dual of M, so its dimensions are M's graded dimension
    phi_fail = 0
    phi_cases = max(3, cases // 10)
    for _ in range(phi_cases):
        m = random_graded_rep(quiver, rng, "left", fld)
        if m.total_dim == 0:
            continue
        g, degrees = graded_form(m)
        hom = hom_into_C(presentation_of_rep(g, degrees), min(args.trunc, 8))
        if hom.dims_by_degree != Counter(d for fiber in degrees for d in fiber):
            phi_fail += 1
    suite["phi_check"] = {"cases": phi_cases, "failures": phi_fail}

    # torsion-duality identities: dim Ext^n(M, A) = dim Rat(M) at n = gldim,
    # lower degrees unchanged by killing the torsion; a theorem only on
    # regular instances, so skipped (not failed) elsewhere
    regularity = as_regular_check(quiver, args.trunc, fld)
    if regularity.as_regular:
        n_top = regularity.gldim
        cor_fail = 0
        cor_cases = max(3, cases // 10)
        for _ in range(cor_cases):
            m = random_graded_rep(quiver, rng, "left", fld)
            if m.total_dim == 0:
                continue
            # one presentation for the rational part and one model for both Ext degrees
            pres = presentation_of_rep(m)
            model = ext_model(pres, args.trunc)
            e_top = ext_vs_algebra(m, n_top, args.trunc, model=model).total_dim
            rat = rational_part(pres, args.trunc).total_dim
            bad = e_top != rat
            if n_top > 0:
                e0 = ext_vs_algebra(m, 0, args.trunc, model=model).total_dim
                if rat == m.total_dim and e0 != 0:
                    bad = True
            if bad:
                cor_fail += 1
        suite["torsion_ext_identities"] = {"cases": cor_cases, "failures": cor_fail}
    else:
        suite["torsion_ext_identities"] = {
            "cases": 0, "failures": 0,
            "skipped": "instance is not AS-regular; identity not asserted",
        }

    # graded finality: a larger truncation must not disturb certified degrees
    final_fail = 0
    small = bigraded_dims(quiver, min(args.trunc, 6))
    large = bigraded_dims(quiver, min(args.trunc, 6) + 3)
    for ell in range(small.up_to + 1):
        if small.matrix(ell) != large.matrix(ell):
            final_fail += 1
    s1 = simple(quiver, 0, "left", fld)
    r_small = ext_vs_algebra(s1, 1, args.trunc)
    r_large = ext_vs_algebra(s1, 1, args.trunc + 2)
    if r_small.graded_dims != r_large.graded_dims:
        final_fail += 1
    suite["graded_finality"] = {"cases": small.up_to + 2, "failures": final_fail}

    total_failures = sum(block["failures"] for block in suite.values())
    report["verdicts"] = {"all_passed": total_failures == 0,
                          "total_failures": total_failures}
    report["tables"] = {"suite": suite}
    return report, EXIT_OK


# Each command's function, help line and options, read by both `_quick_parse`
# and `build_parser`.  An option is (flag, type, default, help): type bool is
# a switch that stores True, and default REQUIRED makes the option required.
REQUIRED = object()
COMMON_OPTIONS = (
    ("--quiver", str, REQUIRED, "quiver file"),
    ("--trunc", int, 12, "truncation degree N"),
    ("--mmax", int, None, "colimit stage bound (default N)"),
    ("--field", str, None, "Q or F<p>; overrides the file"),
    ("--json", bool, False, "JSON report on stdout"),
    ("--seed", int, 0, "seed for randomized suites"),
    ("--force", bool, False, "proceed past a gate rejection (finite-dimensional work only)"),
)
COMMANDS = {  # command: (function, help, options after the common ones)
    "gate": (cmd_gate, "growth gate verdict", ()),
    "ext": (cmd_ext, "Ext computations", (
        ("--module", str, REQUIRED, "C | simple:v | injective:v[:N] | free:v[:N] | uniserial:v:len | rep:file"),
        ("--target", str, REQUIRED, "A | simple:v | ... (object specs)"),
        ("--deg", int, None, "cohomological degree (default: 0 and 1)"),
    )),
    "asreg": (cmd_asreg, "AS-regularity verdict with chi probes", ()),
    "nakayama": (cmd_nakayama, "Nakayama twist, innerness, dualizing complex", ()),
    "cy": (cmd_cy, "Serre identities and Calabi-Yau verdict", (
        ("--family", str, None, "comma-separated object specs"),
    )),
    "localcoh": (cmd_localcoh, "local cohomology bigraded dims", (
        ("--index", int, None, "cohomological index (default gldim)"),
    )),
    "verify": (cmd_verify, "full invariant suite", (
        ("--cases", int, 48, "random cases per property"),
    )),
}


def build_parser():
    """The argparse parser over the option table; it prints help and usage errors."""
    import argparse  # not on the plain-argv path: argparse loads gettext and locale

    parser = argparse.ArgumentParser(
        prog="quiverhom",
        description="homological invariants of path coalgebras and their completed duals",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, options) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for flag, kind, default, help_text in COMMON_OPTIONS + options:
            if kind is bool:
                p.add_argument(flag, action="store_true", help=help_text)
            elif default is REQUIRED:
                p.add_argument(flag, type=kind, required=True, help=help_text)
            else:
                p.add_argument(flag, type=kind, default=default, help=help_text)
    return parser


def _quick_parse(argv):
    """The namespace argparse would give a plain argv, or None.

    Plain means a command name, then exact long options of that command, each
    valued one followed by a value that does not start with '-' and converts
    by the option's type, and every required option given.  Anything else
    (help, abbreviations, --opt=value, negative or missing values, unknown
    options) is left to argparse, so its messages and exit codes stay its own.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    options = COMMON_OPTIONS + COMMANDS[argv[0]][2]
    kinds = {flag: kind for flag, kind, _, _ in options}
    values = {flag[2:]: default for flag, _, default, _ in options}
    tokens = iter(argv[1:])
    for flag in tokens:
        kind = kinds.get(flag)
        if kind is bool:
            values[flag[2:]] = True
            continue
        value = next(tokens, None)
        if kind is None or value is None or value.startswith("-"):
            return None
        try:
            values[flag[2:]] = kind(value)
        except ValueError:
            return None
    if REQUIRED in values.values():
        return None
    return SimpleNamespace(command=argv[0], **values)


def _render_text(report: dict, stream) -> None:
    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for key, val in obj.items():
                if isinstance(val, (dict, list)) and val:
                    stream.write(f"{pad}{key}:\n")
                    walk(val, indent + 1)
                else:
                    stream.write(f"{pad}{key}: {val}\n")
        elif isinstance(obj, list):
            for item in obj:
                if isinstance(item, (dict, list)):
                    stream.write(f"{pad}-\n")
                    walk(item, indent + 1)
                else:
                    stream.write(f"{pad}- {item}\n")

    stream.write(f"== quiverhom {report['command']} ==\n")
    walk({k: v for k, v in report.items() if k not in ("schema", "command")})


def _fail(args, code: int, **fields) -> int:
    """Print an error report (JSON under --json, else one stderr line) and
    return the exit code."""
    if args.json:
        print(json.dumps({"schema": SCHEMA_VERSION, "command": args.command, **fields}, sort_keys=True))
    else:
        print(f"error: {fields['error']}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _quick_parse(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    if args.trunc < 1:
        build_parser().error("--trunc must be at least 1")
    if args.command == "verify" and args.cases < 1:
        build_parser().error("--cases must be at least 1")
    if args.mmax is None:
        args.mmax = args.trunc
    if args.mmax > args.trunc + 1:
        build_parser().error("--mmax must be at most --trunc + 1")
    started = time.perf_counter()
    try:
        report, code = COMMANDS[args.command][0](args)
    except CliError as exc:
        return _fail(args, exc.code, error=str(exc))
    except GradingError as exc:
        return _fail(args, EXIT_PARSE, error=f"no path-length grading ({exc}); the grading scope "
                                             "is acyclic quivers and disjoint unions of cycles")
    except StabilizationError as exc:
        return _fail(args, EXIT_STABILIZATION, error=str(exc), suggestion=exc.suggestion)
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    report["timings"] = {"total_ms": elapsed_ms}
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        _render_text(report, sys.stdout)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
