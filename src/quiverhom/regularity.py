"""Regularity verdicts: global dimension, AS-regularity on both sides, the
natural map on simples, the Nakayama twist with innerness test, the chi
probes, Serre identities and the Calabi-Yau verdict.

Verdicts always ship with their evidence: per-simple Ext tables, bigraded
local-cohomology data, witnesses for failures.  A negative verdict is a
successful computation.
"""

from __future__ import annotations

from .exactlin import Field
from .homology import (
    LocalCohReport,
    ext_comodule_C,
    ext_comodule_model,
    ext_model,
    ext_vs_algebra,
    local_cohomology,
)
from .quiver import Quiver, Record, growth_gate
from .repmod import Rep, VertexTwist, hom_ext1_dims, presentation_of_rep, simple, truncated_injective, twist


class NotASRegularError(RuntimeError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def global_dimension(q: Quiver) -> int:
    """0 without arrows, 1 otherwise: a path algebra is hereditary, and the
    simple at the tail of an arrow is not projective."""
    if not growth_gate(q).bounded:
        raise ValueError("growth gate rejected the quiver")
    return 0 if not q.arrows else 1


class RegularityVerdict(Record):
    __slots__ = ("as_regular", "gldim", "tables", "failures", "sides_agree", "field")

    def __init__(self, as_regular: bool, gldim: int, tables: dict, failures: list,
                 sides_agree: bool, field: Field):
        self.as_regular, self.gldim = as_regular, gldim
        self.tables = tables        # side -> vertex -> degree -> ExtReport
        self.failures = failures    # witnesses: dicts naming side, simple, degree, dim
        self.sides_agree, self.field = sides_agree, field

    def describe(self) -> dict:
        table_out = {}
        for side, per_vertex in self.tables.items():
            table_out[side] = {
                str(v + 1): {str(i): rep.describe() for i, rep in degs.items()}
                for v, degs in per_vertex.items()
            }
        return {
            "as_regular": self.as_regular,
            "gldim": self.gldim,
            "tables": table_out,
            "failures": self.failures,
            "sides_agree": self.sides_agree,
            "field": self.field.describe(),
        }


def as_regular_check(q: Quiver, trunc: int, fld: Field | None = None) -> RegularityVerdict:
    """AS-regularity on both sides, with the full per-simple Ext table.

    Regular means: for every simple S, Ext^i(S, A) vanishes for i != gldim
    and is one-dimensional (hence simple) at i = gldim.  The two one-sided
    verdicts must agree; disagreement is flagged as an internal-consistency
    failure rather than silently merged.
    """
    fld = fld or Field(0)
    n = global_dimension(q)
    tables = {}
    failures = []
    side_verdicts = {}
    for side in ("left", "right"):
        per_vertex = {}
        ok = True
        for v in q.vertices:
            s = simple(q, v, side, fld)
            model = ext_model(presentation_of_rep(s), trunc)
            degs = {}
            for i in range(n + 1):
                report = ext_vs_algebra(s, i, trunc, model=model)
                degs[i] = report
                if i < n and report.total_dim != 0:
                    ok = False
                    failures.append({
                        "side": side, "simple": v + 1, "degree": i,
                        "dimension": report.total_dim,
                        "reason": "nonzero below the global dimension",
                    })
                if i == n and report.total_dim != 1:
                    ok = False
                    failures.append({
                        "side": side, "simple": v + 1, "degree": i,
                        "dimension": report.total_dim,
                        "reason": "top Ext not one-dimensional simple",
                    })
            per_vertex[v] = degs
        tables[side] = per_vertex
        side_verdicts[side] = ok
    agree = side_verdicts["left"] == side_verdicts["right"]
    return RegularityVerdict(
        as_regular=side_verdicts["left"] and side_verdicts["right"] and agree,
        gldim=n, tables=tables, failures=failures, sides_agree=agree, field=fld,
    )


class NakayamaReport(Record):
    __slots__ = ("gldim", "vertex_map", "twist", "order", "inner", "witness", "orientation",
                 "localcoh", "field")

    def __init__(self, gldim: int, vertex_map: tuple, twist: VertexTwist, order: int, inner: str,
                 witness: dict, orientation: str, localcoh: LocalCohReport, field: Field):
        self.gldim, self.twist, self.order = gldim, twist, order
        self.vertex_map = vertex_map  # the natural map on simples, 0-based
        self.inner = inner            # "yes" | "no" | "undetermined"
        self.witness, self.orientation, self.localcoh, self.field = witness, orientation, localcoh, field

    def describe(self) -> dict:
        return {
            "gldim": self.gldim,
            "natural_map": [v + 1 for v in self.vertex_map],
            "twist": self.twist.describe(),
            "order": self.order,
            "inner": self.inner,
            "witness": self.witness,
            "orientation": self.orientation,
            "convention": (
                "paths compose right to left; on a cycle the natural map sends "
                "a vertex to the head of its outgoing arrow"
            ),
            "local_cohomology": self.localcoh.describe(),
            "field": self.field.describe(),
        }


def _arrow_matching(q: Quiver, sigma: tuple) -> tuple:
    """sigma-compatible arrow permutation; unique on multiplicity-one quivers."""
    match = []
    for a in q.arrows:
        candidates = [
            bi for bi, b in enumerate(q.arrows)
            if b.source == sigma[a.source] and b.target == sigma[a.target]
        ]
        if len(candidates) != 1:
            raise NotASRegularError(
                f"arrow matching for {a.label!r} is not unique under the vertex map"
            )
        match.append(candidates[0])
    return tuple(match)


def nakayama(q: Quiver, trunc: int, m_max: int, fld: Field | None = None) -> NakayamaReport:
    """Nakayama twist: vertex part from the natural map on simples, arrow part
    from the bigraded local-cohomology match; the two sources must agree.

    For an identity vertex map the cycle products counted off the stabilized
    local cohomology decide innerness: each is 1, and with none counted
    (m_max too small for every cycle) innerness is undetermined.  A
    non-identity vertex map is never inner, since inner automorphisms of a
    basic complete algebra fix the idempotent classes.
    Only H^n at n = gldim is computed: in the degrees local_cohomology reads,
    no block at the other index has labels of its own, so its vanishing
    holds by construction and is not checked.
    """
    fld = fld or Field(0)
    verdict = as_regular_check(q, trunc, fld)
    if not verdict.as_regular:
        raise NotASRegularError("instance is not AS-regular", witness=verdict.failures)
    n = verdict.gldim
    # the natural map: AS-regularity makes each top Ext simple, at one vertex
    nat = tuple(next(iter(verdict.tables["left"][v][n].vertex_support)) for v in q.vertices)
    if sorted(nat) != list(q.vertices):
        raise NotASRegularError(f"natural map {[w + 1 for w in nat]} is not a bijection")
    lc = local_cohomology(q, n, m_max, trunc, fld, side="left")
    if lc.twist_sigma is None:
        raise NotASRegularError(
            f"no twisted-coalgebra match for the local cohomology: {lc.twist_note}",
            witness=lc.describe(),
        )
    sigma = lc.twist_sigma
    inv_nat = [0] * len(nat)
    for v, w in enumerate(nat):
        inv_nat[w] = v
    if sigma == nat:
        orientation = "local-cohomology vertex map equals the natural map"
    elif sigma == tuple(inv_nat):
        orientation = "local-cohomology vertex map equals the inverse of the natural map"
    else:
        raise NotASRegularError(
            f"vertex maps disagree: natural map {[w + 1 for w in nat]}, "
            f"local cohomology {[w + 1 for w in sigma]}"
        )
    arrow_map = _arrow_matching(q, sigma)
    identity_vertices = all(sigma[v] == v for v in q.vertices)
    # a cycle product is 1 wherever it is counted, so every arrow scalar is 1
    twist_datum = VertexTwist(sigma, arrow_map, tuple(fld.one for _ in q.arrows))
    twist_datum.validate(q, fld)
    inner_verdict = inner_test(q, twist_datum, fld)
    inner = "yes" if inner_verdict["inner"] else "no"
    if identity_vertices and not lc.cycle_products and q.arrows:
        inner = "undetermined"
    return NakayamaReport(
        gldim=n, vertex_map=nat, twist=twist_datum, order=twist_datum.order(),
        inner=inner, witness=inner_verdict, orientation=orientation,
        localcoh=lc, field=fld,
    )


def inner_test(q: Quiver, t: VertexTwist, fld: Field | None = None) -> dict:
    """Innerness of a twist of the basic complete algebra.

    Not inner whenever the vertex map moves a vertex.  For vertex-fixing
    twists, inner exactly when the arrow scalars are a coboundary: c_v exist
    with scalar(a) = c_head / c_tail, decided by a spanning-tree assignment
    and verified on every arrow (equivalently, cycle products are 1).
    """
    fld = fld or Field(0)
    t.validate(q, fld)
    if not t.is_identity_on_vertices():
        moved = next(v for v in q.vertices if t.sigma[v] != v)
        return {
            "inner": False,
            "reason": "vertex map moves idempotent classes",
            "witness": {"vertex": moved + 1, "image": t.sigma[moved] + 1},
        }
    c = {}
    for start in q.vertices:
        if start in c:
            continue
        c[start] = fld.one
        stack = [start]
        while stack:
            v = stack.pop()
            for ai, a in enumerate(q.arrows):
                lam = fld.of(t.scalars[ai])
                if a.source == v and a.target not in c:
                    c[a.target] = fld.mul(lam, c[v])
                    stack.append(a.target)
                elif a.target == v and a.source not in c:
                    c[a.source] = fld.mul(c[v], fld.inv(lam))
                    stack.append(a.source)
    for ai, a in enumerate(q.arrows):
        lam = fld.of(t.scalars[ai])
        if not fld.is_zero(fld.sub(fld.mul(lam, c[a.source]), c[a.target])):
            return {
                "inner": False,
                "reason": "cycle product differs from 1",
                "witness": {"arrow": a.label, "scalar": str(lam)},
            }
    return {
        "inner": True,
        "reason": "scalars are the coboundary of the listed vertex units",
        "witness": {"vertex_units": {str(v + 1): str(c[v]) for v in q.vertices}},
    }


def chi_probe(q: Quiver, trunc: int, fld: Field | None = None) -> dict:
    """Finite-dimensionality probes for the chi condition.

    For every simple S and probe object M among the simples, the truncated
    injectives, and the coalgebra itself, certifies dim Ext^i(M, S) finite
    for all i <= gldim.  Finite-dimensional probes are exact, both degrees
    off one rank per probe pair; the coalgebra probe carries the
    stabilization certificate of the dual-complex route.  A probe that cannot
    be certified raises StabilizationError rather than failing, so `passes`
    is always true.
    """
    fld = fld or Field(0)
    n = global_dimension(q)
    inj_trunc = min(3, trunc)
    simples = [simple(q, v, "right", fld) for v in q.vertices]
    injectives = [truncated_injective(q, v, inj_trunc, "right", fld) for v in q.vertices]
    probes = {}
    for sv, s in enumerate(simples):
        per_probe = {}
        for pv in q.vertices:
            dims = list(hom_ext1_dims(simples[pv], s)[:n + 1])
            per_probe[f"simple:{pv + 1}"] = {"dims": dims, "finite": True}
            dims_inj = list(hom_ext1_dims(injectives[pv], s)[:n + 1])
            per_probe[f"injective:{pv + 1}"] = {"dims": dims_inj, "finite": True}
        dims_c = []
        certs = []
        supports = []
        model = ext_comodule_model(q, sv, trunc, fld)
        for i in range(n + 1):
            rep = ext_comodule_C(q, sv, i, trunc, fld, model=model)
            dims_c.append(rep.total_dim)
            certs.append(rep.certificate)
            supports.append({str(v + 1): k for v, k in sorted((rep.vertex_support or {}).items())})
        per_probe["coalgebra"] = {"dims": dims_c, "finite": True,
                                  "vertex_support": supports, "certificates": certs}
        probes[f"S_{sv + 1}"] = per_probe
    return {"passes": True, "gldim": n, "probes": probes,
            "field": fld.describe()}


def serre_twist(x: Rep, nak: NakayamaReport) -> tuple:
    """The asserted Serre image: the Nakayama-twisted module and the shift.

    For a left module the vertex part is the inverse of the natural map, so
    the twisted simple at v is the simple at its natural-map image; the
    right-module Serre functor twists in the opposite direction (the two
    one-sided twists are mutually inverse).
    """
    fld = x.field
    if x.side == "left":
        sigma = [0] * x.quiver.vertex_count
        for v, w in enumerate(nak.vertex_map):
            sigma[w] = v
    else:
        sigma = list(nak.vertex_map)
    serre = VertexTwist(tuple(sigma), _arrow_matching(x.quiver, tuple(sigma)),
                        tuple(fld.one for _ in x.quiver.arrows))
    serre.validate(x.quiver, fld)
    return twist(x, serre), nak.gldim


def cy_check(q: Quiver, family: list, trunc: int, m_max: int | None = None,
             fld: Field | None = None) -> dict:
    """Serre-duality identities over a family plus the innerness verdict.

    Checks dim Ext^i(X, Y) = dim Ext^(n-i)(Y, S(X)) for all pairs in the
    family and 0 <= i <= n, each side's Hom and Ext^1 off one rank; the
    verdict is CY-n when additionally the Nakayama twist is inner, otherwise
    twisted CY with the reported twist.
    """
    fld = fld or Field(0)
    m_max = m_max if m_max is not None else trunc
    nak = nakayama(q, trunc, m_max, fld)
    n = nak.gldim
    identities = []
    all_hold = True
    for xi, x in enumerate(family):
        sx, shift = serre_twist(x, nak)
        for yi, y in enumerate(family):
            ext_x_y, ext_y_sx = hom_ext1_dims(x, y), hom_ext1_dims(y, sx)
            for i in range(n + 1):
                lhs, rhs = ext_x_y[i], ext_y_sx[n - i]
                holds = lhs == rhs
                all_hold = all_hold and holds
                identities.append({
                    "X": xi, "Y": yi, "i": i, "ext_X_Y": lhs,
                    "ext_Y_SX": rhs, "holds": holds,
                })
    if not all_hold:
        verdict = "serre identities fail"
    elif nak.inner == "yes":
        verdict = f"CY-{n}"
    else:
        verdict = f"twisted CY-{n} with non-inner Nakayama twist"
    return {
        "verdict": verdict,
        "cy": all_hold and nak.inner == "yes",
        "gldim": n,
        "identities": identities,
        "identity_count": len(identities),
        "nakayama": nak.describe(),
        "field": fld.describe(),
    }


def dualizing_report(nak: NakayamaReport) -> dict:
    """Summary of the balanced dualizing complex of the completed algebra:
    the rank-one twisted free bimodule shifted by the global dimension, with
    the local-cohomology evidence block attached."""
    n = nak.gldim
    if nak.inner == "yes":
        text = (f"balanced dualizing complex: A itself, shift {n}, twist inner "
                f"=> algebra is CY-{n}")
    else:
        text = (f"balanced dualizing complex: twisted rank-one free bimodule, "
                f"shift {n}, twist vertex map {[v + 1 for v in nak.twist.sigma]} "
                f"(not inner)")
    return {
        "summary": text,
        "shift": n,
        "twist": nak.twist.describe(),
        "inner": nak.inner,
        "evidence": nak.localcoh.describe(),
        "field": nak.field.describe(),
    }
