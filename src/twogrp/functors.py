"""Structured functors between structured groupoids and the morphism-level
axiom suites.

A structured functor is a base functor plus a monoidality family
F_+(x,y): Fx +' Fy -> F(x+y) and an optional zero isomorphism F_0: 0' -> F0.
One suite body checks the triple against the symmetric axioms (SF1-SF3) or
the AC axioms (AF1-AF2), by the presentation of its endpoints; SF3 and AF2
are the same squares, and the engine tests each row's strict profile.

The zero isomorphism into a 2-group target is special: under SF1 it exists
uniquely and is produced in closed form by ``canonical_zero_iso``; under AF1
alone it may not exist at all.  ``enumerate_zero_isos`` is the brute-force
oracle: it scans every carrier morphism 0' -> F0 with no shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from . import expr as ex
from .ac import ACStructure, canonical_acomm_at
from .diagram import _scan, check_diagram, strict_profile
from .errors import (
    MissingZeroIso,
    PreconditionFailed,
    StructureError,
    StructureMismatch,
)
from .groupoid import (
    GFunctor,
    NatFamily,
    _Memo,
    _first_failure,
    check_naturality,
    compose_gfunctors,
    compose_path,
    validate_family,
    validate_functor,
)
from .monoidal import MonStructure, _run_laws, basic_unitor, find_weak_inverse, validate_2group
from .report import CheckResult, Report, Status, Witness

_V0, _V1 = ex.var(0), ex.var(1)
FSUM_SRC = ex.op("+t", ex.app("F", _V0), ex.app("F", _V1))
FSUM_TGT = ex.app("F", ex.op("+s", _V0, _V1))
TAU_SRC = ex.app("F", _V0)
TAU_TGT = ex.app("G", _V0)


def fsum_family(components: dict) -> NatFamily:
    """F_+(x,y): Fx +' Fy -> F(x+y), indexed by source object pairs."""
    return NatFamily(2, components, FSUM_SRC, FSUM_TGT)


def tau_family(components: dict) -> NatFamily:
    """tau_x: Fx -> Gx, indexed by source objects."""
    return NatFamily(1, components, TAU_SRC, TAU_TGT)


@dataclass
class StructuredFunctor(_Memo):
    """Base functor + monoidality family + optional zero isomorphism."""

    base: GFunctor
    fsum: NatFamily
    fzero: str | None = None
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def with_zero(self, fzero: str) -> "StructuredFunctor":
        return StructuredFunctor(self.base, self.fsum, fzero)


@dataclass
class MonTransformation:
    """A natural transformation between two structured functors."""

    source: StructuredFunctor
    target: StructuredFunctor
    tau: NatFamily


def functor_env(fun: StructuredFunctor, src, tgt) -> ex.Env:
    return {
        "+s": (src.sum_obj, src.sum_mor),
        "+t": (tgt.sum_obj, tgt.sum_mor),
        "F": (fun.base.obj_map, fun.base.mor_map),
    }


def _same_carrier(a, b) -> bool:
    return a is b or a == b


def check_fsum_naturality(
    fun: StructuredFunctor, src, tgt, *, sample: int | None = None, seed: int = 0
) -> Report:
    return check_naturality(
        fun.fsum,
        functor_env(fun, src, tgt),
        domain=src.carrier,
        codomain=tgt.carrier,
        sample=sample,
        seed=seed,
        label="naturality(fsum)",
    )


# ---------------------------------------------------------------------------
# axiom laws
# ---------------------------------------------------------------------------

_X, _Y, _Z, _T = map(ex.var, range(4))
_fs = partial(ex.fam, "F+")
_F = partial(ex.app, "F")
_plus_s = partial(ex.op, "+s")
_plus_t = partial(ex.op, "+t")
_F0, _0 = ex.constant("F0"), ex.constant("0s")


# symbols as bound by ``_law_env``: each endpoint structure's own symbols
# tagged s (source) or t (target), the functor F, its family F+ and F0
SF1 = ex.Law(
    "SF1", 3,
    [_fs(_plus_s(_X, _Y), _Z), _plus_t(_fs(_X, _Y), ex.ident(_F(_Z))),
     ex.fam("at", _F(_X), _F(_Y), _F(_Z))],
    [_F(ex.fam("as", _X, _Y, _Z)), _fs(_X, _plus_s(_Y, _Z)), _plus_t(ex.ident(_F(_X)), _fs(_Y, _Z))],
)
SF2 = ex.Law("SF2", 2, [_F(ex.fam("cs", _X, _Y)), _fs(_X, _Y)], [_fs(_Y, _X), ex.fam("ct", _F(_X), _F(_Y))])
AF1 = ex.Law(
    "AF1", 4,
    [_fs(_plus_s(_X, _Z), _plus_s(_Y, _T)), _plus_t(_fs(_X, _Z), _fs(_Y, _T)),
     ex.fam("bt", _F(_X), _F(_Y), _F(_Z), _F(_T))],
    [_F(ex.fam("bs", _X, _Y, _Z, _T)), _fs(_plus_s(_X, _Y), _plus_s(_Z, _T)), _plus_t(_fs(_X, _Y), _fs(_Z, _T))],
)
# the unit squares, shared by SF3 and AF2
UNIT_SQUARES = {
    law: (ex.Law(f"{law}/right", 1, [_F(ex.fam("rs", _X)), _fs(_X, _0), _plus_t(ex.ident(_F(_X)), _F0)],
                 [ex.fam("rt", _F(_X))]),
          ex.Law(f"{law}/left", 1, [_F(ex.fam("ls", _X)), _fs(_0, _X), _plus_t(_F0, ex.ident(_F(_X)))],
                 [ex.fam("lt", _F(_X))]))
    for law in ("SF3", "AF2")
}
T1 = ex.Law("T1", 2, [ex.fam("tau", _plus_s(_X, _Y)), _fs(_X, _Y)],
            [ex.fam("G+", _X, _Y), _plus_t(ex.fam("tau", _X), ex.fam("tau", _Y))])


def _law_env(fun: StructuredFunctor, src, tgt) -> dict:
    env = {**src.law_env("s"), **tgt.law_env("t"),
           "F": (fun.base.obj_map, fun.base.mor_map, fun.base.preserves_identities),
           "F+": (fun.fsum, functor_env(fun, src, tgt))}
    if fun.fzero is not None:
        env["F0"] = (fun.base.obj_map.get(src.unit), fun.fzero)
    return env


# ---------------------------------------------------------------------------
# axiom suites
# ---------------------------------------------------------------------------


def _data_rows(fun: StructuredFunctor, src, tgt, report: Report) -> None:
    report.extend(validate_functor(fun.base), prefix="base:")
    if not report.ok:
        return
    report.extend(validate_family(tgt.carrier, fun.fsum, functor_env(fun, src, tgt), label="fsum"))
    if fun.fzero is not None:
        gpd = tgt.carrier
        ok = (
            fun.fzero in gpd.morphisms
            and gpd.src(fun.fzero) == tgt.unit
            and gpd.dst(fun.fzero) == fun.base.obj_map[src.unit]
        )
        case = None if ok else Witness((fun.fzero,), note="zero iso endpoints are not 0' -> F0")
        _first_failure(report, "fzero-endpoints", [case])


def _functor_suite(
    fun: StructuredFunctor,
    src,
    tgt,
    laws: tuple,
    unit_law: str,
    *,
    check_data: bool,
    sample: int | None,
    seed: int,
    allow_strict_skip: bool,
) -> Report:
    """The body of both functor suites: the data rows, the interchange
    ``laws`` of the presentation (not applicable where an endpoint lacks a
    family they read), then the unit squares SF3 = AF2 under ``unit_law``
    (missing-data without a zero iso)."""
    report = Report()
    if check_data:
        _data_rows(fun, src, tgt, report)
        if not report.ok:
            return report

    gpd, objs, env = tgt.carrier, src.carrier.objects_sorted, _law_env(fun, src, tgt)
    opts = dict(sample=sample, seed=seed, strict=allow_strict_skip)
    _run_laws(report, laws, gpd, objs, env, **opts)
    if fun.fzero is None:
        report.add(CheckResult(unit_law, Status.MISSING_DATA, None, 0, "skipped (no zero iso)"))
        return report
    _run_laws(report, UNIT_SQUARES[unit_law], gpd, objs, env, **opts)
    return report


def validate_sm_functor(
    fun: StructuredFunctor,
    src: MonStructure,
    tgt: MonStructure,
    *,
    check_data: bool = True,
    sample: int | None = None,
    seed: int = 0,
    allow_strict_skip: bool = True,
) -> Report:
    """SF1 (associativity square), SF2 (symmetry square, not-applicable when
    either endpoint lacks a commutator) and the two SF3 unit squares
    (missing-data when the functor has no zero isomorphism)."""
    return _functor_suite(fun, src, tgt, (SF1, SF2), "SF3", check_data=check_data,
                          sample=sample, seed=seed, allow_strict_skip=allow_strict_skip)


def validate_ac_functor(
    fun: StructuredFunctor,
    src: ACStructure,
    tgt: ACStructure,
    *,
    check_data: bool = True,
    sample: int | None = None,
    seed: int = 0,
    allow_strict_skip: bool = True,
) -> Report:
    """AF1 (interchange square over object 4-tuples) and the two AF2 unit
    squares (the same squares as SF3; missing-data without a zero iso)."""
    return _functor_suite(fun, src, tgt, (AF1,), "AF2", check_data=check_data,
                          sample=sample, seed=seed, allow_strict_skip=allow_strict_skip)


def validate_transformation(
    tr: MonTransformation,
    src,
    tgt,
    *,
    check_data: bool = True,
    sample: int | None = None,
    seed: int = 0,
) -> Report:
    """Base naturality, T1 (compatibility with the monoidality families) and
    T2 (compatibility of the zero isomorphisms; missing-data when either
    functor lacks one)."""
    report = Report()
    if check_data:
        env = {"F": (tr.source.base.obj_map, tr.source.base.mor_map),
               "G": (tr.target.base.obj_map, tr.target.base.mor_map)}
        report.extend(validate_family(tgt.carrier, tr.tau, env, label="tau"))
        if not report.ok:
            return report
        report.extend(
            check_naturality(tr.tau, env, domain=src.carrier, codomain=tgt.carrier,
                             sample=sample, seed=seed, label="naturality(tau)")
        )

    gpd = tgt.carrier
    env = {**src.law_env("s"), **tgt.law_env("t"), "tau": (tr.tau, None),
           "F+": (tr.source.fsum, None), "G+": (tr.target.fsum, None)}
    report.add(check_diagram(T1, gpd, src.carrier.objects_sorted, env, sample=sample, seed=seed))
    if tr.source.fzero is None or tr.target.fzero is None:
        report.add(CheckResult("T2", Status.MISSING_DATA, None, 0, "skipped (no zero iso)"))
        return report

    def t2():
        legs = (tr.tau.at(src.unit), tr.source.fzero)
        try:
            left = compose_path(gpd, legs)
        except StructureError:
            left = None
        right = tr.target.fzero
        if left != right:
            yield Witness((src.unit,), left, right, legs, (right,))
        else:
            yield None

    _first_failure(report, "T2", t2())
    return report


# ---------------------------------------------------------------------------
# composition and pointwise sum
# ---------------------------------------------------------------------------


def compose_functors(g2: StructuredFunctor, g1: StructuredFunctor) -> StructuredFunctor:
    """(G2 o G1) with monoidality (G2 o G1)_+(x,y) = G2(G1_+(x,y)) o G2_+(G1 x, G1 y)
    and zero G2(G1_0) o G2_0 (absent when either factor lacks one)."""
    if not _same_carrier(g1.base.target, g2.base.source):
        raise StructureMismatch("middle carriers differ")
    base = compose_gfunctors(g2.base, g1.base)
    tgt_gpd = g2.base.target
    comps = {}
    for (x, y), m1 in g1.fsum.components.items():
        m2 = g2.fsum.components[(g1.base.obj_map[x], g1.base.obj_map[y])]
        comps[(x, y)] = compose_path(tgt_gpd, [g2.base.mor_map[m1], m2])
    fzero = None
    if g1.fzero is not None and g2.fzero is not None:
        fzero = compose_path(tgt_gpd, [g2.base.mor_map[g1.fzero], g2.fzero])
    return StructuredFunctor(base, fsum_family(comps), fzero)


def identity_structured(m) -> StructuredFunctor:
    """The identity endomorphism of a structure, with identity families."""
    from .groupoid import identity_functor

    gpd = m.carrier
    comps = {
        (x, y): gpd.identity[m.sum_obj[(x, y)]]
        for x in gpd.objects
        for y in gpd.objects
    }
    return StructuredFunctor(identity_functor(gpd), fsum_family(comps), gpd.identity[m.unit])


def boxplus(f: StructuredFunctor, g: StructuredFunctor, target: MonStructure) -> StructuredFunctor:
    """Pointwise sum of two morphisms into a 2-group target:
    (F [+] G)x = Fx + Gx on objects and morphisms, monoidality routed through
    the target's canonical associo-commutator, zero through the basic unitor.
    """
    if not (_same_carrier(f.base.source, g.base.source) and _same_carrier(f.base.target, g.base.target)):
        raise StructureMismatch("summands must share source and target")
    if not _same_carrier(f.base.target, target.carrier):
        raise StructureMismatch("target structure does not match the functors' target")
    if f.fzero is None or g.fzero is None:
        raise MissingZeroIso("pointwise sum needs zero isomorphisms on both summands")
    if "2group_ok" not in target._cache:
        target._cache["2group_ok"] = validate_2group(target).ok
    if not target._cache["2group_ok"]:
        raise PreconditionFailed("pointwise sum target is not a 2-group")

    gpd = target.carrier
    so, sm = target.sum_obj, target.sum_mor
    fo, go = f.base.obj_map, g.base.obj_map
    obj_map = {x: so[(fo[x], go[x])] for x in f.base.source.objects}
    mor_map = {
        m: sm[(f.base.mor_map[m], g.base.mor_map[m])] for m in f.base.source.morphisms
    }
    base = GFunctor(f.base.source, gpd, obj_map, mor_map)
    comps = {}
    for (x, y), fm in f.fsum.components.items():
        b = canonical_acomm_at(target, fo[x], go[x], fo[y], go[y])
        comps[(x, y)] = compose_path(gpd, [sm[(fm, g.fsum.components[(x, y)])], b])
    dprime = basic_unitor(target)
    fzero = compose_path(gpd, [sm[(f.fzero, g.fzero)], gpd.inv(dprime)])
    return StructuredFunctor(base, fsum_family(comps), fzero)


# ---------------------------------------------------------------------------
# zero isomorphisms
# ---------------------------------------------------------------------------


def _unit_squares_hold(env: dict, gpd, objects, candidate: str) -> bool:
    """Do both unit squares (SF3 = AF2) hold in ``gpd`` at every object with
    ``candidate`` bound as the zero isomorphism in the functor's law
    environment ``env``?"""
    env = {**env, "F0": (None, candidate)}
    return all(_scan(gpd, square.legs(env, gpd.identity), [(x,) for x in objects])[1] is None
               for square in UNIT_SQUARES["SF3"])


def enumerate_zero_isos(fun: StructuredFunctor, src, tgt, mode: str = "SF3") -> list[str]:
    """Brute-force scan of every carrier morphism 0' -> F0 satisfying the
    unit squares, in canonical order.  ``mode`` records the ambient
    presentation ("SF3" for symmetric endpoints, "AF2" for AC endpoints); the
    squares themselves coincide."""
    if mode not in ("SF3", "AF2"):
        raise ValueError(f"unknown mode {mode!r}")
    f0 = fun.base.obj(src.unit)
    env, gpd, objs = _law_env(fun, src, tgt), tgt.carrier, src.carrier.objects_sorted
    return [cand for cand in gpd.hom(tgt.unit, f0) if _unit_squares_hold(env, gpd, objs, cand)]


def canonical_zero_iso(fun: StructuredFunctor, src: MonStructure, tgt: MonStructure) -> str:
    """The unique zero isomorphism of a pair (F, F_+) satisfying SF1 into a
    2-group, via the closed-form composite
    l'(F0) o (eta^-1 + id) o a' o (id + F_+(0,0)^-1) o (id + F(d^-1)) o eta
    for the first weak-inverse certificate (the result does not depend on the
    choice; tests re-verify that).  Refuses when SF1 fails: the formula is
    only guaranteed under SF1.
    """
    env = _law_env(fun, src, tgt)
    if not strict_profile(SF1, tgt.carrier, env):
        sf1 = check_diagram(SF1, tgt.carrier, src.carrier.objects_sorted, env)
        if sf1.status is Status.FAIL:
            raise PreconditionFailed(f"SF1 fails: witness {sf1.witness.describe()}")

    gpd = tgt.carrier
    f0 = fun.base.obj_map[src.unit]
    cert = find_weak_inverse(tgt, f0)
    d = basic_unitor(src)
    inv_bar = cert.inverse
    ident = gpd.identity
    sm = tgt.sum_mor
    result = compose_path(
        gpd,
        [
            tgt.lunit.components[(f0,)],
            sm[(gpd.inv(cert.eta), ident[f0])],
            tgt.assoc.components[(inv_bar, f0, f0)],
            sm[(ident[inv_bar], gpd.inv(fun.fsum.components[(src.unit, src.unit)]))],
            sm[(ident[inv_bar], fun.base.mor_map[gpd.inv(d)])],
            cert.eta,
        ],
    )
    if not _unit_squares_hold(env, gpd, src.carrier.objects_sorted, result):
        raise PreconditionFailed(
            "derived zero isomorphism violates the unit squares; input structures are inconsistent"
        )
    return result


def derive_sm_axioms_from_ac(
    fun: StructuredFunctor,
    src: ACStructure,
    tgt: ACStructure,
    *,
    sample: int | None = None,
    seed: int = 0,
) -> Report:
    """Re-check an AC functor (with zero isomorphism, passing AF1+AF2)
    against the symmetric axioms of the translated endpoint structures.
    Contract: SF1, SF2 and SF3 all pass."""
    from .ac import to_sm

    pre = validate_ac_functor(fun, src, tgt, sample=sample, seed=seed)
    fails = [c.law for c in pre.failures()]
    missing = [c.law for c in pre.checks if c.status is Status.MISSING_DATA]
    if fails or missing:
        raise PreconditionFailed(
            "AC functor suite must pass with a zero isomorphism first "
            f"(failing: {fails or missing})"
        )
    src_sm = to_sm(src, sample=sample, seed=seed)
    tgt_sm = src_sm if src is tgt else to_sm(tgt, sample=sample, seed=seed)
    return validate_sm_functor(fun, src_sm, tgt_sm, sample=sample, seed=seed)
