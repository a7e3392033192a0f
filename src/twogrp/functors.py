"""Structured functors between structured groupoids and the morphism-level
axiom suites.

A structured functor is a base functor plus a monoidality family
F_+(x,y): Fx +' Fy -> F(x+y) and an optional zero isomorphism F_0: 0' -> F0.
One suite body checks the triple against the symmetric axioms (SF1-SF3) or
the AC axioms (AF1-AF2), by the presentation of its endpoints; SF3 and AF2
are the same squares.  Each law is declared once, by a builder over a
functor's terms, which ``rings`` instantiates at x*- and -*x.

The zero isomorphism into a 2-group target is special: under SF1 it exists
uniquely, and ``canonical_zero_iso`` composes it along the route
``ZERO_ISO``; under AF1 alone it may not exist at all.
``enumerate_zero_isos`` is the brute-force oracle: it scans every carrier
morphism 0' -> F0 with no shortcuts.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

from . import expr as ex
from .ac import ACStructure, _route_env, canonical_acomm_at
from .diagram import _check, check_diagram, strict_profile
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
    _recorded,
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
    return check_naturality(fun.fsum, functor_env(fun, src, tgt), domain=src.carrier, codomain=tgt.carrier,
                            sample=sample, seed=seed, label="naturality(fsum)")


# ---------------------------------------------------------------------------
# axiom laws
# ---------------------------------------------------------------------------


class _Terms(NamedTuple):
    """A functor as terms: ``fo`` on objects, ``fm`` on morphisms, its
    monoidality ``fs`` and zero ``f0``, between structures whose symbols carry
    the tags ``s`` (source) and ``t`` (target) as ``law_env(tag)`` tags them.
    The builders below declare each functor law once over such terms: SF1,
    SF2 and AF1 here, 2R1, 2R1' and 2R1'' in ``rings`` at x*- and -*x."""

    fo: Callable
    fm: Callable
    fs: Callable
    f0: ex.Expr | None = None
    s: str = "s"
    t: str = "t"


def _sf_routes(f: _Terms, x, y, z) -> tuple:
    """The routes of SF1 over (x, y, z) and of SF2 over (x, y)."""
    fo, fs, plus_s, plus_t = f.fo, f.fs, partial(ex.op, "+" + f.s), partial(ex.op, "+" + f.t)
    return (
        ([fs(plus_s(x, y), z), plus_t(fs(x, y), ex.ident(fo(z))), ex.fam("a" + f.t, fo(x), fo(y), fo(z))],
         [f.fm(ex.fam("a" + f.s, x, y, z)), fs(x, plus_s(y, z)), plus_t(ex.ident(fo(x)), fs(y, z))]),
        ([f.fm(ex.fam("c" + f.s, x, y)), fs(x, y)], [fs(y, x), ex.fam("c" + f.t, fo(x), fo(y))]),
    )


def _af1_routes(f: _Terms, x, y, z, w) -> tuple:
    """The routes of AF1 over (x, y, z, w)."""
    fo, fs, plus_s, plus_t = f.fo, f.fs, partial(ex.op, "+" + f.s), partial(ex.op, "+" + f.t)
    return ([fs(plus_s(x, z), plus_s(y, w)), plus_t(fs(x, z), fs(y, w)), ex.fam("b" + f.t, fo(x), fo(y), fo(z), fo(w))],
            [f.fm(ex.fam("b" + f.s, x, y, z, w)), fs(plus_s(x, y), plus_s(z, w)), plus_t(fs(x, y), fs(z, w))])


def _unit_square_routes(f: _Terms, x) -> dict:
    """The routes of the right and left unit squares (SF3 = AF2) at x."""
    zero, plus_t, fx = ex.constant("0" + f.s), partial(ex.op, "+" + f.t), f.fo(x)
    return {"right": ([f.fm(ex.fam("r" + f.s, x)), f.fs(x, zero), plus_t(ex.ident(fx), f.f0)], [ex.fam("r" + f.t, fx)]),
            "left": ([f.fm(ex.fam("l" + f.s, x)), f.fs(zero, x), plus_t(f.f0, ex.ident(fx))], [ex.fam("l" + f.t, fx)])}


def _zero_iso_route(f: _Terms) -> list:
    """The closed-form zero isomorphism into a 2-group, l'(F0) o (eta^-1 + id)
    o a'(bar, F0, F0) o (id + F_+(0,0)^-1) o (id + F(unitor^-1)) o eta, where
    eta: 0' -> bar + F0 and ``inv`` is the target carrier's inverse table."""
    zero, plus_t, inv = ex.constant("0" + f.s), partial(ex.op, "+" + f.t), partial(ex.app, "inv")
    f0, bar, eta = f.fo(zero), ex.constant("bar"), ex.constant("eta")
    return [ex.fam("l" + f.t, f0), plus_t(inv(eta), ex.ident(f0)), ex.fam("a" + f.t, bar, f0, f0),
            plus_t(ex.ident(bar), inv(f.fs(zero, zero))), plus_t(ex.ident(bar), f.fm(inv(ex.constant("unitor")))), eta]


_X, _Y, _Z, _T = map(ex.var, range(4))
_FUNCTOR = _Terms(partial(ex.app, "F"), partial(ex.app, "F"), partial(ex.fam, "F+"), ex.constant("F0"))

# symbols as bound by ``_law_env``: each endpoint structure's own symbols
# tagged s (source) or t (target), the functor F, its family F+ and F0
SF1, SF2 = (ex.Law(name, arity, *routes)
            for name, arity, routes in zip(("SF1", "SF2"), (3, 2), _sf_routes(_FUNCTOR, _X, _Y, _Z)))
AF1 = ex.Law("AF1", 4, *_af1_routes(_FUNCTOR, _X, _Y, _Z, _T))
# the unit squares, shared by SF3 and AF2
UNIT_SQUARES = {law: tuple(ex.Law(f"{law}/{side}", 1, *routes)
                           for side, routes in _unit_square_routes(_FUNCTOR, _X).items())
                for law in ("SF3", "AF2")}
ZERO_ISO = ex.Law("zero-iso", 0, _zero_iso_route(_FUNCTOR), [])
T1 = ex.Law("T1", 2, [ex.fam("tau", ex.op("+s", _X, _Y)), _FUNCTOR.fs(_X, _Y)],
            [ex.fam("G+", _X, _Y), ex.op("+t", ex.fam("tau", _X), ex.fam("tau", _Y))])


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
    report.extend(validate_family(tgt.carrier, fun.fsum, functor_env(fun, src, tgt), label="fsum",
                                  domain=src.carrier))
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
        report.extend(validate_family(tgt.carrier, tr.tau, env, label="tau", domain=src.carrier))
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
    The target's 2-group verdict is recorded on it with every table it read
    (:func:`groupoid._recorded`).
    """
    if not (_same_carrier(f.base.source, g.base.source) and _same_carrier(f.base.target, g.base.target)):
        raise StructureMismatch("summands must share source and target")
    if not _same_carrier(f.base.target, target.carrier):
        raise StructureMismatch("target structure does not match the functors' target")
    if f.fzero is None or g.fzero is None:
        raise MissingZeroIso("pointwise sum needs zero isomorphisms on both summands")
    held = (target.carrier, target.sum_obj, target.sum_mor, target.unit,
            *[t for fam in target.families().values() for t in (fam, fam.components)])
    if not _recorded(target, "2-group", held, run=lambda: validate_2group(target).ok):
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


def _require_sf1(sf1: ex.Law, gpd, objects, env: dict) -> None:
    """Raise ``PreconditionFailed`` unless ``sf1``, bound in ``env``, holds
    by its strict profile or at every tuple of ``objects``."""
    if not strict_profile(sf1, gpd, env):
        witness = _check(sf1.name, sf1, gpd, objects, env).witness
        if witness is not None:
            raise PreconditionFailed(f"SF1 fails: witness {witness.describe()}")


def _unit_squares_hold(squares, env: dict, gpd, objects, candidate: str) -> bool:
    """Do both unit ``squares`` (SF3 = AF2) hold in ``gpd`` at every object
    with ``candidate`` bound as the zero isomorphism ``F0`` in ``env``?"""
    env = {**env, "F0": (None, candidate)}
    return all(_check(square.name, square, gpd, objects, env).passed for square in squares)


def _closed_form_zero_iso(route: ex.Law, squares, env: dict, src, tgt, f0: str) -> str:
    """``route`` (``ZERO_ISO`` at some functor's terms) in ``env``, at the first
    weak-inverse certificate of ``f0`` in the 2-group ``tgt`` and the basic
    unitor of ``src``; refused unless it satisfies the unit ``squares``."""
    gpd = tgt.carrier
    cert = find_weak_inverse(tgt, f0)
    env = {**env, "bar": (cert.inverse, None), "eta": (None, cert.eta), "unitor": (None, basic_unitor(src)),
           "inv": _route_env(tgt)["inv"]}
    result = compose_path(gpd, route.legs(env, gpd.identity)(())[0])
    if not _unit_squares_hold(squares, env, gpd, src.carrier.objects_sorted, result):
        raise PreconditionFailed(
            "derived zero isomorphism violates the unit squares; input structures are inconsistent"
        )
    return result


def enumerate_zero_isos(fun: StructuredFunctor, src, tgt, mode: str = "SF3") -> list[str]:
    """Brute-force scan of every carrier morphism 0' -> F0 satisfying the
    unit squares, in canonical order.  ``mode`` records the ambient
    presentation ("SF3" for symmetric endpoints, "AF2" for AC endpoints); the
    squares themselves coincide."""
    if mode not in ("SF3", "AF2"):
        raise ValueError(f"unknown mode {mode!r}")
    f0 = fun.base.obj(src.unit)
    env, gpd, objs = _law_env(fun, src, tgt), tgt.carrier, src.carrier.objects_sorted
    return [cand for cand in gpd.hom(tgt.unit, f0) if _unit_squares_hold(UNIT_SQUARES[mode], env, gpd, objs, cand)]


def canonical_zero_iso(fun: StructuredFunctor, src: MonStructure, tgt: MonStructure) -> str:
    """The unique zero isomorphism of a pair (F, F_+) satisfying SF1 into a
    2-group: the ``ZERO_ISO`` route at the first weak-inverse certificate
    (the result does not depend on the choice; tests re-verify that).
    Refuses when SF1 fails: the formula is only guaranteed under SF1.
    """
    env = _law_env(fun, src, tgt)
    _require_sf1(SF1, tgt.carrier, src.carrier.objects_sorted, env)
    return _closed_form_zero_iso(ZERO_ISO, UNIT_SQUARES["SF3"], env, src, tgt, fun.base.obj_map[src.unit])


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
