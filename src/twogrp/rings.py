"""2-rings: one groupoid carrying an additive 2-group, a multiplicative
monoidal structure and distributor families, checked against three axiom
suites over the same data (``RING_SUITES``, run by one suite body) that
differ only in their axioms.  Each states the distributivity coherence as a
functor law of ``functors`` at the multiplication endofunctors x*-
(monoidality d(x,-,-)) and -*x (e(-,-,x)):

* ``validate_quang``    -- 2R1 = SF1+SF2 of x*- and -*x (equivalently: the
  four classical distributivity diagrams), four ring laws over the fixed
  object x, a constant bound once per object;
* ``validate_jp``       -- 2R1' = AF1 of X*- and -*U against the canonical
  associo-commutator (two diagrams over 5-tuples); strictly weaker than 2R1;
* ``validate_ac_ring``  -- the additive half in AC presentation, 2R1'' = the
  two AF1 diagrams for the given b plus the AF2 unit squares of X*- and -*Y
  with zeros m_X: 0 -> X0 and n_Y: 0 -> 0Y, the absorbers.

``quang_to_ac_ring``/``ac_ring_to_quang`` realize the bijection between the
first and third forms, and ``jp_upgrade`` upgrades the second: one absorber
loop takes m_x and n_x as the ``functors.ZERO_ISO`` route at x*- and -*x or
searches them by the unit squares.  Every axiom is an ``expr.Law`` over
``_law_env``; the symmetric ``b`` is ``ac.ACOMM_UPPER``'s route, its
inversion an ``ap`` over the inverse table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import partial

from . import expr as ex
from .ac import ACStructure, _canonical_acomm, _translate_to_ac, _translate_to_sm, validate_ac
from .diagram import check_diagram, strict_profile
from .errors import MissingAbsorbers, PresentationMismatch
from .groupoid import (
    FinGroupoid,
    NatFamily,
    _Memo,
    check_naturality,
    validate_groupoid,
)
from .monoidal import MonStructure, _check_families, _check_weak_inverses, validate_sm
from .functors import (
    _af1_routes,
    _closed_form_zero_iso,
    _require_sf1,
    _sf_routes,
    _Terms,
    _unit_square_routes,
    _unit_squares_hold,
    _zero_iso_route,
)
from .report import CheckResult, Report, Status

_V0, _V1, _V2 = ex.var(0), ex.var(1), ex.var(2)
DIST_L_SRC = ex.op("+", ex.op("*", _V0, _V1), ex.op("*", _V0, _V2))
DIST_L_TGT = ex.op("*", _V0, ex.op("+", _V1, _V2))
DIST_R_SRC = ex.op("+", ex.op("*", _V0, _V2), ex.op("*", _V1, _V2))
DIST_R_TGT = ex.op("*", ex.op("+", _V0, _V1), _V2)


def dist_l_family(components: dict) -> NatFamily:
    """d(x,y,z): xy + xz -> x(y+z)."""
    return NatFamily(3, components, DIST_L_SRC, DIST_L_TGT)


def dist_r_family(components: dict) -> NatFamily:
    """e(x,y,z): xz + yz -> (x+y)z."""
    return NatFamily(3, components, DIST_R_SRC, DIST_R_TGT)


def absorb_l_family(components: dict, zero: str, zero_id: str) -> NatFamily:
    """m(x): 0 -> x*0."""
    k = ex.const(zero, zero_id)
    return NatFamily(1, components, k, ex.op("*", _V0, k))


def absorb_r_family(components: dict, zero: str, zero_id: str) -> NatFamily:
    """n(x): 0 -> 0*x."""
    k = ex.const(zero, zero_id)
    return NatFamily(1, components, k, ex.op("*", k, _V0))


@dataclass
class TwoRingData(_Memo):
    """One groupoid + additive structure (symmetric or AC presentation) +
    multiplicative monoidal structure + distributors (+ absorbers in the AC
    presentation)."""

    carrier: FinGroupoid
    add: MonStructure | ACStructure
    mul: MonStructure
    dist_l: NatFamily
    dist_r: NatFamily
    absorb_l: NatFamily | None = None
    absorb_r: NatFamily | None = None
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def presentation(self) -> str:
        return "ac" if isinstance(self.add, ACStructure) else "sm"

    def env(self) -> ex.Env:
        return {"+": (self.add.sum_obj, self.add.sum_mor),
                "*": (self.mul.sum_obj, self.mul.sum_mor)}

    def families(self) -> dict[str, NatFamily]:
        fams = {"d": self.dist_l, "e": self.dist_r}
        if self.absorb_l is not None:
            fams["m"] = self.absorb_l
        if self.absorb_r is not None:
            fams["n"] = self.absorb_r
        return fams


# ---------------------------------------------------------------------------
# axiom laws; symbols as bound by ``_law_env``
# ---------------------------------------------------------------------------

_X, _Y, _Z, _T, _U = map(ex.var, range(5))
_add = partial(ex.op, "+")
_mul = partial(ex.op, "*")
_d, _e, _b, _m, _n = (partial(ex.fam, s) for s in "debmn")
_ax, _lx, _rx = (partial(ex.fam, s) for s in ("a*", "l*", "r*"))
_id, _1 = ex.ident, ex.constant("1")


def _left(w, f0=None) -> _Terms:
    """w*- with monoidality d(w,-,-), an endofunctor of the additive half."""
    return _Terms(partial(_mul, w), partial(_mul, _id(w)), partial(_d, w), f0, "", "")


def _right(w, f0=None) -> _Terms:
    """-*w with monoidality e(-,-,w)."""
    return _Terms(lambda u: _mul(u, w), lambda f: _mul(f, _id(w)), lambda u, v: _e(u, v, w), f0, "", "")


# 2R1 (Quang): SF1 and SF2 of x*- and -*x, the fixed object x a constant
# that ``_pair_axiom`` binds per object
_FIXED = ex.constant("x")
QUANG_LAWS = tuple(ex.Law(f"2R1/{side}-{form}", arity, *routes)
                   for side, fun in (("left", _left(_FIXED)), ("right", _right(_FIXED)))
                   for form, arity, routes in zip(("assoc", "comm"), (3, 2), _sf_routes(fun, _X, _Y, _Z)))
COMMON_LAWS = (
    ex.Law("2R2", 4, [_e(_X, _Y, _add(_Z, _T)), _add(_d(_X, _Z, _T), _d(_Y, _Z, _T))],
           [_d(_add(_X, _Y), _Z, _T), _add(_e(_X, _Y, _Z), _e(_X, _Y, _T)),
            _b(_mul(_X, _Z), _mul(_X, _T), _mul(_Y, _Z), _mul(_Y, _T))]),
    ex.Law("2R3", 4, [_d(_mul(_X, _Y), _Z, _T), _add(_ax(_X, _Y, _Z), _ax(_X, _Y, _T))],
           [_ax(_X, _Y, _add(_Z, _T)), _mul(_id(_X), _d(_Y, _Z, _T)), _d(_X, _mul(_Y, _Z), _mul(_Y, _T))]),
    ex.Law("2R4", 4, [_mul(_d(_X, _Z, _T), _id(_Y)), _e(_mul(_X, _Z), _mul(_X, _T), _Y),
                      _add(_ax(_X, _Z, _Y), _ax(_X, _T, _Y))],
           [_ax(_X, _add(_Z, _T), _Y), _mul(_id(_X), _e(_Z, _T, _Y)), _d(_X, _mul(_Z, _Y), _mul(_T, _Y))]),
    # over the tuples (t, z, y, x)
    ex.Law("2R5", 4, [_mul(_e(_X, _Y, _Z), _id(_T)), _e(_mul(_X, _Z), _mul(_Y, _Z), _T),
                      _add(_ax(_X, _Z, _T), _ax(_Y, _Z, _T))],
           [_ax(_add(_X, _Y), _Z, _T), _e(_X, _Y, _mul(_Z, _T))]),
    ex.Law("2R6/left", 2, [_lx(_add(_X, _Y)), _d(_1, _X, _Y)], [_add(_lx(_X), _lx(_Y))]),
    ex.Law("2R6/right", 2, [_rx(_add(_X, _Y)), _e(_X, _Y, _1)], [_add(_rx(_X), _rx(_Y))]),
)
# 2R1' (through the canonical b) and 2R1'' (through the given b): AF1 of
# X*- over (Y, Z, T, U) and of -*U over (X, Y, Z, T), routes exchanged
_INTERCHANGE = {"d": _af1_routes(_left(_X), _Y, _Z, _T, _U)[::-1],
                "e": _af1_routes(_right(_U), _X, _Y, _Z, _T)[::-1]}
JP_LAWS = tuple(ex.Law(f"2R1-prime/{form}", 5, *legs) for form, legs in _INTERCHANGE.items())
# 2R1'' adds the unit squares of X*- with zero m(X) and of -*Y with zero
# n(Y), routes exchanged
AC_RING_LAWS = (
    *(ex.Law(f"2R1-dprime/{form}", 5, *legs) for form, legs in _INTERCHANGE.items()),
    *(ex.Law(f"2R1-dprime/{zero}-{side}", 2, *_unit_square_routes(fun, var)[side][::-1])
      for zero, fun, var in (("m", _left(_X, _m(_X)), _Y), ("n", _right(_Y, _n(_Y)), _X))
      for side in ("left", "right")),
)
# the three suites over the same data: the presentation each reads and its
# laws in row order
RING_SUITES = {
    "quang": ("sm", QUANG_LAWS + COMMON_LAWS),
    "jp": ("sm", JP_LAWS + COMMON_LAWS),
    "acring": ("ac", AC_RING_LAWS + COMMON_LAWS),
}
# m_x and n_x as zero isomorphisms of x*- and -*x at the fixed object x: the
# SF1 their closed form needs, its route, the unit squares, the key of x*0
_ABSORBERS = {
    side: (sf1, ex.Law("zero-iso", 0, _zero_iso_route(fun), []),
           tuple(ex.Law(f"AF2/{s}", 1, *routes) for s, routes in _unit_square_routes(fun, _X).items()), key)
    for side, fun, sf1, key in (("left", _left(_FIXED, ex.constant("F0")), QUANG_LAWS[0], lambda x, z: (x, z)),
                                ("right", _right(_FIXED, ex.constant("F0")), QUANG_LAWS[2], lambda x, z: (z, x)))
}


def _law_env(ring: TwoRingData) -> dict:
    """The additive half's symbols, the multiplicative half's as ``*``,
    ``1``, ``a*``, ``l*``, ``r*``, the ring's families and, for the symmetric
    presentation, the canonical associo-commutator as ``b``."""
    renv = ring.env()
    env = {**ring.add.law_env(), **ring.mul.law_env("*", plus="*", zero="1")}
    env.update((name, (fam, renv)) for name, fam in ring.families().items())
    if ring.presentation == "sm":
        env["b"] = (_canonical_acomm(ring.add), None)
    return env


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _unchecked_families(ring: TwoRingData) -> tuple[str, ...]:
    """The families the ring's data rows leave out: the absorbers m and n,
    unless the presentation is AC, whose suite needs them; raises
    :class:`MissingAbsorbers` when an AC ring lacks either."""
    if ring.presentation != "ac":
        return ("m", "n")
    if ring.absorb_l is None or ring.absorb_r is None:
        raise MissingAbsorbers("AC presentation requires the m and n families")
    return ()


def _pair_axiom(law: ex.Law, gpd: FinGroupoid, env: dict, *, sample, seed, allow_strict_skip) -> CheckResult:
    """The 2R1 law ``law`` at every fixed object, aggregated; the witness
    index is (fixed object, instance tuple).

    The strict profile is tested once.  Otherwise each fixed object, bound
    as the constant ``x``, is one ``check_diagram`` call, scanned up to the
    first failing object, and a row that holds by the strict profile makes
    none: a 2R1 row stands for that many engine calls, which is how traced
    runs account for the engine spans behind it.  One diagram over (fixed
    object, instance) tuples would break that count."""
    objs = gpd.objects_sorted
    started = time.perf_counter()
    if allow_strict_skip and strict_profile(law, gpd, env):
        total = len(objs) ** (law.arity + 1)
        return CheckResult(law.name, Status.PASS, None, total, "strict-profile", time.perf_counter() - started)
    total = 0
    mode = "exhaustive"
    for x in objs:
        res = check_diagram(law, gpd, objs, {**env, "x": (x, gpd.identity.get(x))}, sample=sample, seed=seed)
        total += res.instances
        mode = res.mode
        if res.status is Status.FAIL:
            witness = replace(res.witness, index=(x,) + res.witness.index)
            return CheckResult(law.name, Status.FAIL, witness, total, mode, time.perf_counter() - started)
    return CheckResult(law.name, Status.PASS, None, total, mode, time.perf_counter() - started)


def _ring_suite(
    ring: TwoRingData, name: str, *, check_data: bool, sample: int | None, seed: int, allow_strict_skip: bool
) -> Report:
    """The suite ``RING_SUITES[name]``: the presentation check, the data rows
    and then one row per law, in order.  A law that reads the fixed object
    ``x`` (a 2R1 law) runs through :func:`_pair_axiom`, every other law is
    one engine call."""
    presentation, laws = RING_SUITES[name]
    if ring.presentation != presentation:
        form = "AC" if ring.presentation == "ac" else "symmetric"
        raise PresentationMismatch(f"additive structure is in {form} form; convert first")
    unchecked = _unchecked_families(ring)
    report = Report()
    if check_data:
        _check_families(ring, report, skip=unchecked)
        if not report.ok:
            return report
    gpd, env = ring.carrier, _law_env(ring)
    for law in laws:
        if "x" in law.symbols:
            report.add(_pair_axiom(law, gpd, env, sample=sample, seed=seed, allow_strict_skip=allow_strict_skip))
        else:
            report.add(check_diagram(law, gpd, gpd.objects_sorted, env, sample=sample, seed=seed,
                                     strict=allow_strict_skip))
    return report


def validate_quang(
    ring: TwoRingData,
    *,
    check_data: bool = True,
    sample: int | None = None,
    seed: int = 0,
    allow_strict_skip: bool = True,
) -> Report:
    """Axiom suite 2R1-2R6 for the symmetric presentation.

    2R1 is checked as: for every object x the pair (x*-, d(x,-,-)) and for
    every z the pair (-*z, e(-,-,z)) satisfy SF1 and SF2 as endomorphisms of
    the additive 2-group (``QUANG_LAWS``); 2R2 routes through the canonical
    associo-commutator of the additive structure.
    """
    return _ring_suite(ring, "quang", check_data=check_data, sample=sample, seed=seed,
                       allow_strict_skip=allow_strict_skip)


def validate_jp(
    ring: TwoRingData,
    *,
    check_data: bool = True,
    sample: int | None = None,
    seed: int = 0,
    allow_strict_skip: bool = True,
) -> Report:
    """Axiom suite 2R1' + 2R2-2R6 for the symmetric presentation.  2R1'
    quantifies two diagrams over object 5-tuples, routed through the
    canonical associo-commutator."""
    return _ring_suite(ring, "jp", check_data=check_data, sample=sample, seed=seed,
                       allow_strict_skip=allow_strict_skip)


def validate_ac_ring(
    ring: TwoRingData,
    *,
    check_data: bool = True,
    sample: int | None = None,
    seed: int = 0,
    allow_strict_skip: bool = True,
) -> Report:
    """Axiom suite 2R1'' + 2R2-2R6 for the AC presentation: the two
    interchange diagrams for the given b plus the four absorber unit
    squares."""
    return _ring_suite(ring, "acring", check_data=check_data, sample=sample, seed=seed,
                       allow_strict_skip=allow_strict_skip)


def validate_two_ring_data(ring: TwoRingData, *, sample: int | None = None, seed: int = 0) -> Report:
    """Structural preconditions: carrier groupoid laws, additive 2-group (in
    its presentation), multiplicative monoidal axioms, and family endpoint
    totality."""
    report = Report()
    report.extend(validate_groupoid(ring.carrier), prefix="carrier:")
    if not report.ok:
        return report
    add_suite = validate_sm if ring.presentation == "sm" else validate_ac
    add = add_suite(ring.add, sample=sample, seed=seed)
    _check_weak_inverses(ring.add, add)
    report.extend(add, prefix="add:")
    if report.ok:  # the ring families' endpoints read both halves' tables
        report.extend(validate_sm(ring.mul, sample=sample, seed=seed), prefix="mul:")
    if not report.ok:
        return report
    _check_families(ring, report, skip=_unchecked_families(ring))
    return report


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------


def _require_ring(ring: TwoRingData, suite, what: str, sample: int | None) -> None:
    """Raise ``PreconditionFailed("<what>: <failing laws>")`` unless ``ring``
    passes the rows ``check`` runs before ``suite``
    (:func:`validate_two_ring_data`, whose structure suites take ``sample``)
    and then ``suite``, unsampled.  The additive half's own suite is among
    those rows, so a conversion translates it without checking it again."""
    validate_two_ring_data(ring, sample=sample).require(what)
    suite(ring, check_data=False).require(what)


def quang_to_ac_ring(
    ring: TwoRingData, *, validate: bool = True, sample: int | None = None
) -> TwoRingData:
    """Convert to the AC presentation: the additive structure is translated,
    multiplication and distributors stay unchanged, and the absorbers are the
    canonical zero isomorphisms of the multiplication endofunctors.

    With ``validate`` the input must first pass the ring's data rows, the
    additive half's suite among them, and then the 2R suite; ``sample`` goes
    to the structure suites among the data rows and to the re-check of the
    translated half, and the 2R suite runs unsampled.  Without it the input
    is not validated, but the translation still checks what it builds on:
    the translated half is re-checked against AC1-AC3, and each absorber,
    a canonical zero isomorphism, requires SF1 of x*- (or -*x) and the unit
    squares (on the derivation 2-ring it raises ``PreconditionFailed``)."""
    if ring.presentation != "sm":
        raise PresentationMismatch("ring is already in AC presentation")
    if validate:
        _require_ring(ring, validate_quang, "input fails the 2R suite", sample)
    return _with_absorbers(ring, sample, _closed_form)


def ac_ring_to_quang(
    ring: TwoRingData, *, validate: bool = True, sample: int | None = None
) -> TwoRingData:
    """Convert to the symmetric presentation: the additive structure is
    translated, multiplication and distributors stay unchanged, absorbers are
    dropped (they are recovered canonically on the way back).  ``validate``
    and ``sample`` act as in :func:`quang_to_ac_ring`."""
    if ring.presentation != "ac":
        raise PresentationMismatch("ring is already in symmetric presentation")
    if validate:
        _require_ring(ring, validate_ac_ring, "input fails the 2R suite", sample)
    add_sm = _translate_to_sm(ring.add, sample)
    return TwoRingData(ring.carrier, add_sm, ring.mul, ring.dist_l, ring.dist_r, None, None)


@dataclass(frozen=True)
class NoAbsorbers:
    """Search outcome: no absorbing isomorphism exists at ``obj``."""

    obj: str
    side: str
    note: str = ""


def _with_absorbers(ring: TwoRingData, sample: int | None, pick) -> TwoRingData | NoAbsorbers:
    """``ring`` over its additive half translated to the AC form (re-checked
    with ``sample``), with absorbers m and n whose components at each object
    x are ``pick(ring, env, x, _ABSORBERS[side])``, ``env`` binding x; or
    :class:`NoAbsorbers` at the first object and side where ``pick`` finds
    none."""
    add_ac = _translate_to_ac(ring.add, sample)
    gpd, env = ring.carrier, _law_env(ring)
    comps = {"left": {}, "right": {}}
    for x in gpd.objects_sorted:
        env_x = {**env, "x": (x, gpd.identity[x])}
        for side, absorber in _ABSORBERS.items():
            found = pick(ring, env_x, x, absorber)
            if found is None:
                return NoAbsorbers(x, side)
            comps[side][(x,)] = found
    zero = add_ac.unit
    zid = gpd.identity[zero]
    return TwoRingData(gpd, add_ac, ring.mul, ring.dist_l, ring.dist_r,
                       absorb_l_family(comps["left"], zero, zid), absorb_r_family(comps["right"], zero, zid))


def _closed_form(ring: TwoRingData, env: dict, x: str, absorber) -> str:
    """m_x (or n_x) as the zero-iso route at x*- (or -*x), which needs SF1
    there and must pass the unit squares; raises ``PreconditionFailed``."""
    sf1, route, squares, key = absorber
    gpd, add = ring.carrier, ring.add
    _require_sf1(sf1, gpd, gpd.objects_sorted, env)
    return _closed_form_zero_iso(route, squares, env, add, add, ring.mul.sum_obj[key(x, add.unit)])


def _searched(ring: TwoRingData, env: dict, x: str, absorber) -> str | None:
    """The first morphism 0 -> x*0 (or 0*x) that passes the unit squares of
    x*- (or -*x), or ``None``."""
    _, _, squares, key = absorber
    gpd, zero = ring.carrier, ring.add.unit
    homs = gpd.hom(zero, ring.mul.sum_obj.get(key(x, zero)))
    return next((m for m in homs if _unit_squares_hold(squares, env, gpd, gpd.objects_sorted, m)), None)


def jp_upgrade(ring: TwoRingData, *, validate: bool = True) -> TwoRingData | NoAbsorbers:
    """Brute-force search for absorbing isomorphism families turning a ring
    passing the 2R1' suite into an AC (hence symmetric-presentation) ring.

    Returns the AC-presentation ring on success, or :class:`NoAbsorbers`
    with the first blocking object.  The found families are checked for
    naturality before being accepted; a square that fails blocks at the
    source object of its morphism.
    """
    if ring.presentation != "sm":
        raise PresentationMismatch("upgrade starts from the symmetric presentation")
    if validate:
        _require_ring(ring, validate_jp, "input fails the 2R1' suite", None)
    out = _with_absorbers(ring, None, _searched)
    if isinstance(out, NoAbsorbers):
        return out
    # the squares pin each component; naturality must then come for free,
    # but verify rather than assume
    env = out.env()
    for fam, side in ((out.absorb_l, "left"), (out.absorb_r, "right")):
        nat = check_naturality(fam, env, domain=ring.carrier, label=f"naturality({side})")
        if not nat.ok:
            mor = nat.failures()[0].witness.index[0]
            return NoAbsorbers(ring.carrier.src(mor), side, "found components are not natural")
    return out
