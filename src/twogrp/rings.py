"""2-rings: one groupoid carrying an additive 2-group, a multiplicative
monoidal structure and distributor families, checked against three axiom
suites that differ only in how the distributivity coherence is stated:

* ``validate_quang``    -- 2R1 requires the pairs (x*-, d_x) and (-*z, e_z)
  to satisfy SF1+SF2 as endomorphisms of the additive symmetric 2-group
  (equivalently: the four classical distributivity diagrams);
* ``validate_jp``       -- 2R1' requires the same pairs to satisfy AF1
  against the canonical associo-commutator (two diagrams over 5-tuples);
  strictly weaker than 2R1;
* ``validate_ac_ring``  -- the additive half in AC presentation, 2R1''
  = the two AF1 diagrams for the given b plus four absorber unit squares
  for the families m_x: 0 -> x0 and n_x: 0 -> 0x.

``quang_to_ac_ring``/``ac_ring_to_quang`` realize the bijection between the
first and third forms (absorbers arise as canonical zero isomorphisms);
``jp_upgrade`` recovers absorbers for a 2R1'-ring by brute-force search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from itertools import product

from . import expr as ex
from .ac import ACStructure, _canonical_acomm, _translate_to_ac, _translate_to_sm, validate_ac
from .diagram import check_diagram, strict_profile
from .errors import MissingAbsorbers, PresentationMismatch
from .groupoid import (
    FinGroupoid,
    GFunctor,
    NatFamily,
    _Memo,
    check_naturality,
    validate_family,
    validate_groupoid,
)
from .monoidal import MonStructure, _check_weak_inverses, validate_sm
from .functors import (
    SF1,
    SF2,
    StructuredFunctor,
    _law_env as _functor_law_env,
    canonical_zero_iso,
    enumerate_zero_isos,
    fsum_family,
)
from .report import CheckResult, Report, Status, Witness

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


def left_mult_functor(ring: TwoRingData, x: str) -> StructuredFunctor:
    """(x * -) with monoidality d(x,-,-)."""
    gpd = ring.carrier
    mo, mm = ring.mul.sum_obj, ring.mul.sum_mor
    idx = gpd.identity[x]
    base = GFunctor(
        gpd, gpd,
        {y: mo[(x, y)] for y in gpd.objects},
        {f: mm[(idx, f)] for f in gpd.morphisms},
    )
    comps = {(y, z): ring.dist_l.components[(x, y, z)]
             for y, z in product(gpd.objects, repeat=2)}
    return StructuredFunctor(base, fsum_family(comps))


def right_mult_functor(ring: TwoRingData, z: str) -> StructuredFunctor:
    """(- * z) with monoidality e(-,-,z)."""
    gpd = ring.carrier
    mo, mm = ring.mul.sum_obj, ring.mul.sum_mor
    idz = gpd.identity[z]
    base = GFunctor(
        gpd, gpd,
        {y: mo[(y, z)] for y in gpd.objects},
        {f: mm[(f, idz)] for f in gpd.morphisms},
    )
    comps = {(u, v): ring.dist_r.components[(u, v, z)]
             for u, v in product(gpd.objects, repeat=2)}
    return StructuredFunctor(base, fsum_family(comps))


# ---------------------------------------------------------------------------
# axiom laws; symbols as bound by ``_law_env``
# ---------------------------------------------------------------------------

_X, _Y, _Z, _T, _U = map(ex.var, range(5))
_add = partial(ex.op, "+")
_mul = partial(ex.op, "*")
_d, _e, _b, _m, _n, _l, _r = (partial(ex.fam, s) for s in "debmnlr")
_ax, _lx, _rx = (partial(ex.fam, s) for s in ("a*", "l*", "r*"))
_id, _0, _1 = ex.ident, ex.constant("0"), ex.constant("1")
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
# 2R1' (through the canonical b) and 2R1'' (through the given b): the same
# two interchange diagrams over 5-tuples
_INTERCHANGE = {
    "d": ([_mul(_id(_X), _b(_Y, _Z, _T, _U)), _d(_X, _add(_Y, _Z), _add(_T, _U)),
           _add(_d(_X, _Y, _Z), _d(_X, _T, _U))],
          [_d(_X, _add(_Y, _T), _add(_Z, _U)), _add(_d(_X, _Y, _T), _d(_X, _Z, _U)),
           _b(_mul(_X, _Y), _mul(_X, _Z), _mul(_X, _T), _mul(_X, _U))]),
    "e": ([_mul(_b(_X, _Y, _Z, _T), _id(_U)), _e(_add(_X, _Y), _add(_Z, _T), _U),
           _add(_e(_X, _Y, _U), _e(_Z, _T, _U))],
          [_e(_add(_X, _Z), _add(_Y, _T), _U), _add(_e(_X, _Z, _U), _e(_Y, _T, _U)),
           _b(_mul(_X, _U), _mul(_Y, _U), _mul(_Z, _U), _mul(_T, _U))]),
}
JP_LAWS = tuple(ex.Law(f"2R1-prime/{form}", 5, *legs) for form, legs in _INTERCHANGE.items())
_XY = _mul(_X, _Y)
AC_RING_LAWS = (
    *(ex.Law(f"2R1-dprime/{form}", 5, *legs) for form, legs in _INTERCHANGE.items()),
    ex.Law("2R1-dprime/m-left", 2, [_l(_XY)],
           [_mul(_id(_X), _l(_Y)), _d(_X, _0, _Y), _add(_m(_X), _id(_XY))]),
    ex.Law("2R1-dprime/m-right", 2, [_r(_XY)],
           [_mul(_id(_X), _r(_Y)), _d(_X, _Y, _0), _add(_id(_XY), _m(_X))]),
    ex.Law("2R1-dprime/n-left", 2, [_l(_XY)],
           [_mul(_l(_X), _id(_Y)), _e(_0, _X, _Y), _add(_n(_Y), _id(_XY))]),
    ex.Law("2R1-dprime/n-right", 2, [_r(_XY)],
           [_mul(_r(_X), _id(_Y)), _e(_X, _0, _Y), _add(_id(_XY), _n(_Y))]),
)


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


def _suite_runner(
    ring: TwoRingData,
    presentation: str,
    report: Report,
    *,
    check_data: bool,
    sample: int | None,
    seed: int,
    allow_strict_skip: bool,
):
    """The preamble the three suites share: the presentation check, the data
    rows, then ``run(law)``, which checks one law in the engine and adds the
    row to ``report``.  Returns ``None`` when a data row fails."""
    if ring.presentation != presentation:
        form = "AC" if ring.presentation == "ac" else "symmetric"
        raise PresentationMismatch(f"additive structure is in {form} form; convert first")
    absorbers = _needs_absorbers(ring)
    if check_data:
        _check_ring_families(ring, report, absorbers=absorbers)
        if not report.ok:
            return None
    gpd = ring.carrier
    objs = gpd.objects_sorted
    env = _law_env(ring)

    def run(law):
        report.add(check_diagram(law, gpd, objs, env, sample=sample, seed=seed, strict=allow_strict_skip))

    return run


def _needs_absorbers(ring: TwoRingData) -> bool:
    """True for the AC presentation, whose suite needs the m and n families;
    raises :class:`MissingAbsorbers` when it lacks either."""
    if ring.presentation != "ac":
        return False
    if ring.absorb_l is None or ring.absorb_r is None:
        raise MissingAbsorbers("AC presentation requires the m and n families")
    return True


def _check_ring_families(ring: TwoRingData, report: Report, absorbers: bool) -> None:
    env = ring.env()
    report.extend(validate_family(ring.carrier, ring.dist_l, env, label="d"))
    report.extend(validate_family(ring.carrier, ring.dist_r, env, label="e"))
    if absorbers:
        report.extend(validate_family(ring.carrier, ring.absorb_l, env, label="m"))
        report.extend(validate_family(ring.carrier, ring.absorb_r, env, label="n"))


def _pair_axiom(
    name: str,
    ring: TwoRingData,
    side: str,
    law: ex.Law,
    *,
    sample,
    seed,
    allow_strict_skip,
) -> CheckResult:
    """The functor law ``law`` (SF1 or SF2) of the multiplication
    endofunctors, aggregated over the fixed object; the witness index is
    (fixed object, instance tuple).

    The strict profile is the law's, with the ring's distributor standing
    for every monoidality family and the product for every functor: strict
    d (or e) and an identity-preserving product make each endofunctor's pair
    strict.  Each fixed object is one ``check_diagram`` call on its own
    endofunctor, scanned up to the first failing object, and a row that holds
    by the strict profile makes none: a 2R1 row stands for that many engine
    calls, which is how traced runs account for the engine spans behind it.
    One diagram over (fixed object, instance) tuples would break that count."""
    gpd = ring.carrier
    objs = gpd.objects_sorted
    add = ring.add
    started = time.perf_counter()
    dist = ring.dist_l if side == "left" else ring.dist_r
    profile = {**add.law_env("s"), **add.law_env("t"), "F": (None, None, ring.mul.preserves_identities),
               "F+": (dist, ring.env())}
    if allow_strict_skip and strict_profile(law, gpd, profile):
        total = len(objs) ** (law.arity + 1)
        return CheckResult(name, Status.PASS, None, total, "strict-profile", time.perf_counter() - started)
    total = 0
    mode = "exhaustive"
    for x in objs:
        fun = left_mult_functor(ring, x) if side == "left" else right_mult_functor(ring, x)
        res = check_diagram(law, gpd, objs, _functor_law_env(fun, add, add), sample=sample, seed=seed)
        total += res.instances
        mode = res.mode
        if res.status is Status.FAIL:
            wit = res.witness
            return CheckResult(
                name, Status.FAIL,
                Witness((x,) + wit.index, wit.left, wit.right, wit.left_path, wit.right_path, wit.note),
                total, mode, time.perf_counter() - started,
            )
    return CheckResult(name, Status.PASS, None, total, mode, time.perf_counter() - started)


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
    the additive 2-group; 2R2 routes through the canonical
    associo-commutator of the additive structure.
    """
    report = Report()
    run = _suite_runner(ring, "sm", report, check_data=check_data, sample=sample, seed=seed,
                        allow_strict_skip=allow_strict_skip)
    if run is None:
        return report

    for side in ("left", "right"):
        for tag, law in (("assoc", SF1), ("comm", SF2)):
            report.add(_pair_axiom(f"2R1/{side}-{tag}", ring, side, law,
                                   sample=sample, seed=seed, allow_strict_skip=allow_strict_skip))
    for law in COMMON_LAWS:
        run(law)
    return report


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
    report = Report()
    run = _suite_runner(ring, "sm", report, check_data=check_data, sample=sample, seed=seed,
                        allow_strict_skip=allow_strict_skip)
    if run is None:
        return report
    for law in JP_LAWS + COMMON_LAWS:
        run(law)
    return report


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
    report = Report()
    run = _suite_runner(ring, "ac", report, check_data=check_data, sample=sample, seed=seed,
                        allow_strict_skip=allow_strict_skip)
    if run is None:
        return report
    for law in AC_RING_LAWS + COMMON_LAWS:
        run(law)
    return report


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
    _check_ring_families(ring, report, absorbers=_needs_absorbers(ring))
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
    translated half, and the 2R suite runs unsampled.  Without it nothing
    of the input is checked."""
    if ring.presentation != "sm":
        raise PresentationMismatch("ring is already in AC presentation")
    if validate:
        _require_ring(ring, validate_quang, "input fails the 2R suite", sample)
    add_ac = _translate_to_ac(ring.add, sample)
    zero = ring.add.unit
    zero_id = ring.carrier.identity[zero]
    m_comps = {}
    n_comps = {}
    for x in ring.carrier.objects_sorted:
        m_comps[(x,)] = canonical_zero_iso(left_mult_functor(ring, x), ring.add, ring.add)
        n_comps[(x,)] = canonical_zero_iso(right_mult_functor(ring, x), ring.add, ring.add)
    return TwoRingData(
        ring.carrier, add_ac, ring.mul, ring.dist_l, ring.dist_r,
        absorb_l_family(m_comps, zero, zero_id),
        absorb_r_family(n_comps, zero, zero_id),
    )


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


def jp_upgrade(ring: TwoRingData, *, validate: bool = True) -> TwoRingData | NoAbsorbers:
    """Brute-force search for absorbing isomorphism families turning a ring
    passing the 2R1' suite into an AC (hence symmetric-presentation) ring.

    Returns the AC-presentation ring on success, or :class:`NoAbsorbers`
    with the first blocking object.  The found families are checked for
    naturality before being accepted.
    """
    if ring.presentation != "sm":
        raise PresentationMismatch("upgrade starts from the symmetric presentation")
    if validate:
        _require_ring(ring, validate_jp, "input fails the 2R1' suite", None)
    add_ac = _translate_to_ac(ring.add, None)
    zero = ring.add.unit
    zid = ring.carrier.identity[zero]
    m_comps = {}
    n_comps = {}
    # m_x is a zero iso of (x*-) and n_x one of (-*x): the m/n absorber
    # squares are the AF2 unit squares of the multiplication endofunctors
    for x in ring.carrier.objects_sorted:
        for side, mult_functor, comps in (("left", left_mult_functor, m_comps),
                                          ("right", right_mult_functor, n_comps)):
            try:
                found = enumerate_zero_isos(mult_functor(ring, x), add_ac, add_ac, "AF2")
            except KeyError:
                # a multiplication or distributor table of an unvalidated
                # input lacks an entry the functor at x reads: no candidate
                found = []
            if not found:
                return NoAbsorbers(x, side)
            comps[(x,)] = found[0]
    out = TwoRingData(
        ring.carrier, add_ac, ring.mul, ring.dist_l, ring.dist_r,
        absorb_l_family(m_comps, zero, zid),
        absorb_r_family(n_comps, zero, zid),
    )
    # the squares pin each component; naturality must then come for free,
    # but verify rather than assume
    env = out.env()
    for fam, side in ((out.absorb_l, "left"), (out.absorb_r, "right")):
        nat = check_naturality(fam, env, domain=ring.carrier, label=f"naturality({side})")
        if not nat.ok:
            wit = nat.failures()[0].witness
            return NoAbsorbers(wit.index[0] if wit else "?", side, "found components are not natural")
    return out
