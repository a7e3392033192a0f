"""2-rings: one groupoid carrying an additive 2-group, a multiplicative
monoidal structure and distributor families, checked against three axiom
suites that differ only in how the distributivity coherence is stated:

* ``validate_quang``    -- 2R1 requires the pairs (x*-, d_x) and (-*z, e_z)
  to satisfy SF1+SF2 as endomorphisms of the additive symmetric 2-group
  (equivalently: the four classical distributivity diagrams, kept as an
  independent cross-check in ``quang_distributivity_diagrams``);
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
from itertools import product

from . import expr as ex
from .ac import ACStructure, _translate_to_ac, _translate_to_sm, canonical_acomm_at, validate_ac
from .diagram import check_diagram, strict_profile
from .errors import MissingAbsorbers, PresentationMismatch
from .groupoid import FinGroupoid, GFunctor, NatFamily, check_naturality, validate_family, validate_groupoid
from .monoidal import MonStructure, _check_weak_inverses, validate_sm
from .functors import (
    StructuredFunctor,
    canonical_zero_iso,
    enumerate_zero_isos,
    fsum_family,
    sf1_legs,
    sf2_legs,
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
class TwoRingData:
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
# axiom legs shared by the three suites
# ---------------------------------------------------------------------------


def _r2_legs(ring: TwoRingData, b_at):
    d, e = ring.dist_l.components, ring.dist_r.components
    ao, am = ring.add.sum_obj, ring.add.sum_mor
    mo = ring.mul.sum_obj

    def legs(idx):
        x, y, z, t = idx
        left = [e[(x, y, ao[(z, t)])], am[(d[(x, z, t)], d[(y, z, t)])]]
        right = [
            d[(ao[(x, y)], z, t)],
            am[(e[(x, y, z)], e[(x, y, t)])],
            b_at(mo[(x, z)], mo[(x, t)], mo[(y, z)], mo[(y, t)]),
        ]
        return left, right

    return legs


def _r3_legs(ring: TwoRingData):
    d = ring.dist_l.components
    ax = ring.mul.assoc.components
    ao, am = ring.add.sum_obj, ring.add.sum_mor
    mo, mm, ident = ring.mul.sum_obj, ring.mul.sum_mor, ring.carrier.identity

    def legs(idx):
        x, y, z, t = idx
        left = [d[(mo[(x, y)], z, t)], am[(ax[(x, y, z)], ax[(x, y, t)])]]
        right = [
            ax[(x, y, ao[(z, t)])],
            mm[(ident[x], d[(y, z, t)])],
            d[(x, mo[(y, z)], mo[(y, t)])],
        ]
        return left, right

    return legs


def _r4_legs(ring: TwoRingData):
    d, e = ring.dist_l.components, ring.dist_r.components
    ax = ring.mul.assoc.components
    ao, am = ring.add.sum_obj, ring.add.sum_mor
    mo, mm, ident = ring.mul.sum_obj, ring.mul.sum_mor, ring.carrier.identity

    def legs(idx):
        x, y, z, t = idx
        left = [
            mm[(d[(x, z, t)], ident[y])],
            e[(mo[(x, z)], mo[(x, t)], y)],
            am[(ax[(x, z, y)], ax[(x, t, y)])],
        ]
        right = [
            ax[(x, ao[(z, t)], y)],
            mm[(ident[x], e[(z, t, y)])],
            d[(x, mo[(z, y)], mo[(t, y)])],
        ]
        return left, right

    return legs


def _r5_legs(ring: TwoRingData):
    e = ring.dist_r.components
    ax = ring.mul.assoc.components
    ao, am = ring.add.sum_obj, ring.add.sum_mor
    mo, mm, ident = ring.mul.sum_obj, ring.mul.sum_mor, ring.carrier.identity

    def legs(idx):
        t, z, y, x = idx
        left = [
            mm[(e[(t, z, y)], ident[x])],
            e[(mo[(t, y)], mo[(z, y)], x)],
            am[(ax[(t, y, x)], ax[(z, y, x)])],
        ]
        right = [ax[(ao[(t, z)], y, x)], e[(t, z, mo[(y, x)])]]
        return left, right

    return legs


def _r6_legs(ring: TwoRingData, side: str):
    d, e = ring.dist_l.components, ring.dist_r.components
    ao, am = ring.add.sum_obj, ring.add.sum_mor
    one = ring.mul.unit
    lx, rx = ring.mul.lunit.components, ring.mul.runit.components

    def legs(idx):
        x, y = idx
        if side == "left":
            left = [lx[(ao[(x, y)],)], d[(one, x, y)]]
            right = [am[(lx[(x,)], lx[(y,)])]]
        else:
            left = [rx[(ao[(x, y)],)], e[(x, y, one)]]
            right = [am[(rx[(x,)], rx[(y,)])]]
        return left, right

    return legs


def _r1_prime_legs(ring: TwoRingData, b_at, form: str):
    d, e = ring.dist_l.components, ring.dist_r.components
    ao, am = ring.add.sum_obj, ring.add.sum_mor
    mo, mm, ident = ring.mul.sum_obj, ring.mul.sum_mor, ring.carrier.identity

    def legs(idx):
        x, y, z, t, u = idx
        if form == "d":
            left = [
                mm[(ident[x], b_at(y, z, t, u))],
                d[(x, ao[(y, z)], ao[(t, u)])],
                am[(d[(x, y, z)], d[(x, t, u)])],
            ]
            right = [
                d[(x, ao[(y, t)], ao[(z, u)])],
                am[(d[(x, y, t)], d[(x, z, u)])],
                b_at(mo[(x, y)], mo[(x, z)], mo[(x, t)], mo[(x, u)]),
            ]
        else:
            left = [
                mm[(b_at(x, y, z, t), ident[u])],
                e[(ao[(x, y)], ao[(z, t)], u)],
                am[(e[(x, y, u)], e[(z, t, u)])],
            ]
            right = [
                e[(ao[(x, z)], ao[(y, t)], u)],
                am[(e[(x, z, u)], e[(y, t, u)])],
                b_at(mo[(x, u)], mo[(y, u)], mo[(z, u)], mo[(t, u)]),
            ]
        return left, right

    return legs


def _absorber_legs(ring: TwoRingData, which: str):
    d, e = ring.dist_l.components, ring.dist_r.components
    am = ring.add.sum_mor
    mo, mm, ident = ring.mul.sum_obj, ring.mul.sum_mor, ring.carrier.identity
    ladd, radd = ring.add.lunit.components, ring.add.runit.components
    zero = ring.add.unit
    m = ring.absorb_l.components if ring.absorb_l is not None else None
    n = ring.absorb_r.components if ring.absorb_r is not None else None

    def legs(idx):
        x, y = idx
        xy = mo[(x, y)]
        if which == "m-left":
            left = [ladd[(xy,)]]
            right = [mm[(ident[x], ladd[(y,)])], d[(x, zero, y)], am[(m[(x,)], ident[xy])]]
        elif which == "m-right":
            left = [radd[(xy,)]]
            right = [mm[(ident[x], radd[(y,)])], d[(x, y, zero)], am[(ident[xy], m[(x,)])]]
        elif which == "n-left":
            left = [ladd[(xy,)]]
            right = [mm[(ladd[(x,)], ident[y])], e[(zero, x, y)], am[(n[(y,)], ident[xy])]]
        else:  # n-right
            left = [radd[(xy,)]]
            right = [mm[(radd[(x,)], ident[y])], e[(x, zero, y)], am[(ident[xy], n[(y,)])]]
        return left, right

    return legs


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _b_strict(ring: TwoRingData) -> list[tuple[NatFamily, dict]]:
    """Family/env pairs whose strictness makes the relevant b identity."""
    env = ring.add.env()
    if ring.presentation == "ac":
        return [(ring.add.acomm, env)]
    return [(ring.add.assoc, env), (ring.add.comm, env)]


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
    rows, then ``run(law, arity, legs, fams, uses_inverse=False)``, which
    checks one diagram in the engine and adds the row to ``report``.
    Returns ``None`` when a data row fails."""
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
    maps = [ring.add, ring.mul]

    def run(law, arity, legs_fn, fams, uses_inverse=False):
        strict = (fams, maps, uses_inverse) if allow_strict_skip else None
        report.add(
            check_diagram(law, gpd, objs, arity, legs_fn, sample=sample, seed=seed, strict=strict)
        )

    return run


def _common_rows(ring: TwoRingData, b_at, run) -> None:
    renv = ring.env()
    menv = ring.mul.env()
    binv = ring.presentation == "sm"
    d_l, d_r = (ring.dist_l, renv), (ring.dist_r, renv)
    run("2R2", 4, _r2_legs(ring, b_at), [d_l, d_r] + _b_strict(ring), uses_inverse=binv)
    run("2R3", 4, _r3_legs(ring), [d_l, (ring.mul.assoc, menv)])
    run("2R4", 4, _r4_legs(ring), [d_l, d_r, (ring.mul.assoc, menv)])
    run("2R5", 4, _r5_legs(ring), [d_r, (ring.mul.assoc, menv)])
    run("2R6/left", 2, _r6_legs(ring, "left"), [d_l, (ring.mul.lunit, menv)])
    run("2R6/right", 2, _r6_legs(ring, "right"), [d_r, (ring.mul.runit, menv)])


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
    law: str,
    ring: TwoRingData,
    side: str,
    legs_builder,
    arity: int,
    fams: list,
    *,
    sample,
    seed,
    allow_strict_skip,
) -> CheckResult:
    """SF1/SF2 of the multiplication endofunctors, aggregated over the fixed
    object; the witness index is (fixed object, instance tuple).

    Each fixed object is one ``check_diagram`` call on its own endofunctor,
    scanned up to the first failing object, and a row that holds by the
    strict profile makes none: a 2R1 row stands for that many engine calls,
    which is how traced runs account for the engine spans behind it.  One
    diagram over (fixed object, instance) tuples would break that count."""
    gpd = ring.carrier
    objs = gpd.objects_sorted
    add = ring.add
    started = time.perf_counter()
    if allow_strict_skip and strict_profile(gpd, fams, [add, ring.mul]):
        total = len(objs) ** (arity + 1)
        return CheckResult(law, Status.PASS, None, total, "strict-profile", time.perf_counter() - started)
    total = 0
    mode = "exhaustive"
    for x in objs:
        fun = left_mult_functor(ring, x) if side == "left" else right_mult_functor(ring, x)
        res = check_diagram(law, gpd, objs, arity, legs_builder(fun, add, add),
                            sample=sample, seed=seed)
        total += res.instances
        mode = res.mode
        if res.status is Status.FAIL:
            wit = res.witness
            return CheckResult(
                law, Status.FAIL,
                Witness((x,) + wit.index, wit.left, wit.right, wit.left_path, wit.right_path, wit.note),
                total, mode, time.perf_counter() - started,
            )
    return CheckResult(law, Status.PASS, None, total, mode, time.perf_counter() - started)


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

    add = ring.add
    renv, aenv = ring.env(), add.env()
    for side, dist in (("left", ring.dist_l), ("right", ring.dist_r)):
        for law, legs, arity, fam in (("assoc", sf1_legs, 3, add.assoc), ("comm", sf2_legs, 2, add.comm)):
            report.add(_pair_axiom(f"2R1/{side}-{law}", ring, side, legs, arity, [(dist, renv), (fam, aenv)],
                                   sample=sample, seed=seed, allow_strict_skip=allow_strict_skip))

    b_at = lambda p, q, r, s: canonical_acomm_at(add, p, q, r, s)
    _common_rows(ring, b_at, run)
    return report


def quang_distributivity_diagrams(
    ring: TwoRingData, *, sample: int | None = None, seed: int = 0
) -> Report:
    """The four classical distributivity coherence diagrams, evaluated
    directly.  Independent cross-check for the endofunctor formulation of
    2R1: both must agree law by law on every input."""
    if ring.presentation != "sm":
        raise PresentationMismatch("additive structure is in AC form; convert first")
    gpd = ring.carrier
    objs = gpd.objects_sorted
    d, e = ring.dist_l.components, ring.dist_r.components
    a, c = ring.add.assoc.components, ring.add.comm.components
    ao, am = ring.add.sum_obj, ring.add.sum_mor
    mo, mm, ident = ring.mul.sum_obj, ring.mul.sum_mor, ring.carrier.identity

    def d_assoc(idx):
        x, y, z, t = idx
        left = [d[(x, ao[(y, z)], t)], am[(d[(x, y, z)], ident[mo[(x, t)]])],
                a[(mo[(x, y)], mo[(x, z)], mo[(x, t)])]]
        right = [mm[(ident[x], a[(y, z, t)])], d[(x, y, ao[(z, t)])],
                 am[(ident[mo[(x, y)]], d[(x, z, t)])]]
        return left, right

    def e_assoc(idx):
        x, y, z, t = idx
        left = [e[(ao[(x, y)], z, t)], am[(e[(x, y, t)], ident[mo[(z, t)]])],
                a[(mo[(x, t)], mo[(y, t)], mo[(z, t)])]]
        right = [mm[(a[(x, y, z)], ident[t])], e[(x, ao[(y, z)], t)],
                 am[(ident[mo[(x, t)]], e[(y, z, t)])]]
        return left, right

    def d_comm(idx):
        x, y, z = idx
        left = [mm[(ident[x], c[(y, z)])], d[(x, y, z)]]
        right = [d[(x, z, y)], c[(mo[(x, y)], mo[(x, z)])]]
        return left, right

    def e_comm(idx):
        y, z, x = idx
        left = [mm[(c[(y, z)], ident[x])], e[(y, z, x)]]
        right = [e[(z, y, x)], c[(mo[(y, x)], mo[(z, x)])]]
        return left, right

    report = Report()
    report.add(check_diagram("d-assoc", gpd, objs, 4, d_assoc, sample=sample, seed=seed))
    report.add(check_diagram("e-assoc", gpd, objs, 4, e_assoc, sample=sample, seed=seed))
    report.add(check_diagram("d-comm", gpd, objs, 3, d_comm, sample=sample, seed=seed))
    report.add(check_diagram("e-comm", gpd, objs, 3, e_comm, sample=sample, seed=seed))
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
    add = ring.add
    b_at = lambda p, q, r, s: canonical_acomm_at(add, p, q, r, s)

    renv, aenv = ring.env(), add.env()
    for form in ("d", "e"):
        fams = [(ring.dist_l if form == "d" else ring.dist_r, renv),
                (add.assoc, aenv), (add.comm, aenv)]
        run(f"2R1-prime/{form}", 5, _r1_prime_legs(ring, b_at, form), fams, uses_inverse=True)
    _common_rows(ring, b_at, run)
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
    add = ring.add
    b = add.acomm.components
    b_at = lambda p, q, r, s: b[(p, q, r, s)]

    renv, aenv = ring.env(), add.env()
    for form in ("d", "e"):
        fams = [(ring.dist_l if form == "d" else ring.dist_r, renv), (add.acomm, aenv)]
        run(f"2R1-dprime/{form}", 5, _r1_prime_legs(ring, b_at, form), fams)
    for which, fam in (("m-left", ring.absorb_l), ("m-right", ring.absorb_l),
                       ("n-left", ring.absorb_r), ("n-right", ring.absorb_r)):
        d_or_e = ring.dist_l if which.startswith("m") else ring.dist_r
        fams = [(fam, renv), (d_or_e, renv), (add.lunit, aenv), (add.runit, aenv)]
        run(f"2R1-dprime/{which}", 2, _absorber_legs(ring, which), fams)
    _common_rows(ring, b_at, run)
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
