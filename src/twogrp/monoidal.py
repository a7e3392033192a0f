"""Symmetric monoidal structure on a finite groupoid.

A structure is the carrier groupoid plus a sum bifunctor table, a unit
object, and the associator / commutator / unitor families.  ``validate_sm``
runs the pentagon, triangle, hexagon and symmetry axioms with witness
reporting; a structure without a commutator is "monoidal only" and the last
two axioms report not-applicable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import product
from operator import eq

from . import diagram
from . import expr as ex
from .diagram import check_diagram
from .errors import MissingFamily, NoInverse, UnitorMismatch
from .groupoid import (
    FinGroupoid,
    NatFamily,
    _Memo,
    _first_failure,
    _recorded,
    check_naturality,
    validate_family,
    validate_groupoid,
)
from .report import CheckResult, Report, Status, Witness

# endpoint expressions shared by every sum-like structure
_V0, _V1, _V2 = ex.var(0), ex.var(1), ex.var(2)
ASSOC_SRC = ex.op("+", _V0, ex.op("+", _V1, _V2))
ASSOC_TGT = ex.op("+", ex.op("+", _V0, _V1), _V2)
COMM_SRC = ex.op("+", _V0, _V1)
COMM_TGT = ex.op("+", _V1, _V0)


def assoc_family(components: dict) -> NatFamily:
    """x+(y+z) -> (x+y)+z, indexed by (x, y, z)."""
    return NatFamily(3, components, ASSOC_SRC, ASSOC_TGT)


def comm_family(components: dict) -> NatFamily:
    """x+y -> y+x, indexed by (x, y)."""
    return NatFamily(2, components, COMM_SRC, COMM_TGT)


def lunit_family(components: dict, unit: str, unit_id: str) -> NatFamily:
    """0+x -> x, indexed by (x,)."""
    return NatFamily(1, components, ex.op("+", ex.const(unit, unit_id), _V0), _V0)


def runit_family(components: dict, unit: str, unit_id: str) -> NatFamily:
    """x+0 -> x, indexed by (x,)."""
    return NatFamily(1, components, ex.op("+", _V0, ex.const(unit, unit_id)), _V0)


# the symmetric laws; symbols as bound by ``SumStructure.law_env``
_X, _Y, _Z, _T = map(ex.var, range(4))
_add = partial(ex.op, "+")
_a, _c, _l, _r = (partial(ex.fam, s) for s in "aclr")
SM_LAWS = (
    ex.Law("SC1", 4, [_a(_add(_X, _Y), _Z, _T), _a(_X, _Y, _add(_Z, _T))],
           [_add(_a(_X, _Y, _Z), ex.ident(_T)), _a(_X, _add(_Y, _Z), _T), _add(ex.ident(_X), _a(_Y, _Z, _T))]),
    ex.Law("SC2", 2, [_add(_r(_X), ex.ident(_Y)), _a(_X, ex.constant("0"), _Y)],
           [_add(ex.ident(_X), _l(_Y))]),
    ex.Law("SC3", 3, [_a(_Z, _X, _Y), _c(_add(_X, _Y), _Z), _a(_X, _Y, _Z)],
           [_add(_c(_X, _Z), ex.ident(_Y)), _a(_X, _Z, _Y), _add(ex.ident(_X), _c(_Y, _Z))]),
    ex.Law("SC4", 2, [_c(_Y, _X), _c(_X, _Y)], [ex.ident(_add(_X, _Y))]),
)


# functoriality of the sum, (g∘f) + (g2∘f2) = (g + g2)∘(f + f2), over pairs of
# composable pairs (g, f), (g2, f2); ∘ is bound to the carrier's compose table
_G, _F, _G2, _F2 = ("fst", _X), ("snd", _X), ("fst", _Y), ("snd", _Y)
INTERCHANGE = ex.Law(
    "bifunctor", 2, [_add(ex.op("∘", _G, _F), ex.op("∘", _G2, _F2))], [_add(_G, _G2), _add(_F, _F2)])


class SumStructure(_Memo):
    """Method mixin shared by the monoidal and AC structure types (both carry
    ``carrier``, ``sum_obj``, ``sum_mor``, ``unit`` and a ``_cache``)."""

    def env(self) -> ex.Env:
        return {"+": (self.sum_obj, self.sum_mor)}

    def law_env(self, tag: str = "", plus: str | None = None, zero: str | None = None) -> dict:
        """The bindings of a law's symbols to this structure: its sum
        (``plus``, default ``+`` followed by ``tag``), its unit (``zero``,
        default ``0`` followed by ``tag``) and each family under its name
        followed by ``tag``."""
        env = self.env()
        out = {f"+{tag}" if plus is None else plus: (self.sum_obj, self.sum_mor, self.preserves_identities),
               f"0{tag}" if zero is None else zero: (self.unit, self.carrier.identity.get(self.unit))}
        out.update((name + tag, (fam, env)) for name, fam in self.families().items())
        return out

    def add(self, x: str, y: str) -> str:
        return self.sum_obj[(x, y)]

    def preserves_identities(self) -> bool:
        """Does the sum of two identities give the identity of the sum?"""
        ident = self.carrier.identity
        return _recorded(self, "id_pres", (self.carrier, self.sum_obj, self.sum_mor), run=lambda: all(
            self.sum_mor.get((ident[x], ident[y])) == ident[z] for (x, y), z in self.sum_obj.items()))


@dataclass
class MonStructure(SumStructure):
    """Sum bifunctor, unit and the a/c/l/r families on a finite groupoid.

    ``comm=None`` marks a plain monoidal structure (used for the
    multiplicative half of a 2-ring).
    """

    carrier: FinGroupoid
    sum_obj: dict[tuple[str, str], str]
    sum_mor: dict[tuple[str, str], str]
    unit: str
    assoc: NatFamily
    comm: NatFamily | None
    lunit: NatFamily
    runit: NatFamily
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def families(self) -> dict[str, NatFamily]:
        fams = {"a": self.assoc, "l": self.lunit, "r": self.runit}
        if self.comm is not None:
            fams["c"] = self.comm
        return fams


@dataclass(frozen=True)
class WeakInverseCert:
    """An object, a weak inverse for it, and the witnessing isomorphism
    eta: 0 -> inverse + x."""

    obj: str
    inverse: str
    eta: str


def _check_bifunctor(m: MonStructure, report: Report) -> None:
    """Add the bifunctor row (:func:`_bifunctor_row`), recorded on the
    carrier with the two sum tables (:func:`groupoid._recorded`), which a
    ``replace`` copy of the structure shares: a later call adds a copy of it
    with its own seconds, without a rescan.  The carrier keeps two such
    records, so a 2-ring's additive and multiplicative sums keep theirs."""
    started = time.perf_counter()
    row = _recorded(m.carrier, "bifunctor", (m.sum_obj, m.sum_mor), run=lambda: _bifunctor_row(m))
    report.add(replace(row, seconds=time.perf_counter() - started))


def _key_columns(table, ids: set):
    """The two key columns of ``table`` when it is keyed by exactly the
    pairs of ``ids`` (as many keys as pairs, each a pair of them), else
    None."""
    if len(table) != len(ids) ** 2 or set(map(type, table)) != {tuple} or set(map(len, table)) != {2}:
        return None
    firsts, seconds = zip(*table)
    return (firsts, seconds) if ids.issuperset(firsts) and ids.issuperset(seconds) else None


def _carries(table, keys, at, other) -> bool:
    """Whether ``other`` sends the image under ``at`` of each key pair of
    ``table`` (its key columns ``keys``) to the image of its value."""
    return all(map(eq, map(at, table.values()), map(other.get, zip(*[map(at, column) for column in keys]))))


def _tables_hold(m: MonStructure) -> bool:
    """Whether every entry of the sum's tables passes the bifunctor row's
    walk, decided by set and count comparisons: each table is keyed by
    exactly the pairs of the carrier's ids and valued in them, the sum of
    identities is the identity of the sum, and each ``sum_mor`` entry has
    the endpoints the object sum gives.  A table on which a lookup misses
    reads False, so the walk names what is wrong."""
    gpd, so, sm = m.carrier, m.sum_obj, m.sum_mor
    objects, mors = set(gpd.objects), set(gpd.morphisms)
    obj_keys, mor_keys = _key_columns(so, objects), _key_columns(sm, mors)
    if not (obj_keys and mor_keys and objects.issuperset(so.values()) and mors.issuperset(sm.values())):
        return False
    ends = [{f: getattr(mor, end) for f, mor in gpd.morphisms.items()}.__getitem__ for end in ("src", "dst")]
    try:
        return (_carries(so, obj_keys, gpd.identity.__getitem__, sm)
                and all(_carries(sm, mor_keys, at, so) for at in ends))
    except KeyError:
        return False


def _bifunctor_row(m: MonStructure) -> CheckResult:
    """The bifunctor row: the sum's tables (totality, keys and values in the
    carrier, identities and endpoints preserved), each entry one instance,
    then the interchange law over pairs of ``compose`` keys in sorted order.
    The tables are decided by :func:`_tables_hold`; only where that fails
    are they walked entry by entry, in sorted order, to name the first
    failing entry.
    Where the law fails, ``witness_at`` writes the witness at
    ``(g, f, g2, f2)``: ``(g∘f) + (g2∘f2)`` and the ``compose`` entry at
    ``(g + g2, f + f2)`` (``None`` when there is none), or nothing where they
    agree (the carrier's tables break the law there).  The instances are the
    entries plus the law's."""
    gpd = m.carrier
    objects = set(gpd.objects)

    def cases():
        for (x, y), z in sorted(m.sum_obj.items()):
            if x not in objects or y not in objects:
                yield Witness((x, y), note="sum object table keyed outside the carrier")
            elif z not in objects:
                yield Witness((x, y), note="sum sends pair outside the carrier")
            elif m.sum_mor.get((gpd.identity[x], gpd.identity[y])) != gpd.identity[z]:
                yield Witness((x, y), note="sum of identities is not the identity of the sum")
            else:
                yield None
        for x, y in product(gpd.objects_sorted, repeat=2):
            if (x, y) not in m.sum_obj:
                yield Witness((x, y), note="sum object table not total")
        for f, g in product(gpd.morphisms_sorted, repeat=2):
            if (f, g) not in m.sum_mor:
                yield Witness((f, g), note="sum morphism table not total")
        for (f, g), h in sorted(m.sum_mor.items()):
            mf, mg = gpd.morphisms.get(f), gpd.morphisms.get(g)
            if mf is None or mg is None:
                yield Witness((f, g), note="sum morphism table keyed outside the carrier")
            elif h not in gpd.morphisms:
                yield Witness((f, g), left=h, note="sum morphism table sends pair outside the carrier")
            elif gpd.src(h) != m.sum_obj[(mf.src, mg.src)] or gpd.dst(h) != m.sum_obj[(mf.dst, mg.dst)]:
                yield Witness((f, g), left=h, note="sum morphism has wrong endpoints")
            else:
                yield None

    if not _tables_hold(m):
        report = Report()
        _first_failure(report, "bifunctor", cases())
        if report.checks[0].status is not Status.PASS:
            return report.checks[0]
    comp, plus = gpd.compose, m.sum_mor

    def witness_at(idx):
        (g, f), (g2, f2) = idx
        lhs = plus[(comp[(g, f)], comp[(g2, f2)])]
        rhs = comp.get((plus[(g, g2)], plus[(f, f2)]))
        return Witness((g, f, g2, f2), left=lhs, right=rhs) if lhs != rhs else None

    env = {"+": (m.sum_obj, plus, m.preserves_identities), "∘": ({}, comp, None)}
    row = diagram._check("bifunctor", INTERCHANGE, gpd, sorted(comp), env, witness_at=witness_at)
    row.instances += len(m.sum_obj) + len(m.sum_mor)
    return row


def _check_families(s, report: Report, skip: tuple[str, ...] = ()) -> None:
    """One endpoint row per family of ``s.families()`` not named in
    ``skip``, under ``s.env()``."""
    env = s.env()
    for name, fam in s.families().items():
        if name not in skip:
            report.extend(validate_family(s.carrier, fam, env, label=name))


def validate_sm(
    m: MonStructure,
    *,
    check_data: bool = True,
    sample: int | None = None,
    seed: int = 0,
    allow_strict_skip: bool = True,
) -> Report:
    """Run the symmetric monoidal axiom suite (pentagon, triangle, hexagon,
    symmetry) plus, by default, the bifunctor and family endpoint checks.

    Hexagon and symmetry report not-applicable when the commutator is
    absent.  ``sample`` draws a fixed-seed random subset of each axiom's
    object-tuple space instead of iterating it exhaustively.
    """
    if m.assoc is None or m.lunit is None or m.runit is None:
        raise MissingFamily("a, l, r are required for the monoidal axiom suite")
    return _sum_suite(m, SM_LAWS, check_data=check_data, sample=sample, seed=seed,
                      allow_strict_skip=allow_strict_skip)


def _sum_suite(s, laws, *, check_data: bool, sample: int | None, seed: int, allow_strict_skip: bool) -> Report:
    """The body of ``validate_sm`` and ``ac.validate_ac`` on the structure
    ``s``: with ``check_data`` the bifunctor row and then the family rows,
    returning at the first failure, and then one row per law of ``laws``."""
    report = Report()
    if check_data:
        _check_bifunctor(s, report)
        if report.ok:  # the family scans read the sum tables the bifunctor row checks
            _check_families(s, report)
        if not report.ok:
            return report
    gpd = s.carrier
    _run_laws(report, laws, gpd, gpd.objects_sorted, s.law_env(),
              sample=sample, seed=seed, strict=allow_strict_skip)
    return report


def _run_laws(report: Report, laws, gpd: FinGroupoid, objects, env: dict, **kwargs) -> None:
    """Add one row per law: not applicable when ``env`` leaves a symbol of
    the law unbound (a structure without a commutator), else the engine's
    row."""
    for law in laws:
        if law.symbols <= env.keys():
            report.add(check_diagram(law, gpd, objects, env, **kwargs))
        else:
            report.add(CheckResult(law.name, Status.NOT_APPLICABLE, None, 0, "skipped"))


def check_structure_naturality(m, *, sample: int | None = None, seed: int = 0) -> Report:
    """Naturality squares for every family a structure carries (works for
    both the symmetric and the AC presentation)."""
    report = Report()
    env = m.env()
    for name, fam in m.families().items():
        report.extend(
            check_naturality(fam, env, domain=m.carrier, sample=sample, seed=seed,
                             label=f"naturality({name})")
        )
    return report


def basic_unitor(m: MonStructure) -> str:
    """The coinciding unitor component at the unit: 0+0 -> 0.

    Raises :class:`UnitorMismatch` when the left and right components at the
    unit differ, which signals a structure violating the unit coherence.
    """
    l0 = m.lunit.at(m.unit)
    r0 = m.runit.at(m.unit)
    if l0 != r0:
        raise UnitorMismatch(f"l and r disagree at the unit: {l0!r} != {r0!r}")
    return l0


def weak_inverse_candidates(m: MonStructure, x: str) -> list[WeakInverseCert]:
    """All certificates (inverse, eta) for ``x``, in canonical order; a
    candidate whose sum with ``x`` the table lacks gives none."""
    gpd = m.carrier
    out = []
    for cand in gpd.objects_sorted:
        for eta in gpd.hom(m.unit, m.sum_obj.get((cand, x))):
            out.append(WeakInverseCert(x, cand, eta))
    return out


def find_weak_inverse(m: MonStructure, x: str) -> WeakInverseCert:
    """First weak inverse certificate for ``x`` in canonical order.

    Raises :class:`NoInverse` when no object sums with ``x`` into something
    isomorphic to the unit (a sum the table lacks is no certificate).
    """
    gpd = m.carrier
    for cand in gpd.objects_sorted:
        hom = gpd.hom(m.unit, m.sum_obj.get((cand, x)))
        if hom:
            return WeakInverseCert(x, cand, hom[0])
    raise NoInverse(x)


def _check_weak_inverses(m, report: Report) -> None:
    """Add the weak-inverses row (a certificate for every object, or the
    first object without one) and record the certificates found under
    ``report.artifacts["weak_inverses"]``."""
    certs = []

    def cases():
        for x in m.carrier.objects_sorted:
            try:
                certs.append(find_weak_inverse(m, x))
            except NoInverse:
                yield Witness((x,), note="no weak inverse")
            else:
                yield None

    _first_failure(report, "weak-inverses", cases())
    report.artifacts["weak_inverses"] = certs


def validate_2group(
    m: MonStructure,
    *,
    sample: int | None = None,
    seed: int = 0,
    allow_strict_skip: bool = True,
) -> Report:
    """Carrier groupoid laws + symmetric monoidal axioms + a weak inverse for
    every object.  Certificates are recorded under
    ``report.artifacts["weak_inverses"]``."""
    report = Report()
    report.extend(validate_groupoid(m.carrier), prefix="carrier:")
    if not report.ok:
        return report
    report.extend(
        validate_sm(m, sample=sample, seed=seed, allow_strict_skip=allow_strict_skip)
    )
    _check_weak_inverses(m, report)
    return report
