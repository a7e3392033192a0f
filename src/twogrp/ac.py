"""AC structure: the presentation of a symmetric sum through a single
four-argument associo-commutator b(x,y,z,t): (x+y)+(z+t) -> (x+z)+(y+t),
with axioms AC1 (4x4 interchange), AC2 (unital squares) and AC3
(normalization), plus the two constructive translations:

* ``to_ac``  builds b out of a and c as the border composite of the defining
  diagram (the upper route; ``assoc_commutator_lower`` evaluates the lower
  border independently and exists for cross-checking),
* ``to_sm``  rebuilds a and c out of b through the unit slots.

Both translations validate their input and always re-check their output
(a converted structure is never assumed valid); round-tripping reproduces
the input tables exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from . import expr as ex
from .diagram import check_diagram, strict_profile
from .errors import PreconditionFailed
from .groupoid import FinGroupoid, NatFamily, compose_path, identity_family
from .monoidal import (
    MonStructure,
    SumStructure,
    assoc_family,
    comm_family,
    validate_sm,
    _check_bifunctor,
    _check_families,
)
from .report import Report

_V0, _V1, _V2, _V3 = ex.var(0), ex.var(1), ex.var(2), ex.var(3)
ACOMM_SRC = ex.op("+", ex.op("+", _V0, _V1), ex.op("+", _V2, _V3))
ACOMM_TGT = ex.op("+", ex.op("+", _V0, _V2), ex.op("+", _V1, _V3))


def acomm_family(components: dict) -> NatFamily:
    """(x+y)+(z+t) -> (x+z)+(y+t), indexed by (x, y, z, t)."""
    return NatFamily(4, components, ACOMM_SRC, ACOMM_TGT)


@dataclass
class ACStructure(SumStructure):
    """Sum bifunctor, unit, unitors and the associo-commutator family."""

    carrier: FinGroupoid
    sum_obj: dict[tuple[str, str], str]
    sum_mor: dict[tuple[str, str], str]
    unit: str
    acomm: NatFamily
    lunit: NatFamily
    runit: NatFamily
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def families(self) -> dict[str, NatFamily]:
        return {"b": self.acomm, "l": self.lunit, "r": self.runit}


def ac1_legs(a: ACStructure):
    b, so, sm = a.acomm.components, a.sum_obj, a.sum_mor

    def legs(idx):
        x, y, z, t, x2, y2, z2, t2 = idx
        xy, zt = so[(x, y)], so[(z, t)]
        xy2, zt2 = so[(x2, y2)], so[(z2, t2)]
        xz, yt = so[(x, z)], so[(y, t)]
        xz2, yt2 = so[(x2, z2)], so[(y2, t2)]
        left = [
            sm[(b[(x, z, x2, z2)], b[(y, t, y2, t2)])],
            b[(xz, yt, xz2, yt2)],
            sm[(b[(x, y, z, t)], b[(x2, y2, z2, t2)])],
        ]
        right = [
            b[(so[(x, x2)], so[(y, y2)], so[(z, z2)], so[(t, t2)])],
            sm[(b[(x, y, x2, y2)], b[(z, t, z2, t2)])],
            b[(xy, zt, xy2, zt2)],
        ]
        return left, right

    return legs


def ac2_legs(a: ACStructure, which: str):
    b, l, r = a.acomm.components, a.lunit.components, a.runit.components
    so, sm, ident, unit = a.sum_obj, a.sum_mor, a.carrier.identity, a.unit

    def legs(idx):
        x, y = idx
        xy = so[(x, y)]
        if which == "right-units":
            left = [r[(xy,)], sm[(ident[xy], l[(unit,)])], b[(x, unit, y, unit)]]
            right = [sm[(r[(x,)], r[(y,)])]]
        elif which == "left-units":
            left = [l[(xy,)], sm[(r[(unit,)], ident[xy])], b[(unit, x, unit, y)]]
            right = [sm[(l[(x,)], l[(y,)])]]
        elif which == "units-right":
            left = [sm[(r[(x,)], r[(y,)])], b[(x, y, unit, unit)]]
            right = [r[(xy,)], sm[(ident[xy], l[(unit,)])]]
        else:  # units-left
            left = [sm[(l[(x,)], l[(y,)])], b[(unit, unit, x, y)]]
            right = [l[(xy,)], sm[(r[(unit,)], ident[xy])]]
        return left, right

    return legs


def ac3_legs(a: ACStructure):
    b, so, ident, unit = a.acomm.components, a.sum_obj, a.carrier.identity, a.unit

    def legs(idx):
        x, y = idx
        src = so[(so[(x, unit)], so[(unit, y)])]
        return [b[(x, unit, unit, y)]], [ident[src]]

    return legs


def validate_ac(
    a: ACStructure,
    *,
    check_data: bool = True,
    sample: int | None = None,
    seed: int = 0,
    allow_strict_skip: bool = True,
) -> Report:
    """Run AC1 (over object 8-tuples), the four AC2 unital squares and the
    AC3 normalization equalities, plus the data-level checks by default."""
    report = Report()
    if check_data:
        _check_bifunctor(a, report)
        if report.ok:  # the family scans read the sum tables the bifunctor row checks
            _check_families(a, report)
        if not report.ok:
            return report

    gpd = a.carrier
    objs = gpd.objects_sorted
    env = a.env()

    def run(law, arity, legs_fn, fams):
        strict = ([(f, env) for f in fams], [a]) if allow_strict_skip else None
        report.add(
            check_diagram(law, gpd, objs, arity, legs_fn, sample=sample, seed=seed, strict=strict)
        )

    run("AC1", 8, ac1_legs(a), [a.acomm])
    for tag in ("right-units", "left-units", "units-right", "units-left"):
        run(f"AC2/{tag}", 2, ac2_legs(a, tag), [a.acomm, a.lunit, a.runit])
    run("AC3", 2, ac3_legs(a), [a.acomm])
    return report


# ---------------------------------------------------------------------------
# translations
# ---------------------------------------------------------------------------


def assoc_commutator_upper(m: MonStructure, x: str, y: str, z: str, t: str) -> str:
    """b(x,y,z,t) as the upper border composite:
    a(x,z,y+t) o (id + a(z,y,t)^-1) o (id + (c(y,z) + id)) o (id + a(y,z,t)) o a(x,y,z+t)^-1.
    """
    gpd, so, sm = m.carrier, m.sum_obj, m.sum_mor
    a, c, ident = m.assoc.components, m.comm.components, gpd.identity
    return compose_path(
        gpd,
        [
            a[(x, z, so[(y, t)])],
            sm[(ident[x], gpd.inv(a[(z, y, t)]))],
            sm[(ident[x], sm[(c[(y, z)], ident[t])])],
            sm[(ident[x], a[(y, z, t)])],
            gpd.inv(a[(x, y, so[(z, t)])]),
        ],
    )


def assoc_commutator_lower(m: MonStructure, x: str, y: str, z: str, t: str) -> str:
    """The lower border of the same diagram; agrees with the upper border on
    every tuple whenever the symmetric axioms hold.  Kept as an independent
    evaluator for cross-checks."""
    gpd, so, sm = m.carrier, m.sum_obj, m.sum_mor
    a, c, ident = m.assoc.components, m.comm.components, gpd.identity
    return compose_path(
        gpd,
        [
            gpd.inv(a[(so[(x, z)], y, t)]),
            sm[(a[(x, z, y)], ident[t])],
            sm[(sm[(ident[x], c[(y, z)])], ident[t])],
            sm[(gpd.inv(a[(x, y, z)]), ident[t])],
            a[(so[(x, y)], z, t)],
        ],
    )


def canonical_acomm_at(m: MonStructure, x: str, y: str, z: str, t: str) -> str:
    """Canonical associo-commutator of a symmetric structure at one tuple,
    memoized on the structure (strict structures short-circuit to the
    identity of the evaluated source object)."""
    memo = m._cache.setdefault("acomm_memo", {})
    key = (x, y, z, t)
    if key not in memo:
        if "acomm_strict" not in m._cache:
            env = m.env()
            m._cache["acomm_strict"] = strict_profile(
                m.carrier, [(m.assoc, env), (m.comm, env)], [m], uses_inverse=True
            )
        if m._cache["acomm_strict"]:
            so = m.sum_obj
            memo[key] = m.carrier.identity[so[(so[(x, y)], so[(z, t)])]]
        else:
            memo[key] = assoc_commutator_upper(m, x, y, z, t)
    return memo[key]


def to_ac(
    m: MonStructure,
    *,
    sample: int | None = None,
    seed: int = 0,
) -> ACStructure:
    """Translate a symmetric structure to its AC presentation.

    The input must pass ``validate_sm`` with a commutator present; the b
    table is the identity family for a strict input and is materialized
    from the border composite otherwise, and the output is re-checked
    against AC1-AC3 (never assumed).
    """
    validate_sm(m, sample=sample, seed=seed).require("input fails the symmetric axiom suite")
    return _translate_to_ac(m, sample, seed)


def _translate_to_ac(m: MonStructure, sample: int | None, seed: int = 0) -> ACStructure:
    """:func:`to_ac` of an input its caller has validated: the translation
    and the re-check of its output."""
    if m.comm is None:
        raise PreconditionFailed("translation needs a commutator")
    gpd, env = m.carrier, m.env()
    if strict_profile(gpd, [(m.assoc, env), (m.comm, env)], [m], uses_inverse=True):
        b_fam = identity_family(acomm_family, gpd, env)
    else:
        b_fam = acomm_family(
            {idx: assoc_commutator_upper(m, *idx) for idx in product(gpd.objects_sorted, repeat=4)}
        )
    out = ACStructure(gpd, m.sum_obj, m.sum_mor, m.unit, b_fam, m.lunit, m.runit)
    validate_ac(out, check_data=False, sample=sample, seed=seed).require("translated structure fails")
    return out


def canonical_assoc(a: ACStructure, x: str, y: str, z: str) -> str:
    """a(x,y,z) := (id + l(z)) o b(x,0,y,z) o (r(x)^-1 + id)."""
    gpd, so, sm = a.carrier, a.sum_obj, a.sum_mor
    ident, unit = gpd.identity, a.unit
    return compose_path(
        gpd,
        [
            sm[(ident[so[(x, y)]], a.lunit.components[(z,)])],
            a.acomm.components[(x, unit, y, z)],
            sm[(gpd.inv(a.runit.components[(x,)]), ident[so[(y, z)]])],
        ],
    )


def canonical_comm(a: ACStructure, x: str, y: str) -> str:
    """c(x,y) := (l(y) + r(x)) o b(0,x,y,0) o (l(x)^-1 + r(y)^-1)."""
    gpd, sm = a.carrier, a.sum_mor
    l, r, unit = a.lunit.components, a.runit.components, a.unit
    return compose_path(
        gpd,
        [
            sm[(l[(y,)], r[(x,)])],
            a.acomm.components[(unit, x, y, unit)],
            sm[(gpd.inv(l[(x,)]), gpd.inv(r[(y,)]))],
        ],
    )


def to_sm(
    a: ACStructure,
    *,
    sample: int | None = None,
    seed: int = 0,
) -> MonStructure:
    """Translate an AC structure to its symmetric presentation.

    The input must pass ``validate_ac``; the canonical associator and
    commutator are materialized and the output is re-checked against
    SC1-SC4.
    """
    validate_ac(a, sample=sample, seed=seed).require("input fails the AC axiom suite")
    return _translate_to_sm(a, sample, seed)


def _translate_to_sm(a: ACStructure, sample: int | None, seed: int = 0) -> MonStructure:
    """:func:`to_sm` of an input its caller has validated: the translation
    and the re-check of its output."""
    gpd, env = a.carrier, a.env()
    objs = gpd.objects_sorted
    if strict_profile(gpd, [(a.acomm, env), (a.lunit, env), (a.runit, env)], [a], uses_inverse=True):
        a_fam = identity_family(assoc_family, gpd, env)
        c_fam = identity_family(comm_family, gpd, env)
    else:
        a_fam = assoc_family({idx: canonical_assoc(a, *idx) for idx in product(objs, repeat=3)})
        c_fam = comm_family({idx: canonical_comm(a, *idx) for idx in product(objs, repeat=2)})
    out = MonStructure(gpd, a.sum_obj, a.sum_mor, a.unit, a_fam, c_fam, a.lunit, a.runit)
    validate_sm(out, check_data=False, sample=sample, seed=seed).require("translated structure fails")
    return out
