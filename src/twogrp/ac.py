"""AC structure: the presentation of a symmetric sum through a single
four-argument associo-commutator b(x,y,z,t): (x+y)+(z+t) -> (x+z)+(y+t),
with axioms AC1 (4x4 interchange), AC2 (unital squares) and AC3
(normalization), plus the two constructive translations:

* ``to_ac``  builds b out of a and c as the upper border composite of the
  defining diagram,
* ``to_sm``  rebuilds a and c out of b through the unit slots.

Each composite is the declared route of a law, compiled like every law;
inversion is an ``ap`` over the carrier's inverse table (a miss raises
``FinGroupoid.inv``'s error).  ``to_ac`` and the kernel read b's bindings
and upper composite from its record on the structure (``_canonical_acomm``).

Both translations validate their input and always re-check their output
(a converted structure is never assumed valid); round-tripping reproduces
the input tables exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import product

from . import expr as ex
from .diagram import strict_profile
from .errors import MalformedTable, PreconditionFailed
from .groupoid import FinGroupoid, NatFamily, _recorded, compose_path, identity_family
from .monoidal import (
    MonStructure,
    SumStructure,
    assoc_family,
    comm_family,
    validate_sm,
    _sum_suite,
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

    def families(self) -> dict[str, NatFamily]:
        return {"b": self.acomm, "l": self.lunit, "r": self.runit}


_X, _Y, _Z, _T = map(ex.var, range(4))
_add = partial(ex.op, "+")
_b, _l, _r = (partial(ex.fam, s) for s in "blr")
_0 = ex.constant("0")


def _ac1():
    x, y, z, t, x2, y2, z2, t2 = map(ex.var, range(8))
    return ex.Law(
        "AC1", 8,
        [_add(_b(x, z, x2, z2), _b(y, t, y2, t2)),
         _b(_add(x, z), _add(y, t), _add(x2, z2), _add(y2, t2)),
         _add(_b(x, y, z, t), _b(x2, y2, z2, t2))],
        [_b(_add(x, x2), _add(y, y2), _add(z, z2), _add(t, t2)),
         _add(_b(x, y, x2, y2), _b(z, t, z2, t2)),
         _b(_add(x, y), _add(z, t), _add(x2, y2), _add(z2, t2))],
    )


_XY = _add(_X, _Y)
_RIGHT_UNITS = [_r(_XY), _add(ex.ident(_XY), _l(_0))]  # (x+y)+(0+0) -> x+y
_LEFT_UNITS = [_l(_XY), _add(_r(_0), ex.ident(_XY))]  # (0+0)+(x+y) -> x+y
# the AC laws; symbols as bound by ``SumStructure.law_env``
AC_LAWS = (
    _ac1(),
    ex.Law("AC2/right-units", 2, [*_RIGHT_UNITS, _b(_X, _0, _Y, _0)], [_add(_r(_X), _r(_Y))]),
    ex.Law("AC2/left-units", 2, [*_LEFT_UNITS, _b(_0, _X, _0, _Y)], [_add(_l(_X), _l(_Y))]),
    ex.Law("AC2/units-right", 2, [_add(_r(_X), _r(_Y)), _b(_X, _Y, _0, _0)], _RIGHT_UNITS),
    ex.Law("AC2/units-left", 2, [_add(_l(_X), _l(_Y)), _b(_0, _0, _X, _Y)], _LEFT_UNITS),
    ex.Law("AC3", 2, [_b(_X, _0, _0, _Y)], [ex.ident(_add(_add(_X, _0), _add(_0, _Y)))]),
)


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
    return _sum_suite(a, AC_LAWS, check_data=check_data, sample=sample, seed=seed,
                      allow_strict_skip=allow_strict_skip)


# ---------------------------------------------------------------------------
# translations
# ---------------------------------------------------------------------------


# the translations' border composites: each the first route of a law with
# no second route, over the symbols of ``SumStructure.law_env`` and the
# carrier's inverse table as ``inv``
_inv = partial(ex.app, "inv")
_a, _c = partial(ex.fam, "a"), partial(ex.fam, "c")
# b(x,y,z,t) from a and c: the upper border of its defining diagram
ACOMM_UPPER = ex.Law("b", 4, [
    _a(_X, _Z, _add(_Y, _T)), _add(ex.ident(_X), _inv(_a(_Z, _Y, _T))),
    _add(ex.ident(_X), _add(_c(_Y, _Z), ex.ident(_T))), _add(ex.ident(_X), _a(_Y, _Z, _T)),
    _inv(_a(_X, _Y, _add(_Z, _T))),
], [])
# a(x,y,z) and c(x,y) from b and the unitors, through the unit slots
ASSOC_FROM_B = ex.Law("a", 3, [_add(ex.ident(_XY), _l(_Z)), _b(_X, _0, _Y, _Z),
                               _add(_inv(_r(_X)), ex.ident(_add(_Y, _Z)))], [])
COMM_FROM_B = ex.Law("c", 2, [_add(_l(_Y), _r(_X)), _b(_0, _X, _Y, _0), _add(_inv(_l(_X)), _inv(_r(_Y)))], [])


class _Inverses(dict):
    """The carrier's inverse table; a miss raises ``FinGroupoid.inv``'s error."""

    def __missing__(self, mid):
        raise MalformedTable(f"no inverse recorded for morphism {mid!r}")


def _route_env(s) -> dict:
    """The symbols of the border composites bound to ``s``; inversion
    preserves identities when the inverse table fixes them."""
    gpd = s.carrier
    return {**s.law_env(), "inv": (None, _Inverses(gpd.inverse), gpd.identities_preserved_by_inverse)}


def _composite(law: ex.Law, s, env: dict):
    """``law``'s route bound in ``env`` (``_route_env(s)``), composed in the
    carrier of ``s``: a function of the index tuple."""
    gpd = s.carrier
    legs = law.legs(env, gpd.identity)
    return lambda idx: compose_path(gpd, legs(idx)[0])


def assoc_commutator_upper(m: MonStructure, x: str, y: str, z: str, t: str) -> str:
    """b(x,y,z,t) as the upper border composite:
    a(x,z,y+t) o (id + a(z,y,t)^-1) o (id + (c(y,z) + id)) o (id + a(y,z,t)) o a(x,y,z+t)^-1.
    """
    return _canonical_acomm(m).upper((x, y, z, t))


class _CanonicalAcomm(dict):
    """The canonical associo-commutator of a symmetric structure, the family
    the 2-ring laws read as ``b``, with its route env: recorded on the
    structure (:func:`_canonical_acomm`), so its strict bit and upper border
    composite are built once per record, on first use.  Each component is
    computed on its first read (the identity of its source object when the
    border composite's ingredients are strict, the upper border composite
    otherwise) and memoized."""

    def __init__(self, m: MonStructure):
        super().__init__()
        self.m, self.env = m, _route_env(m)

    @property
    def components(self) -> dict:
        return self

    @cached_property
    def strict(self) -> bool:
        return strict_profile(ACOMM_UPPER, self.m.carrier, self.env)

    @cached_property
    def upper(self):
        return _composite(ACOMM_UPPER, self.m, self.env)

    def is_strict(self, gpd=None, env=None) -> bool:
        return self.strict

    def __missing__(self, key):
        x, y, z, t = key
        so = self.m.sum_obj
        value = self[key] = self.m.carrier.identity[so[so[x, y], so[z, t]]] if self.strict else self.upper(key)
        return value


def _canonical_acomm(m: MonStructure) -> _CanonicalAcomm:
    """The canonical b of ``m``, recorded on it with every table b reads
    (``SumStructure.tables``, :func:`groupoid._recorded`)."""
    return _recorded(m, "acomm", m.tables(), run=lambda: _CanonicalAcomm(m))


def canonical_acomm_at(m: MonStructure, x: str, y: str, z: str, t: str) -> str:
    """Canonical associo-commutator of a symmetric structure at one tuple,
    read from its record on the structure (strict structures short-circuit
    to the identity of the evaluated source object)."""
    return _canonical_acomm(m)[x, y, z, t]


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
    gpd, env, acomm = m.carrier, m.env(), _canonical_acomm(m)
    if acomm.strict:
        b_fam = identity_family(acomm_family, gpd, env)
    else:
        b_fam = acomm_family(gpd.product_table(4, map(acomm.upper, product(gpd.objects_sorted, repeat=4))))
    out = ACStructure(gpd, m.sum_obj, m.sum_mor, m.unit, b_fam, m.lunit, m.runit)
    validate_ac(out, check_data=False, sample=sample, seed=seed).require("translated structure fails")
    return out


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
    gpd, env, routes = a.carrier, a.env(), _route_env(a)
    objs = gpd.objects_sorted
    if all(strict_profile(law, gpd, routes) for law in (ASSOC_FROM_B, COMM_FROM_B)):
        a_fam = identity_family(assoc_family, gpd, env)
        c_fam = identity_family(comm_family, gpd, env)
    else:
        assoc, comm = _composite(ASSOC_FROM_B, a, routes), _composite(COMM_FROM_B, a, routes)
        a_fam = assoc_family(gpd.product_table(3, map(assoc, product(objs, repeat=3))))
        c_fam = comm_family(gpd.product_table(2, map(comm, product(objs, repeat=2))))
    out = MonStructure(gpd, a.sum_obj, a.sum_mor, a.unit, a_fam, c_fam, a.lunit, a.runit)
    validate_sm(out, check_data=False, sample=sample, seed=seed).require("translated structure fails")
    return out
