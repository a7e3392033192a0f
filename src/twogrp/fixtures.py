"""Deterministic fixture constructors.

Every fixture lives on a labelled carrier (``_labelled_carrier``): objects
are value strings, each object ``x`` has the automorphism group Z/k with
morphism ids ``"<label>|<x>"`` (label 0 the identity, composition adding
labels mod k), and distinct objects have no morphisms between them.  A sum
or product on it is a labelled table (``_labelled_op``): the object table
comes from a :class:`RingTable`, and ``(n|x, j|y)`` goes to
``label(n, j, x, y) mod k | obj_table[x, y]``, the label sum unless the
fixture says otherwise.  All scans elsewhere use sorted ids, so fixture
output is reproducible byte for byte.  Every identity family is built by
``groupoid.identity_family`` from the family's declared source expression,
the one strict constructor.

* ``build_dual_numbers_2group(m)``: the groupoid of truncated dual numbers
  over Z/m (objects x+ye, endomorphism labels Z/m) with strict componentwise
  sum; a totally strict 2-group in either presentation.
* ``build_mult_endofunctor(m, a, b)``: multiplication by a+be as a
  structured endofunctor of that fixture.  For b != 0 (mod m) it is the
  standard separating example: it satisfies the AC functor axiom but not the
  symmetric one, and admits no zero isomorphism.
* ``build_super_line_2group()``: two objects with Z/2 endomorphisms and the
  parity commutator c(x,y) = xy; the smallest fixture whose commutator is
  not the identity.
* ``build_strict_2ring(ring)``: a finite ring's tables as a discrete (k = 1),
  totally strict 2-ring.
* ``build_derivation_2ring(m)``: the dual-numbers carrier as a 2-ring that
  passes the 2R1' suite but not 2R1, the paper's separating example.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, partial
from itertools import product
from typing import Sequence

from . import expr as ex
from .ac import ACStructure, acomm_family
from .errors import InvalidModulus, NotARing
from .groupoid import FinGroupoid, GFunctor, identity_family
from .monoidal import MonStructure, assoc_family, comm_family, lunit_family, runit_family
from .functors import StructuredFunctor, fsum_family
from .rings import TwoRingData, absorb_l_family, absorb_r_family, dist_l_family, dist_r_family


# ---------------------------------------------------------------------------
# ring tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingTable:
    """A finite unital ring as explicit element/operation tables."""

    elements: tuple[str, ...]
    add: dict[tuple[str, str], str]
    mul: dict[tuple[str, str], str]
    zero: str
    one: str


def ring_zmod(m: int) -> RingTable:
    """Z/m with elements named by their residues."""
    if m < 2:
        raise InvalidModulus(f"modulus must be >= 2, got {m}")
    els = [str(i) for i in range(m)]
    add = {(str(i), str(j)): str((i + j) % m) for i in range(m) for j in range(m)}
    mul = {(str(i), str(j)): str((i * j) % m) for i in range(m) for j in range(m)}
    return RingTable(tuple(els), add, mul, "0", "1")


def ring_dual_numbers(m: int) -> RingTable:
    """Truncated dual numbers over Z/m: elements x+ye with e^2 = 0."""
    if m < 2:
        raise InvalidModulus(f"modulus must be >= 2, got {m}")
    pairs = [(x, y) for x in range(m) for y in range(m)]
    els = {p: f"{p[0]}+{p[1]}e" for p in pairs}
    add = {}
    mul = {}
    for x1, y1 in pairs:
        for x2, y2 in pairs:
            add[(els[(x1, y1)], els[(x2, y2)])] = els[((x1 + x2) % m, (y1 + y2) % m)]
            mul[(els[(x1, y1)], els[(x2, y2)])] = els[
                ((x1 * x2) % m, (x1 * y2 + x2 * y1) % m)
            ]
    return RingTable(tuple(els.values()), add, mul, els[(0, 0)], els[(1, 0)])


def check_ring_table(ring: RingTable) -> None:
    """Verify the ring laws, raising :class:`NotARing` with the failing law
    and a witness tuple otherwise.  The laws are compared as columns
    (:func:`_ring_laws_hold`); only when one fails does the loop below run,
    law by law and tuple by tuple, to name the first failure."""
    if _ring_laws_hold(ring):
        return
    els = ring.elements
    add, mul = ring.add, ring.mul
    for x in els:
        if add[(ring.zero, x)] != x or add[(x, ring.zero)] != x:
            raise NotARing("additive-unit", (x,))
        if mul[(ring.one, x)] != x or mul[(x, ring.one)] != x:
            raise NotARing("multiplicative-unit", (x,))
        if not any(add[(x, y)] == ring.zero for y in els):
            raise NotARing("additive-inverse", (x,))
    for x in els:
        for y in els:
            if add[(x, y)] != add[(y, x)]:
                raise NotARing("additive-commutativity", (x, y))
            for z in els:
                if add[(add[(x, y)], z)] != add[(x, add[(y, z)])]:
                    raise NotARing("additive-associativity", (x, y, z))
                if mul[(mul[(x, y)], z)] != mul[(x, mul[(y, z)])]:
                    raise NotARing("multiplicative-associativity", (x, y, z))
                if mul[(x, add[(y, z)])] != add[(mul[(x, y)], mul[(x, z)])]:
                    raise NotARing("left-distributivity", (x, y, z))
                if mul[(add[(x, y)], z)] != add[(mul[(x, z)], mul[(y, z)])]:
                    raise NotARing("right-distributivity", (x, y, z))


def _ring_laws_hold(ring: RingTable) -> bool:
    """Whether every ring law holds: each law's two sides as columns over
    the tuples of ``ring.elements`` (``expr.column_obj``), and each row of
    the sum's column holding the zero.  A lookup that misses is False."""
    els, n = ring.elements, len(ring.elements)
    env = {"+": (ring.add, {}), "*": (ring.mul, {})}
    add, mul = partial(ex.op, "+"), partial(ex.op, "*")
    zero, one = ex.const(ring.zero, ""), ex.const(ring.one, "")
    x, y, z = map(ex.var, range(3))
    sides = ((1, add(zero, x), x), (1, add(x, zero), x), (1, mul(one, x), x), (1, mul(x, one), x),
             (2, add(x, y), add(y, x)),
             (3, add(add(x, y), z), add(x, add(y, z))), (3, mul(mul(x, y), z), mul(x, mul(y, z))),
             (3, mul(x, add(y, z)), add(mul(x, y), mul(x, z))), (3, mul(add(x, y), z), add(mul(x, z), mul(y, z))))
    column = lambda arity, term: list(ex.column_obj(term, env, els, arity))
    try:
        sums = column(2, add(x, y))
        return (all(ring.zero in sums[i:i + n] for i in range(0, n * n, n))
                and all(column(arity, left) == column(arity, right) for arity, left, right in sides))
    except KeyError:
        return False


# ---------------------------------------------------------------------------
# labelled carriers and their tables
# ---------------------------------------------------------------------------


def _labelled_carrier(objs: Sequence[str], k: int) -> FinGroupoid:
    """Objects ``objs``, Hom(x,x) = Z/k with ids ``<label>|<x>`` composing by
    label addition, label 0 the identity; no morphism joins two objects."""
    ids = {(n, x): f"{n}|{x}" for x in objs for n in range(k)}
    return FinGroupoid.build(
        objs,
        [(f, x, x) for (_, x), f in ids.items()],
        {(f, ids[j, x]): ids[(n + j) % k, x] for (n, x), f in ids.items() for j in range(k)},
        {x: ids[0, x] for x in objs},
        {f: ids[-n % k, x] for (n, x), f in ids.items()},
    )


def _label_sum(n: int, j: int, x: str, y: str) -> int:
    return n + j


def _labelled_op(gpd: FinGroupoid, obj_table: dict, k: int, label=_label_sum) -> dict:
    """The morphism table ``(n|x, j|y) -> label(n, j, x, y) mod k | obj_table[x, y]``
    of a binary operation on the labelled carrier ``gpd``."""
    mors = [(int(n), x, f) for f in gpd.morphisms for n, x in (f.split("|", 1),)]
    return {
        (f, g): f"{label(n, j, x, y) % k}|{obj_table[x, y]}" for n, x, f in mors for j, y, g in mors
    }


def _strict_monoidal(gpd: FinGroupoid, obj_table: dict, mor_table: dict, unit: str, kind: str):
    """The structure with the given tables and identity families, in the
    ``kind`` presentation: ``sm``, ``ac`` or ``mul`` (no commutator)."""
    env, unit_id = {"+": (obj_table, mor_table)}, gpd.identity[unit]
    l = identity_family(lunit_family, gpd, env, unit, unit_id)
    r = identity_family(runit_family, gpd, env, unit, unit_id)
    if kind == "ac":
        return ACStructure(gpd, obj_table, mor_table, unit, identity_family(acomm_family, gpd, env), l, r)
    a = identity_family(assoc_family, gpd, env)
    c = identity_family(comm_family, gpd, env) if kind == "sm" else None
    return MonStructure(gpd, obj_table, mor_table, unit, a, c, l, r)


def _labelled_2ring(ring: RingTable, k: int, presentation: str = "sm", label=_label_sum) -> TwoRingData:
    """``ring`` on the labelled carrier with Hom(x,x) = Z/k: the sum adds
    labels, the product labels by ``label``, and every structural family
    (absorbers too, in the AC presentation) is the identity."""
    gpd = _labelled_carrier(ring.elements, k)
    add_obj, mul_obj = dict(ring.add), dict(ring.mul)
    add = _strict_monoidal(gpd, add_obj, _labelled_op(gpd, add_obj, k), ring.zero, presentation)
    mul = _strict_monoidal(gpd, mul_obj, _labelled_op(gpd, mul_obj, k, label), ring.one, "mul")
    env = {"+": (add_obj, add.sum_mor), "*": (mul_obj, mul.sum_mor)}
    fams = [identity_family(make, gpd, env) for make in (dist_l_family, dist_r_family)]
    if presentation == "ac":
        zero_id = gpd.identity[ring.zero]
        fams += [identity_family(make, gpd, env, ring.zero, zero_id)
                 for make in (absorb_l_family, absorb_r_family)]
    return TwoRingData(gpd, add, mul, *fams)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def build_dual_numbers_2group(m: int, presentation: str = "ac") -> ACStructure | MonStructure:
    """Totally strict 2-group on the dual numbers x+ye over Z/m.

    Objects are the m^2 ring elements, morphisms the m^3 labelled
    endomorphisms composing by label addition, the sum is componentwise and
    every structural family is the identity.  ``presentation`` picks the AC
    form (default) or its symmetric twin; both share the same carrier and
    sum tables.  Treat the result as immutable (instances are cached).
    """
    if m < 2:
        raise InvalidModulus(f"modulus must be >= 2, got {m}")
    if presentation not in ("ac", "sm"):
        raise ValueError(f"unknown presentation {presentation!r}")
    if presentation == "ac":
        sm = build_dual_numbers_2group(m, "sm")
        return _strict_monoidal(sm.carrier, sm.sum_obj, sm.sum_mor, sm.unit, "ac")
    ring = ring_dual_numbers(m)
    gpd = _labelled_carrier(ring.elements, m)
    return _strict_monoidal(gpd, ring.add, _labelled_op(gpd, ring.add, m), ring.zero, "sm")


def build_mult_endofunctor(
    m: int, a: int, b: int, structure: ACStructure | MonStructure | None = None
) -> StructuredFunctor:
    """Multiplication by a+be on the dual-numbers fixture, as a structured
    endofunctor without a zero isomorphism:

        F(x+ye)      = ax + (ay+bx)e
        F(n, x+ye)   = (an, F(x+ye))
        F_+(u, v)    = label b(x+x') at F(u+v)   for u=x+ye, v=x'+y'e

    Natural and functorial for every (a, b); the monoidality family is
    compatible with the AC axiom for every (a, b) but with the symmetric one
    only when b == 0 (mod m).
    """
    if m < 2:
        raise InvalidModulus(f"modulus must be >= 2, got {m}")
    if structure is None:
        structure = build_dual_numbers_2group(m)
    gpd = structure.carrier
    a %= m
    b %= m
    mul = ring_dual_numbers(m).mul
    obj_map = {o: mul[f"{a}+{b}e", o] for o in gpd.objects}
    mor_map = {f: f"{a * int(n) % m}|{obj_map[o]}" for f in gpd.morphisms for n, o in (f.split("|", 1),)}
    re = {o: int(o.split("+", 1)[0]) for o in gpd.objects}
    comps = {
        (o1, o2): f"{b * (re[o1] + re[o2]) % m}|{obj_map[structure.sum_obj[o1, o2]]}"
        for o1, o2 in product(gpd.objects, repeat=2)
    }
    return StructuredFunctor(GFunctor(gpd, gpd, obj_map, mor_map), fsum_family(comps))


@lru_cache(maxsize=None)
def build_super_line_2group() -> MonStructure:
    """Two objects 0, 1 with Hom(x,x) = Z/2 and no cross morphisms; sum adds
    objects and labels mod 2; a, l, r are identities and c(x,y) carries the
    label x*y.  Passes the full symmetric suite with a genuinely non-identity
    commutator.  Treat the result as immutable (the instance is cached)."""
    ring = ring_zmod(2)
    gpd = _labelled_carrier(ring.elements, 2)
    s = _strict_monoidal(gpd, ring.add, _labelled_op(gpd, ring.add, 2), ring.zero, "sm")
    c = {(x, y): f"{int(x) * int(y)}|{ring.add[x, y]}" for x, y in product(ring.elements, repeat=2)}
    return replace(s, comm=comm_family(c))


def build_strict_2ring(ring: RingTable, presentation: str = "sm") -> TwoRingData:
    """A finite ring's tables as a totally strict 2-ring on the discrete
    groupoid of its elements (all structural families identity).

    In the symmetric presentation the data is the bare 5-tuple (no
    absorbers); the AC presentation carries identity absorbers.  The input
    tables are checked against the ring laws first.
    """
    if presentation not in ("ac", "sm"):
        raise ValueError(f"unknown presentation {presentation!r}")
    check_ring_table(ring)
    return _labelled_2ring(ring, 1, presentation)


def build_derivation_2ring(m: int) -> TwoRingData:
    """The 2-ring that separates the two notions: the dual-numbers carrier
    over Z/m (objects x0+x1e, Hom(x,x) = Z/m) with its strict sum, the
    dual-number product on objects and (k|u)*(l|v) = (k*v0 + u0*l)|uv on
    morphisms, every structural family the identity except d(x,y,z), which
    carries the label x1*(y0+z0) at x(y+z).  It passes the 2R1' suite but
    not 2R1 (the first failure is 2R1/left-assoc), and x*- has no zero
    isomorphism where x1 != 0."""
    ring = ring_dual_numbers(m)
    parts = {o: tuple(int(v) for v in o[:-1].split("+")) for o in ring.elements}
    strict = _labelled_2ring(ring, m, label=lambda n, j, x, y: n * parts[y][0] + parts[x][0] * j)
    d = {
        (x, y, z): f"{parts[x][1] * (parts[y][0] + parts[z][0]) % m}|{ring.mul[x, ring.add[y, z]]}"
        for x, y, z in product(ring.elements, repeat=3)
    }
    return replace(strict, dist_l=dist_l_family(d))
