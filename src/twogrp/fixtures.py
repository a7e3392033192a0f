"""Deterministic fixture constructors.

Identifier scheme shared by all fixtures: objects are value strings, every
morphism id is ``"<label>|<object>"`` with label 0 the identity.  All scans
elsewhere use sorted ids, so fixture output is reproducible byte for byte.
Every identity family is built by ``groupoid.identity_family`` from the
family's declared source expression, the one strict constructor.

* ``build_dual_numbers_2group(m)``: the groupoid of truncated dual numbers
  over Z/m (objects x+ye, endomorphism labels Z/m composing by addition)
  with strict componentwise sum; a totally strict 2-group in either
  presentation.
* ``build_mult_endofunctor(m, a, b)``: multiplication by a+be as a
  structured endofunctor of that fixture.  For b != 0 (mod m) it is the
  standard separating example: it satisfies the AC functor axiom but not the
  symmetric one, and admits no zero isomorphism.
* ``build_super_line_2group()``: two objects with Z/2 endomorphisms and the
  parity commutator c(x,y) = xy; the smallest fixture whose commutator is
  not the identity.
* ``build_strict_2ring(ring)``: a finite ring's tables as a discrete,
  totally strict 2-ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .ac import ACStructure, acomm_family
from .errors import InvalidModulus, NotARing
from .groupoid import FinGroupoid, GFunctor, identity_family
from .monoidal import MonStructure, assoc_family, comm_family, lunit_family, runit_family
from .functors import StructuredFunctor, fsum_family
from .rings import TwoRingData, absorb_l_family, absorb_r_family, dist_l_family, dist_r_family


def _strict_families(gpd: FinGroupoid, sum_obj: dict, sum_mor: dict, unit: str, with_comm: bool):
    """Identity a, (c,) l, r for the sum given by the two tables."""
    env, unit_id = {"+": (sum_obj, sum_mor)}, gpd.identity[unit]
    a = identity_family(assoc_family, gpd, env)
    c = identity_family(comm_family, gpd, env) if with_comm else None
    l = identity_family(lunit_family, gpd, env, unit, unit_id)
    r = identity_family(runit_family, gpd, env, unit, unit_id)
    return a, c, l, r


# ---------------------------------------------------------------------------
# dual numbers over Z/m
# ---------------------------------------------------------------------------


def _dual_obj(x: int, y: int) -> str:
    return f"{x}+{y}e"


def _mor(label: int, obj: str) -> str:
    return f"{label}|{obj}"


@lru_cache(maxsize=None)
def _dual_carrier(m: int) -> FinGroupoid:
    objs = [_dual_obj(x, y) for x in range(m) for y in range(m)]
    mors = []
    compose = {}
    identity = {}
    inverse = {}
    for o in objs:
        for n in range(m):
            mors.append((_mor(n, o), o, o))
        identity[o] = _mor(0, o)
        for n in range(m):
            inverse[_mor(n, o)] = _mor((-n) % m, o)
            for k in range(m):
                compose[(_mor(n, o), _mor(k, o))] = _mor((n + k) % m, o)
    return FinGroupoid.build(objs, mors, compose, identity, inverse)


def _dual_sum_tables(m: int, gpd: FinGroupoid):
    def parse_obj(o: str):
        x, rest = o.split("+")
        return int(x), int(rest[:-1])

    sum_obj = {}
    for o1 in gpd.objects:
        x1, y1 = parse_obj(o1)
        for o2 in gpd.objects:
            x2, y2 = parse_obj(o2)
            sum_obj[(o1, o2)] = _dual_obj((x1 + x2) % m, (y1 + y2) % m)
    sum_mor = {}
    for f in gpd.morphisms:
        n1, o1 = f.split("|", 1)
        for g in gpd.morphisms:
            n2, o2 = g.split("|", 1)
            sum_mor[(f, g)] = _mor((int(n1) + int(n2)) % m, sum_obj[(o1, o2)])
    return sum_obj, sum_mor


@lru_cache(maxsize=None)
def build_dual_numbers_2group(m: int, presentation: str = "ac") -> ACStructure | MonStructure:
    """Totally strict 2-group on the dual numbers x+ye over Z/m.

    Objects are the m^2 ring elements, morphisms the m^3 labelled
    endomorphisms composing by label addition, the sum is componentwise and
    every structural family is the identity.  ``presentation`` picks the AC
    form (default) or its symmetric twin; both share the same carrier
    instance.  Treat the result as immutable (instances are cached).
    """
    if m < 2:
        raise InvalidModulus(f"modulus must be >= 2, got {m}")
    if presentation not in ("ac", "sm"):
        raise ValueError(f"unknown presentation {presentation!r}")
    gpd = _dual_carrier(m)
    sum_obj, sum_mor = _dual_sum_tables(m, gpd)
    unit = _dual_obj(0, 0)
    a, c, l, r = _strict_families(gpd, sum_obj, sum_mor, unit, with_comm=True)
    if presentation == "sm":
        return MonStructure(gpd, sum_obj, sum_mor, unit, a, c, l, r)
    b = identity_family(acomm_family, gpd, {"+": (sum_obj, sum_mor)})
    return ACStructure(gpd, sum_obj, sum_mor, unit, b, l, r)


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

    def parse_obj(o: str):
        x, rest = o.split("+")
        return int(x), int(rest[:-1])

    obj_map = {}
    for o in gpd.objects:
        x, y = parse_obj(o)
        obj_map[o] = _dual_obj((a * x) % m, (a * y + b * x) % m)
    mor_map = {}
    for f in gpd.morphisms:
        n, o = f.split("|", 1)
        mor_map[f] = _mor((a * int(n)) % m, obj_map[o])
    comps = {}
    for o1 in gpd.objects:
        x1, _ = parse_obj(o1)
        for o2 in gpd.objects:
            x2, _ = parse_obj(o2)
            comps[(o1, o2)] = _mor(
                (b * (x1 + x2)) % m, obj_map[structure.sum_obj[(o1, o2)]]
            )
    return StructuredFunctor(GFunctor(gpd, gpd, obj_map, mor_map), fsum_family(comps))


# ---------------------------------------------------------------------------
# super line
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def build_super_line_2group() -> MonStructure:
    """Two objects 0, 1 with Hom(x,x) = Z/2 and no cross morphisms; sum adds
    objects and labels mod 2; a, l, r are identities and c(x,y) carries the
    label x*y.  Passes the full symmetric suite with a genuinely non-identity
    commutator.  Treat the result as immutable (the instance is cached)."""
    objs = ["0", "1"]
    mors = []
    compose = {}
    identity = {}
    inverse = {}
    for o in objs:
        for n in (0, 1):
            mors.append((_mor(n, o), o, o))
        identity[o] = _mor(0, o)
        for n in (0, 1):
            inverse[_mor(n, o)] = _mor(n, o)
            for k in (0, 1):
                compose[(_mor(n, o), _mor(k, o))] = _mor((n + k) % 2, o)
    gpd = FinGroupoid.build(objs, mors, compose, identity, inverse)
    sum_obj = {
        (x, y): str((int(x) + int(y)) % 2) for x in objs for y in objs
    }
    sum_mor = {}
    for f in gpd.morphisms:
        n1, o1 = f.split("|", 1)
        for g in gpd.morphisms:
            n2, o2 = g.split("|", 1)
            sum_mor[(f, g)] = _mor((int(n1) + int(n2)) % 2, sum_obj[(o1, o2)])
    unit = "0"
    a, _, l, r = _strict_families(gpd, sum_obj, sum_mor, unit, with_comm=False)
    c = comm_family(
        {
            (x, y): _mor((int(x) * int(y)) % 2, sum_obj[(x, y)])
            for x in objs
            for y in objs
        }
    )
    return MonStructure(gpd, sum_obj, sum_mor, unit, a, c, l, r)


# ---------------------------------------------------------------------------
# strict 2-rings from finite ring tables
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
    els = {p: _dual_obj(*p) for p in pairs}
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
    and a witness tuple otherwise."""
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
    els = ring.elements
    mors = [(_mor(0, x), x, x) for x in els]
    identity = {x: _mor(0, x) for x in els}
    compose = {(identity[x], identity[x]): identity[x] for x in els}
    inverse = {identity[x]: identity[x] for x in els}
    gpd = FinGroupoid.build(els, mors, compose, identity, inverse)

    def lift(table):
        return {
            (identity[x], identity[y]): identity[table[(x, y)]]
            for x in els
            for y in els
        }

    add_obj, add_mor = dict(ring.add), lift(ring.add)
    a, c, l, r = _strict_families(gpd, add_obj, add_mor, ring.zero, with_comm=True)
    if presentation == "sm":
        add_struct: MonStructure | ACStructure = MonStructure(
            gpd, add_obj, add_mor, ring.zero, a, c, l, r
        )
    else:
        b = identity_family(acomm_family, gpd, {"+": (add_obj, add_mor)})
        add_struct = ACStructure(gpd, add_obj, add_mor, ring.zero, b, l, r)
    mul_obj, mul_mor = dict(ring.mul), lift(ring.mul)
    ax, _, lx, rx = _strict_families(gpd, mul_obj, mul_mor, ring.one, with_comm=False)
    mul_struct = MonStructure(gpd, mul_obj, mul_mor, ring.one, ax, None, lx, rx)

    ring_env = {"+": (add_obj, add_mor), "*": (mul_obj, mul_mor)}
    d = identity_family(dist_l_family, gpd, ring_env)
    e = identity_family(dist_r_family, gpd, ring_env)
    if presentation == "sm":
        m_fam = n_fam = None
    else:
        zid = identity[ring.zero]
        m_fam = identity_family(absorb_l_family, gpd, ring_env, ring.zero, zid)
        n_fam = identity_family(absorb_r_family, gpd, ring_env, ring.zero, zid)
    return TwoRingData(gpd, add_struct, mul_struct, d, e, m_fam, n_fam)
