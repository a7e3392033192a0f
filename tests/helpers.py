"""Shared test fixtures, perturbation utilities and small oracles."""

from __future__ import annotations

import random
from dataclasses import replace
from functools import partial
from itertools import product

from twogrp import (
    FinGroupoid,
    GFunctor,
    MalformedTable,
    MonStructure,
    PresentationMismatch,
    Report,
    StructuredFunctor,
    build_derivation_2ring,
    build_strict_2ring,
    canonical_zero_iso,
    compose_path,
    ring_zmod,
)
from twogrp import expr as ex
from twogrp.diagram import check_diagram
from twogrp.fixtures import _labelled_2ring, _labelled_carrier, _labelled_op, _strict_monoidal
from twogrp.functors import check_fsum_naturality, fsum_family
from twogrp.groupoid import identity_family, validate_functor
from twogrp.monoidal import basic_unitor
from twogrp.rings import _law_env as ring_law_env, dist_l_family

SEED = 20250811


# ---------------------------------------------------------------------------
# small groupoids and structures
# ---------------------------------------------------------------------------


def cyclic_one_object(m: int) -> FinGroupoid:
    """One object "*" with endomorphisms Z/m composing by addition."""
    mors = [(str(k), "*", "*") for k in range(m)]
    compose = {(str(g), str(f)): str((g + f) % m) for g in range(m) for f in range(m)}
    identity = {"*": "0"}
    inverse = {str(k): str((-k) % m) for k in range(m)}
    return FinGroupoid.build(["*"], mors, compose, identity, inverse)


def discrete(objects: list[str]) -> FinGroupoid:
    """The labelled carrier with trivial automorphism groups: ids ``0|x``."""
    return _labelled_carrier(objects, 1)


def pair_groupoid_z2() -> FinGroupoid:
    """Connected groupoid on objects a, b: every hom-set has two morphisms
    labelled by Z/2, composition adds labels.  The smallest carrier on which
    a family component flip can genuinely break a naturality square."""
    objs = ["a", "b"]
    mors = []
    compose = {}
    for s in objs:
        for d in objs:
            for k in (0, 1):
                mors.append((f"{k}|{s}{d}", s, d))
    for s in objs:
        for mid in objs:
            for d in objs:
                for k1 in (0, 1):
                    for k2 in (0, 1):
                        compose[(f"{k1}|{mid}{d}", f"{k2}|{s}{mid}")] = f"{(k1 + k2) % 2}|{s}{d}"
    identity = {o: f"0|{o}{o}" for o in objs}
    inverse = {f"{k}|{s}{d}": f"{k}|{d}{s}" for s in objs for d in objs for k in (0, 1)}
    return FinGroupoid.build(objs, mors, compose, identity, inverse)


def one_object_2group(m: int) -> MonStructure:
    """The one-object strict 2-group with endomorphism labels Z/m (ids
    ``k|*``), labels adding under the sum."""
    gpd = _labelled_carrier(["*"], m)
    sum_obj = {("*", "*"): "*"}
    return _strict_monoidal(gpd, sum_obj, _labelled_op(gpd, sum_obj, m), "*", "sm")


def strict_cyclic_2group(m: int) -> MonStructure:
    """Discrete strict 2-group on Z/m (the additive half of the strict ring)."""
    return build_strict_2ring(ring_zmod(m)).add


def max_monoid_structure() -> MonStructure:
    """Discrete symmetric structure with sum = max on {0,1,2}: valid and
    strict, but objects 1 and 2 have no weak inverse."""
    objs = ["0", "1", "2"]
    gpd = discrete(objs)
    sum_obj = {(x, y): max(x, y) for x in objs for y in objs}
    return _strict_monoidal(gpd, sum_obj, _labelled_op(gpd, sum_obj, 1), "0", "sm")


def constant_zero_endofunctor(m: MonStructure) -> StructuredFunctor:
    """The endomorphism sending everything to the unit."""
    gpd = m.carrier
    unit_id = gpd.identity[m.unit]
    base = GFunctor(gpd, gpd, {x: m.unit for x in gpd.objects}, {f: unit_id for f in gpd.morphisms})
    comps = {(x, y): basic_unitor(m) for x in gpd.objects for y in gpd.objects}
    return StructuredFunctor(base, fsum_family(comps), unit_id)


def with_canonical_zero(fun: StructuredFunctor, src: MonStructure, tgt: MonStructure) -> StructuredFunctor:
    return fun.with_zero(canonical_zero_iso(fun, src, tgt))


def coboundary_twisted_dual_numbers(m: int = 3, seed: int = 1) -> MonStructure:
    """The symmetric dual-numbers 2-group twisted by the coboundary of a
    normalized 2-cochain kappa (kappa(0,y) = kappa(x,0) = 0, the other values
    drawn by ``random.Random(seed).randrange(m)`` over object pairs in sorted
    order): a(x,y,z) carries the label kappa(y,z) - kappa(x+y,z) +
    kappa(x,y+z) - kappa(x,y) and c(x,y) the label kappa(x,y) - kappa(y,x).
    Valid, and not strict."""
    from twogrp import build_dual_numbers_2group
    from twogrp.monoidal import assoc_family, comm_family

    base = build_dual_numbers_2group(m, "sm")
    objs, add, unit = base.carrier.objects_sorted, base.sum_obj, base.unit
    rng = random.Random(seed)
    kappa = {(x, y): 0 if unit in (x, y) else rng.randrange(m) for x, y in product(objs, repeat=2)}

    def label(k, obj):
        return f"{k % m}|{obj}"

    a = {
        (x, y, z): label(kappa[y, z] - kappa[add[x, y], z] + kappa[x, add[y, z]] - kappa[x, y],
                         add[x, add[y, z]])
        for x, y, z in product(objs, repeat=3)
    }
    c = {(x, y): label(kappa[x, y] - kappa[y, x], add[x, y]) for x, y in product(objs, repeat=2)}
    return MonStructure(base.carrier, add, base.sum_mor, unit, assoc_family(a), comm_family(c),
                        base.lunit, base.runit)


def parity_2ring(m: int):
    """The strict 2-ring on Z/m (m even) whose every object carries the
    automorphisms {0, 1}: labels add under the sum, and the product sends
    (k|x, l|y) to (k*y + x*l mod 2)|xy.  All structural families are
    identities; the carrier is not discrete, so a flipped component breaks
    axioms without breaking endpoints or naturality."""
    return _labelled_2ring(ring_zmod(m), 2, label=lambda k, l, x, y: k * int(y) + int(x) * l)


def strict_derivation_2ring(m: int):
    """``build_derivation_2ring(m)`` with d the identity: a strict 2-ring,
    the control showing that the derivation label on d alone separates the
    two notions."""
    ring = build_derivation_2ring(m)
    return replace(ring, dist_l=identity_family(dist_l_family, ring.carrier, ring.env()), _cache={})


# ---------------------------------------------------------------------------
# reference evaluators of endpoint expressions and laws
# ---------------------------------------------------------------------------


def eval_obj(expr, env, args):
    """The object ``expr`` denotes at ``args``, node by node: the oracle the
    compiled closures of ``twogrp.expr`` are held to, values and error
    texts alike."""
    return _eval(expr, env, args, 0)


def eval_mor(expr, env, args):
    """The morphism ``expr`` denotes at the morphism tuple ``args``."""
    return _eval(expr, env, args, 1)


def law_legs(law, env, identity):
    """The routes of ``law`` at an index tuple, interpreted node by node: the
    oracle ``Law.legs`` is held to, leg lists and missing entries alike."""
    def legs(idx):
        return ([_eval(t, env, idx, 1, identity) for t in law.left],
                [_eval(t, env, idx, 1, identity) for t in law.right])
    return legs


def _eval(expr, env, args, level, identity=None):
    """With ``identity`` (the carrier's identity table) the terms are a
    law's, whose lookups raise the bare ``KeyError`` of the missing entry."""
    tag = expr[0]
    if tag == "v":
        return args[expr[1]]
    if tag == "k":
        return expr[1 + level]
    if tag == "c":
        return env[expr[1]][level]
    if tag == "id":
        return identity[_eval(expr[1], env, args, 0, identity)]
    if tag == "fam":
        key = tuple(_eval(e, env, args, 0, identity) for e in expr[2:])
        return env[expr[1]][0].components[key]
    try:
        table = env[expr[1]][level]
        if tag == "op":
            return table[(_eval(expr[2], env, args, level, identity),
                          _eval(expr[3], env, args, level, identity))]
        return table[_eval(expr[2], env, args, level, identity)]
    except KeyError as exc:
        if identity is not None:
            raise
        kind = ("object", "morphism")[level]
        raise MalformedTable(f"{kind} table {expr[1]!r} undefined at {exc}") from exc


# ---------------------------------------------------------------------------
# independent evaluators of the distributivity and border diagrams
# ---------------------------------------------------------------------------


def _classical_laws():
    x, y, z, t = map(ex.var, range(4))
    a, c, d, e = (partial(ex.fam, s) for s in "acde")
    add, mul = partial(ex.op, "+"), partial(ex.op, "*")
    idn = ex.ident
    return (
        ex.Law("d-assoc", 4,
               [d(x, add(y, z), t), add(d(x, y, z), idn(mul(x, t))), a(mul(x, y), mul(x, z), mul(x, t))],
               [mul(idn(x), a(y, z, t)), d(x, y, add(z, t)), add(idn(mul(x, y)), d(x, z, t))]),
        ex.Law("e-assoc", 4,
               [e(add(x, y), z, t), add(e(x, y, t), idn(mul(z, t))), a(mul(x, t), mul(y, t), mul(z, t))],
               [mul(a(x, y, z), idn(t)), e(x, add(y, z), t), add(idn(mul(x, t)), e(y, z, t))]),
        ex.Law("d-comm", 3, [mul(idn(x), c(y, z)), d(x, y, z)], [d(x, z, y), c(mul(x, y), mul(x, z))]),
        # over the tuples (y, z, x)
        ex.Law("e-comm", 3, [mul(c(x, y), idn(z)), e(x, y, z)], [e(y, x, z), c(mul(x, z), mul(y, z))]),
    )


CLASSICAL_LAWS = _classical_laws()


def quang_distributivity_diagrams(ring, *, sample=None, seed=0) -> Report:
    """The four classical distributivity coherence diagrams, run through the
    engine: the independent evaluator of 2R1, whose SF1/SF2 rows of the
    multiplication endofunctors must agree with them law by law."""
    if ring.presentation != "sm":
        raise PresentationMismatch("additive structure is in AC form; convert first")
    gpd, env = ring.carrier, ring_law_env(ring)
    report = Report()
    for law in CLASSICAL_LAWS:
        report.add(check_diagram(law, gpd, gpd.objects_sorted, env, sample=sample, seed=seed))
    return report


def assoc_commutator_lower(m, x, y, z, t):
    """The lower border of the diagram defining b; agrees with
    ``assoc_commutator_upper`` on every tuple whenever the symmetric axioms
    hold."""
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


# ---------------------------------------------------------------------------
# perturbation utilities
# ---------------------------------------------------------------------------


def perturb_family(fam, index: tuple[str, ...], new_mor: str):
    comps = dict(fam.components)
    comps[index] = new_mor
    return replace(fam, components=comps, _cache={})


def parallel_morphisms(gpd: FinGroupoid, mid: str) -> list[str]:
    """Other morphisms with the same endpoints, canonical order."""
    m = gpd.morphisms[mid]
    return [o for o in gpd.hom(m.src, m.dst) if o != mid]


def random_flip(gpd: FinGroupoid, fam, rng: random.Random):
    """Replace one component by a different morphism: a parallel one when the
    carrier has any, otherwise a different object's identity (which breaks
    the component's endpoints; checkers must still report, not crash)."""
    idx = rng.choice(sorted(fam.components))
    old = fam.components[idx]
    alts = parallel_morphisms(gpd, old)
    if alts:
        new = rng.choice(alts)
    else:
        others = [i for i in gpd.identity.values() if i != old]
        new = rng.choice(others)
    return perturb_family(fam, idx, new), idx


# ---------------------------------------------------------------------------
# exhaustive endofunctor enumeration (small carriers only)
# ---------------------------------------------------------------------------


def all_structured_endofunctors(m: MonStructure) -> list[StructuredFunctor]:
    """Every (F, F_+) pair on a small structure: all object maps, all
    endpoint-compatible morphism maps that are functorial, all
    endpoint-compatible monoidality families that are natural."""
    gpd = m.carrier
    objs = gpd.objects_sorted
    mors = gpd.morphisms_sorted
    out = []
    for obj_choice in product(objs, repeat=len(objs)):
        obj_map = dict(zip(objs, obj_choice))
        candidates = []
        for f in mors:
            mf = gpd.morphisms[f]
            cands = gpd.hom(obj_map[mf.src], obj_map[mf.dst])
            if not cands:
                break
            candidates.append(cands)
        else:
            for mor_choice in product(*candidates):
                base = GFunctor(gpd, gpd, obj_map, dict(zip(mors, mor_choice)))
                if not validate_functor(base).ok:
                    continue
                fsum_cands = []
                pairs = list(product(objs, repeat=2))
                for x, y in pairs:
                    cands = gpd.hom(
                        m.sum_obj[(obj_map[x], obj_map[y])], obj_map[m.sum_obj[(x, y)]]
                    )
                    if not cands:
                        break
                    fsum_cands.append(cands)
                else:
                    for comp_choice in product(*fsum_cands):
                        fun = StructuredFunctor(base, fsum_family(dict(zip(pairs, comp_choice))))
                        if check_fsum_naturality(fun, m, m).ok:
                            out.append(fun)
    return out
