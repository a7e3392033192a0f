"""Shared test fixtures, perturbation utilities and small oracles."""

from __future__ import annotations

import random
from dataclasses import fields, is_dataclass, replace
from functools import partial
from itertools import product

from twogrp import (
    ArityMismatch,
    FinGroupoid,
    GFunctor,
    MalformedTable,
    MonStructure,
    PresentationMismatch,
    Report,
    StructuredFunctor,
    build_derivation_2ring,
    build_dual_numbers_2group,
    build_mult_endofunctor,
    build_strict_2ring,
    build_super_line_2group,
    canonical_zero_iso,
    compose_path,
    ring_dual_numbers,
    ring_zmod,
    to_ac,
    validate_ac_functor,
)
from twogrp import expr as ex
from twogrp.ac import AC_LAWS
from twogrp.diagram import check_diagram, strict_profile
from twogrp.fixtures import _labelled_2ring, _labelled_carrier, _labelled_op, _strict_monoidal
from twogrp.functors import (
    AF1,
    SF1,
    SF2,
    T1,
    UNIT_SQUARES,
    _law_env as functor_law_env,
    check_fsum_naturality,
    fsum_family,
    tau_family,
)
from twogrp.errors import StructureError
from twogrp.groupoid import NatFamily, _first_failure, identity_family, index_space, validate_functor
from twogrp.monoidal import SM_LAWS, basic_unitor
from twogrp.report import Report, Status, Witness
from twogrp.rings import (
    AC_RING_LAWS,
    COMMON_LAWS,
    JP_LAWS,
    QUANG_LAWS,
    _law_env as ring_law_env,
    dist_l_family,
    dist_r_family,
)

SEED = 20250811


def fresh(*objs):
    """Copies of ``objs`` with every memo empty, sharing their tables: each
    dataclass field that holds a structure, family, functor or carrier is
    copied the same way, and an object shared in the graph stays shared."""
    seen = {}

    def copy(obj):
        if id(obj) not in seen:
            parts = {f.name: copy(v) for f in fields(obj) if f.name != "_cache"
                     and is_dataclass(v := getattr(obj, f.name)) and not isinstance(v, type)}
            if any(f.name == "_cache" for f in fields(obj)):
                parts["_cache"] = {}
            seen[id(obj)] = replace(obj, **parts)
        return seen[id(obj)]

    return tuple(map(copy, objs))


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


def _kappa(objs, unit, m: int, seed: int) -> dict:
    """The normalized 2-cochain of the twisted fixtures: kappa(0,y) =
    kappa(x,0) = 0, the other values drawn by ``random.Random(seed).randrange(m)``
    over object pairs in sorted order."""
    rng = random.Random(seed)
    return {(x, y): 0 if unit in (x, y) else rng.randrange(m) for x, y in product(objs, repeat=2)}


def coboundary_twisted_dual_numbers(m: int = 3, seed: int = 1) -> MonStructure:
    """The symmetric dual-numbers 2-group twisted by the coboundary of a
    normalized 2-cochain kappa (``_kappa``): a(x,y,z) carries the label
    kappa(y,z) - kappa(x+y,z) + kappa(x,y+z) - kappa(x,y) and c(x,y) the
    label kappa(x,y) - kappa(y,x).  Valid, and not strict."""
    from twogrp.monoidal import assoc_family, comm_family

    base = build_dual_numbers_2group(m, "sm")
    objs, add, unit = base.carrier.objects_sorted, base.sum_obj, base.unit
    kappa = _kappa(objs, unit, m, seed)

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


def relabelled(s: MonStructure, prefix: str) -> MonStructure:
    """A copy of the symmetric structure ``s`` whose every object and
    morphism id is ``prefix`` followed by its id: the same tables on a
    carrier that shares no id with ``s``'s."""
    gpd, pre = s.carrier, lambda i: prefix + i
    keyed = lambda table: {tuple(map(pre, k)): pre(v) for k, v in table.items()}  # noqa: E731
    renamed = lambda table: {pre(k): pre(v) for k, v in table.items()}  # noqa: E731
    mors = [(pre(f), pre(m.src), pre(m.dst)) for f, m in gpd.morphisms.items()]
    carrier = FinGroupoid.build(map(pre, gpd.objects), mors, keyed(gpd.compose), renamed(gpd.identity),
                                renamed(gpd.inverse))
    fams = [replace(f, components=keyed(f.components), _cache={}) for f in (s.assoc, s.comm, s.lunit, s.runit)]
    return MonStructure(carrier, keyed(s.sum_obj), keyed(s.sum_mor), pre(s.unit), *fams)


def from_relabelled(fun: StructuredFunctor, src: MonStructure, prefix: str) -> StructuredFunctor:
    """``fun`` with its source replaced by ``src``, the ``relabelled`` copy
    of it under ``prefix``: a functor between two different carriers."""
    base = GFunctor(src.carrier, fun.base.target, {prefix + x: y for x, y in fun.base.obj_map.items()},
                    {prefix + f: g for f, g in fun.base.mor_map.items()})
    comps = {tuple(prefix + x for x in k): v for k, v in fun.fsum.components.items()}
    return StructuredFunctor(base, fsum_family(comps), fun.fzero)


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


def kappa_twisted_2ring(m: int, separating: bool, sign: int = 1):
    """``strict_derivation_2ring(m)`` with the additive half
    ``coboundary_twisted_dual_numbers(m)`` (on the ring's carrier) and the
    distributors twisted by the same kappa: d(x,y,z) carries the label
    sign*(kappa(xy,xz) - x0*kappa(y,z)), plus x1*(y0+z0) when
    ``separating``, and e(x,y,z) the label sign*(kappa(xz,yz) - z0*kappa(x,y)),
    labels mod m.  With sign 1 the ring is coherent (a, c, d and e all
    non-identity), and the separating one passes JP but not Quang."""
    ring = strict_derivation_2ring(m)
    add = replace(coboundary_twisted_dual_numbers(m), carrier=ring.carrier)
    objs, plus, times = ring.carrier.objects_sorted, add.sum_obj, ring.mul.sum_obj
    kappa = _kappa(objs, add.unit, m, 1)
    parts = {o: tuple(int(v) for v in o[:-1].split("+")) for o in objs}
    d, e = {}, {}
    for x, y, z in product(objs, repeat=3):
        k = sign * (kappa[times[x, y], times[x, z]] - parts[x][0] * kappa[y, z])
        if separating:
            k += parts[x][1] * (parts[y][0] + parts[z][0])
        d[x, y, z] = f"{k % m}|{times[x, plus[y, z]]}"
        k = sign * (kappa[times[x, z], times[y, z]] - parts[z][0] * kappa[x, y])
        e[x, y, z] = f"{k % m}|{times[plus[x, y], z]}"
    return replace(ring, add=add, dist_l=dist_l_family(d), dist_r=dist_r_family(e))


# ---------------------------------------------------------------------------
# reference evaluators of endpoint expressions and laws
# ---------------------------------------------------------------------------


def eval_obj(expr, env, args):
    """The object ``expr`` denotes at ``args``, node by node: the oracle
    ``twogrp.expr.evaluate`` is held to, values and error texts alike."""
    return _eval(expr, env, args, 0)


def eval_mor(expr, env, args):
    """The morphism ``expr`` denotes at the morphism tuple ``args``."""
    return _eval(expr, env, args, 1)


def law_legs(law, env, identity):
    """The routes of ``law`` at an index tuple, interpreted node by node: the
    oracle ``Law.legs`` is held to, leg tuples and missing entries alike."""
    def legs(idx):
        return (tuple(_eval(t, env, idx, 1, identity) for t in law.left),
                tuple(_eval(t, env, idx, 1, identity) for t in law.right))
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


def left_mult_functor(ring, x: str) -> StructuredFunctor:
    """(x * -) with monoidality d(x,-,-)."""
    gpd = ring.carrier
    mo, mm = ring.mul.sum_obj, ring.mul.sum_mor
    idx = gpd.identity[x]
    base = GFunctor(gpd, gpd, {y: mo[(x, y)] for y in gpd.objects}, {f: mm[(idx, f)] for f in gpd.morphisms})
    comps = {(y, z): ring.dist_l.components[(x, y, z)] for y, z in product(gpd.objects, repeat=2)}
    return StructuredFunctor(base, fsum_family(comps))


def right_mult_functor(ring, z: str) -> StructuredFunctor:
    """(- * z) with monoidality e(-,-,z)."""
    gpd = ring.carrier
    mo, mm = ring.mul.sum_obj, ring.mul.sum_mor
    idz = gpd.identity[z]
    base = GFunctor(gpd, gpd, {y: mo[(y, z)] for y in gpd.objects}, {f: mm[(f, idz)] for f in gpd.morphisms})
    comps = {(u, v): ring.dist_r.components[(u, v, z)] for u, v in product(gpd.objects, repeat=2)}
    return StructuredFunctor(base, fsum_family(comps))


def quang_rows_by_functors(ring, *, sample=None, seed=0, strict=True) -> dict:
    """The four 2R1 rows as (status, instances, mode, witness), from SF1/SF2
    of the multiplication endofunctors x*- and -*x built at each fixed
    object and aggregated over the objects as the suite aggregates them,
    with the strict profile the functor laws derive: the functor-form
    oracle of ``rings.QUANG_LAWS``."""
    gpd, add = ring.carrier, ring.add
    objs = gpd.objects_sorted
    rows = {}
    for side, make, dist in (("left", left_mult_functor, ring.dist_l), ("right", right_mult_functor, ring.dist_r)):
        profile = {**add.law_env("s"), **add.law_env("t"), "F": (None, None, ring.mul.preserves_identities),
                   "F+": (dist, ring.env())}
        for tag, law in (("assoc", SF1), ("comm", SF2)):
            name = f"2R1/{side}-{tag}"
            if strict and strict_profile(law, gpd, profile):
                rows[name] = (Status.PASS, len(objs) ** (law.arity + 1), "strict-profile", None)
                continue
            total, mode, witness = 0, "exhaustive", None
            for x in objs:
                res = check_diagram(law, gpd, objs, functor_law_env(make(ring, x), add, add), sample=sample, seed=seed)
                total, mode = total + res.instances, res.mode
                if res.witness is not None:
                    witness = replace(res.witness, index=(x,) + res.witness.index)
                    break
            rows[name] = (Status.FAIL if witness else Status.PASS, total, mode, witness)
    return rows


def interchange_rows_by_functors(ring, add) -> dict:
    """The 2R1' (symmetric ring) or 2R1'' (AC ring) rows as (status,
    instances, index, witness), from AF1 and the AF2 unit squares of x*- and
    -*x built at each object, checked forced full by ``validate_ac_functor``
    over ``add``, the additive half in AC presentation: the functor-form
    oracle of ``rings.JP_LAWS`` and ``rings.AC_RING_LAWS``.  A row's index
    puts the fixed object first (x*-) or last (-*x), so its first failing
    tuple is the least over the fixed objects; the witness is the functor
    row's, whose routes the ring row states exchanged."""
    objs = ring.carrier.objects_sorted
    n = len(objs)
    prefix = "2R1-prime" if ring.presentation == "sm" else "2R1-dprime"
    forms = [("d", "AF1", 5, True), ("e", "AF1", 5, False)]
    if ring.presentation == "ac":
        forms += [(f"{zero}-{side}", f"AF2/{side}", 2, zero == "m") for zero in "mn" for side in ("left", "right")]
    reports = {}
    for first in (True, False):
        make, zeros = (left_mult_functor, ring.absorb_l) if first else (right_mult_functor, ring.absorb_r)
        for w in objs:
            fun = make(ring, w) if zeros is None else make(ring, w).with_zero(zeros.components[(w,)])
            reports[first, w] = validate_ac_functor(fun, add, add, check_data=False, allow_strict_skip=False)
    rows = {}
    for form, law, arity, first in forms:
        fails = sorted((tuple(objs.index(o) for o in ((w,) + row.witness.index if first else row.witness.index + (w,))),
                        row.witness)
                       for w in objs for row in [reports[first, w][law]] if row.status is Status.FAIL)
        if not fails:
            rows[f"{prefix}/{form}"] = (Status.PASS, n ** arity, None, None)
            continue
        rank, witness = fails[0]
        rows[f"{prefix}/{form}"] = (Status.FAIL, sum(r * n ** (arity - 1 - i) for i, r in enumerate(rank)) + 1,
                                    tuple(objs[r] for r in rank), witness)
    return rows


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
# the data rows as hand-written scans: the oracles of the declared endpoint
# and naturality laws of ``groupoid`` and the sum's interchange law
# ---------------------------------------------------------------------------


def reference_endpoints(gpd, fam, env, label="family", domain=None):
    """``validate_family`` as a scan over the index space, the tuples of
    ``domain``'s objects (by default ``gpd``'s): the report and the strict
    bit its closing test gives (False when the scan fails).  The family's
    own memo is left alone; an exception propagates."""
    for idx in fam.components:
        if len(idx) != fam.arity:
            raise ArityMismatch(f"{label}: component keyed by {idx} but arity is {fam.arity}")
    comps, mors = fam.components, gpd.morphisms
    src_at = partial(eval_obj, fam.src_expr, env)
    dst_at = partial(eval_obj, fam.tgt_expr, env)
    strict = [False]

    def scan():
        for idx in product((domain or gpd).objects_sorted, repeat=fam.arity):
            mid = comps.get(idx)
            mor = mors.get(mid)
            if mor is None:
                yield Witness(idx, note="component missing or unknown")
                return
            want_src, want_dst = src_at(idx), dst_at(idx)
            if mor.src != want_src or mor.dst != want_dst:
                yield Witness(
                    idx,
                    left=mid,
                    note=f"endpoints {mor.src}->{mor.dst} differ from declared {want_src}->{want_dst}",
                )
                return
            yield None
        used = set(comps.values())
        strict[0] = used <= set(gpd.identity.values()) and all(
            (mor := mors.get(mid)) is not None and mor.src == mor.dst and gpd.identity.get(mor.src) == mid
            for mid in used
        )

    report = Report()
    _first_failure(report, f"{label}-endpoints", scan())
    return report, strict[0]


def reference_bifunctor(m):
    """The bifunctor row as one scan: the sum's tables entry by entry, then
    every pair of ``compose`` entries in sorted order, looped in Python.
    An exception propagates."""
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
        # functoriality: (g o f) + (g' o f') == (g + g') o (f + f')
        comp = gpd.compose
        pairs = sorted(comp)
        for (g, f) in pairs:
            for (g2, f2) in pairs:
                lhs = m.sum_mor[(comp[(g, f)], comp[(g2, f2)])]
                rhs = comp.get((m.sum_mor[(g, g2)], m.sum_mor[(f, f2)]))
                if lhs != rhs:
                    yield Witness((g, f, g2, f2), left=lhs, right=rhs)
                else:
                    yield None

    report = Report()
    _first_failure(report, "bifunctor", cases())
    return report.checks[0]


def reference_naturality(fam, env, *, domain, codomain=None, sample=None, seed=0, label="naturality"):
    """``check_naturality`` as a loop over the squares, each composed by
    ``compose_path``."""
    codomain = codomain or domain
    lhs_action = partial(eval_mor, fam.src_expr, env)
    rhs_action = partial(eval_mor, fam.tgt_expr, env)
    space, _, mode = index_space(domain.morphisms_sorted, fam.arity, sample, seed)
    ends = domain.morphisms

    def squares():
        for fs in space:
            try:
                left = compose_path(codomain, [fam.at(*[ends[f].dst for f in fs]), lhs_action(fs)])
                right = compose_path(codomain, [rhs_action(fs), fam.at(*[ends[f].src for f in fs])])
            except StructureError as err:
                yield Witness(fs, note=f"square does not typecheck: {err}")
                return
            if left != right:
                yield Witness(fs, left=left, right=right)
            else:
                yield None

    report = Report()
    _first_failure(report, label, squares())
    return Report([replace(row, mode=mode) for row in report.checks])


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


def on_carrier(gpd: FinGroupoid, fam) -> bool:
    """Whether ``fam`` is keyed by tuples of ``gpd``'s objects and valued in
    its morphisms: not a family of a functor's other carrier, nor a
    monoidality family keyed by another carrier's objects."""
    objs = set(gpd.objects)
    return all(objs.issuperset(k) for k in fam.components) and gpd.morphisms.keys() >= set(fam.components.values())


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
# law bindings: every fixture the declared laws are evaluated on
# ---------------------------------------------------------------------------


def law_bindings():
    """(label, carrier, index objects, environment, laws) for every fixture
    the laws are compared on: the super line, the twisted dual numbers and
    the dual numbers m=2,3 in both presentations, multiplication functors
    on them (at m=3 also from the ``relabelled`` copy under ``s:`` onto the
    original, whose index objects are not the carrier's) and the rings of
    ``law_rings`` (a symmetric one with its last object bound as the fixed
    object of the 2R1 laws)."""
    out = []

    def structure(label, s):
        out.append((label, s.carrier, s.carrier.objects_sorted, s.law_env(),
                    AC_LAWS if hasattr(s, "acomm") else SM_LAWS))

    def functor(label, fun, src, tgt, laws):
        out.append((label, tgt.carrier, src.carrier.objects_sorted, functor_law_env(fun, src, tgt), laws))

    def ring(label, r):
        env, gpd = ring_law_env(r), r.carrier
        if r.presentation == "sm":
            # the 2R1 laws at one fixed object, and SF1/SF2 of its functors
            x = gpd.objects_sorted[-1]
            env = {**env, "x": (x, gpd.identity[x])}
            out.append((label, gpd, gpd.objects_sorted, env, COMMON_LAWS + JP_LAWS + CLASSICAL_LAWS + QUANG_LAWS))
            for side, fun in (("x*-", left_mult_functor(r, x)), ("-*x", right_mult_functor(r, x))):
                functor(f"{label} {side}", fun, r.add, r.add, (SF1, SF2))
        else:
            out.append((label, gpd, gpd.objects_sorted, env, COMMON_LAWS + AC_RING_LAWS))

    sl = build_super_line_2group()
    structure("super-line", sl)
    structure("super-line-ac", to_ac(sl))
    twisted = coboundary_twisted_dual_numbers(3)
    structure("twisted3", twisted)
    structure("twisted3-ac", to_ac(twisted, sample=4096))  # AC1 has 9^8 tuples
    across = []  # functors between two carriers, bound last
    for m in (2, 3):
        ac, sm = build_dual_numbers_2group(m), build_dual_numbers_2group(m, "sm")
        copy = relabelled(sm, "s:")
        structure(f"dual{m}-ac", ac)
        structure(f"dual{m}-sm", sm)
        for a, b in ((1, 0), (1, 1)):
            fun = build_mult_endofunctor(m, a, b, ac)
            fun = fun.with_zero(ac.carrier.hom(ac.unit, fun.base.obj_map[ac.unit])[0])
            functor(f"dual{m} F({a},{b}) sm", fun, sm, sm, (SF1, SF2, *UNIT_SQUARES["SF3"]))
            functor(f"dual{m} F({a},{b}) ac", fun, ac, ac, (AF1, *UNIT_SQUARES["AF2"]))
            if m == 3:
                functor(f"twisted3 F({a},{b})", replace(fun, _cache={}), twisted, twisted,
                        (SF1, SF2, *UNIT_SQUARES["SF3"]))
                across.append((f"s:dual3 F({a},{b}) sm", from_relabelled(fun, copy, "s:"), copy, sm,
                               (SF1, SF2, *UNIT_SQUARES["SF3"])))
        tau = tau_family({(x,): sm.carrier.identity[fun.base.obj_map[x]] for x in sm.carrier.objects})
        env = {**functor_law_env(fun, sm, sm), "tau": (tau, None), "G+": (fun.fsum, None)}
        out.append((f"dual{m} T1", sm.carrier, sm.carrier.objects_sorted, env, (T1,)))
    for label, r in law_rings():
        ring(label, r)
    for args in across:
        functor(*args)
    return out


def law_rings():
    """(label, ring) for the 2-rings of ``law_bindings``: z4/z3e in both
    presentations, the derivation ring m=2 and the kappa-twisted rings m=2,
    coherent and separating."""
    out = [(f"{label}-{pres}", build_strict_2ring(table, pres))
           for label, table in (("z4", ring_zmod(4)), ("z3e", ring_dual_numbers(3))) for pres in ("sm", "ac")]
    out.append(("derivation2", build_derivation_2ring(2)))
    out += [(f"kappa2{'-separating' * sep}", kappa_twisted_2ring(2, sep)) for sep in (False, True)]
    return out


def flipped_binding(binding, rng):
    """The binding with one component of one of its families replaced."""
    label, gpd, objs, env, laws = binding
    # a family on the carrier (not one on a functor's other carrier)
    syms = sorted(s for s, b in env.items()
                  if isinstance(b[0], NatFamily) and gpd.morphisms.keys() >= set(b[0].components.values()))
    sym = rng.choice(syms)
    fam, idx = random_flip(gpd, env[sym][0], rng)
    return (f"{label} {sym}{idx}->{fam.components[idx]}", gpd, objs, {**env, sym: (fam, env[sym][1])}, laws)


def flipped_bindings(bindings, flips):
    """``flips`` seeded single-component flips of each binding."""
    rng = random.Random(SEED)
    return [flipped_binding(b, rng) for b in bindings for _ in range(flips)]


def tables(env):
    """(symbol, slot) -> dict for every table ``env`` binds: an operation's
    object (0) and morphism (1) tables and a family's components ("fam")."""
    out = {}
    for sym, b in env.items():
        if isinstance(b[0], NatFamily):
            out[sym, "fam"] = b[0].components
        elif isinstance(b[0], dict) and isinstance(b[1], dict):
            out[sym, 0], out[sym, 1] = b[0], b[1]
    return out


def with_table(env, identity, key, table):
    """``(env, identity)`` with the table at ``key`` replaced."""
    sym, slot = key
    if sym is None:
        return env, table
    b = env[sym]
    if slot == "fam":
        return {**env, sym: (replace(b[0], components=table, _cache={}), b[1])}, identity
    return {**env, sym: tuple(table if i == slot else t for i, t in enumerate(b))}, identity



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
