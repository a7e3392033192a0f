"""Pinned report rows, witnesses included, of every validator that builds
data rows, on fixtures and on a fixed list of single-table mutants.

Each variant is built from scratch, so no family carries a strict bit
recorded while checking another variant.
"""

import re
from dataclasses import replace
from pathlib import Path

from twogrp import (
    MonTransformation,
    StructureError,
    build_dual_numbers_2group,
    build_mult_endofunctor,
    build_strict_2ring,
    build_super_line_2group,
    identity_structured,
    ring_zmod,
    to_ac,
    validate_2group,
    validate_ac,
    validate_ac_functor,
    validate_functor,
    validate_groupoid,
    validate_sm,
    validate_sm_functor,
    validate_transformation,
    validate_two_ring_data,
)
from twogrp.functors import tau_family
from twogrp.monoidal import check_structure_naturality

PINNED = Path(__file__).parent / "data" / "data_rows.txt"


def _middle(table):
    keys = sorted(table)
    return keys[len(keys) // 2]


def _other(gpd, mid):
    """A parallel morphism when the carrier has one, else another identity
    (which breaks the endpoints)."""
    m = gpd.morphisms[mid]
    return next(o for o in (*gpd.hom(m.src, m.dst), *sorted(gpd.identity.values())) if o != mid)


def _changed(table, key, value):
    return {**table, key: value}


def _dropped(table, key):
    return {k: v for k, v in table.items() if k != key}


def _flip(fam, gpd):
    idx = _middle(fam.components)
    return replace(fam, components=_changed(fam.components, idx, _other(gpd, fam.components[idx])), _cache={})


# -- mutants: each maps a carrier or a sum structure to a broken copy --------


def _carrier_mutants():
    def compose_changed(g):
        key = _middle(g.compose)
        return replace(g, compose=_changed(g.compose, key, _other(g, g.compose[key])), _cache={})

    def compose_dropped(g):
        return replace(g, compose=_dropped(g.compose, _middle(g.compose)), _cache={})

    def inverse_changed(g):
        key = _middle(g.inverse)
        return replace(g, inverse=_changed(g.inverse, key, _other(g, g.inverse[key])), _cache={})

    def inverse_dropped(g):
        return replace(g, inverse=_dropped(g.inverse, _middle(g.inverse)), _cache={})

    def identity_changed(g):
        key = _middle(g.identity)
        return replace(g, identity=_changed(g.identity, key, _other(g, g.identity[key])), _cache={})

    return {
        "compose changed": compose_changed,
        "compose dropped": compose_dropped,
        "inverse changed": inverse_changed,
        "inverse dropped": inverse_dropped,
        "identity changed": identity_changed,
    }


def _sum_mutants():
    def value_changed(s):
        key = _middle(s.sum_obj)
        objs = s.carrier.objects_sorted
        new = objs[(objs.index(s.sum_obj[key]) + 1) % len(objs)]
        return replace(s, sum_obj=_changed(s.sum_obj, key, new), _cache={})

    def endpoint_changed(s):
        gpd = s.carrier
        key = _middle(s.sum_mor)
        old = gpd.morphisms[s.sum_mor[key]]
        new = next(i for i in sorted(gpd.identity.values()) if gpd.morphisms[i].src != old.src)
        return replace(s, sum_mor=_changed(s.sum_mor, key, new), _cache={})

    def obj_dropped(s):
        return replace(s, sum_obj=_dropped(s.sum_obj, _middle(s.sum_obj)), _cache={})

    def mor_dropped(s):
        return replace(s, sum_mor=_dropped(s.sum_mor, _middle(s.sum_mor)), _cache={})

    return {
        "sum value changed": value_changed,
        "sum-morphism endpoint changed": endpoint_changed,
        "sum object entry dropped": obj_dropped,
        "sum morphism entry dropped": mor_dropped,
    }


STRUCTURE_FIELDS = {"a": "assoc", "c": "comm", "l": "lunit", "r": "runit", "b": "acomm",
                    "d": "dist_l", "e": "dist_r", "m": "absorb_l", "n": "absorb_r"}


def _with(make, field, mutate):
    """A builder of ``make()`` with ``field`` replaced by ``mutate(make())``."""
    def build():
        subject = make()
        return replace(subject, **{field: mutate(subject)}, _cache={})
    return build


def _variants(make, ring=False):
    """(label, builder) pairs: as built, each carrier mutant, each sum
    mutant (of a ring's additive half) and one flip per family."""
    yield "as built", make
    for label, mutate in _carrier_mutants().items():
        yield label, _with(make, "carrier", lambda s, mutate=mutate: mutate(s.carrier))
    for label, mutate in _sum_mutants().items():
        if ring:
            yield f"add {label}", _with(make, "add", lambda r, mutate=mutate: mutate(r.add))
        else:
            yield label, lambda mutate=mutate: mutate(make())
    for name in make().families():
        yield f"{name} flipped", _with(make, STRUCTURE_FIELDS[name],
                                       lambda s, name=name: _flip(s.families()[name], s.carrier))


# -- subjects ----------------------------------------------------------------


def _sl():
    return build_super_line_2group.__wrapped__()


def _dn2(presentation):
    return lambda: build_dual_numbers_2group.__wrapped__(2, presentation)


STRUCTURES = {
    "sl": _sl,
    "sl_ac": lambda: to_ac(_sl()),
    "dn2_sm": _dn2("sm"),
    "dn2_ac": _dn2("ac"),
    "z4_add": lambda: build_strict_2ring(ring_zmod(4)).add,
    "z4_ac_add": lambda: build_strict_2ring(ring_zmod(4), "ac").add,
}
RINGS = {
    "z4": lambda: build_strict_2ring(ring_zmod(4)),
    "z4_ac": lambda: build_strict_2ring(ring_zmod(4), "ac"),
}


def _functors(s):
    """(label, functor) pairs on one structure."""
    gpd = s.carrier
    out = [("identity", identity_structured(s))]
    if "0+0e" in gpd.objects:  # dual numbers m=2
        zero = gpd.identity[s.unit]
        out.append(("F(1,1)", build_mult_endofunctor(2, 1, 1, s)))
        out.append(("F(1,0)+zero", build_mult_endofunctor(2, 1, 0, s).with_zero(zero)))
    return out


def _functor_variants(gpd, fun):
    yield "as built", fun
    f = _middle(fun.base.mor_map)
    mor_map = _changed(fun.base.mor_map, f, _other(gpd, fun.base.mor_map[f]))
    yield "base morphism flipped", replace(fun, base=replace(fun.base, mor_map=mor_map, _cache={}), _cache={})
    yield "fsum flipped", replace(fun, fsum=_flip(fun.fsum, gpd), _cache={})
    if fun.fzero is not None:
        yield "fzero endpoints wrong", fun.with_zero(next(i for i in sorted(gpd.identity.values()) if i != fun.fzero))


def _transformations(s, fun):
    gpd = s.carrier
    tau = tau_family({(x,): gpd.identity[fun.base.obj_map[x]] for x in gpd.objects})
    yield "identity", MonTransformation(fun, fun, tau)
    yield "tau flipped", MonTransformation(fun, fun, _flip(tau, gpd))
    if fun.fzero is not None:
        yield "T2 failure", MonTransformation(fun, fun.with_zero(_other(gpd, fun.fzero)), tau)


def pinned_data_rows() -> str:
    """Every variant's rows with ``time=`` stripped, each headed by the
    subject, the variant and the validator.  ``PINNED`` holds this text;
    write the function's output there to regenerate it."""
    out = []

    def record(head, check, *args):
        try:
            report = check(*args)
        except (StructureError, KeyError) as err:
            out.append(f"$ {head}: raises {type(err).__name__}: {err}\n")
            return
        out.append(f"$ {head}\n")
        for row in report.checks:
            out.append(re.sub(r" time=\S+", "", row.line(legs=True)) + "\n")

    for name, make in STRUCTURES.items():
        suite = validate_ac if name.endswith("ac") or name.endswith("ac_add") else validate_sm
        for variant, build in _variants(make):
            head = f"{name} [{variant}]"
            record(f"{head} validate_groupoid", lambda: validate_groupoid(build().carrier))
            record(f"{head} {suite.__name__}", lambda: suite(build()))
            if suite is validate_sm:
                record(f"{head} validate_2group", lambda: validate_2group(build()))
            record(f"{head} check_structure_naturality", lambda: check_structure_naturality(build()))
        s = make()
        functor_suite = validate_sm_functor if suite is validate_sm else validate_ac_functor
        for label, fun in _functors(s):
            for variant, f in _functor_variants(s.carrier, fun):
                head = f"{name} functor {label} [{variant}]"
                record(f"{head} validate_functor", validate_functor, f.base)
                record(f"{head} {functor_suite.__name__}", functor_suite, f, s, s)
            for variant, tr in _transformations(s, fun):
                record(f"{name} functor {label} transformation [{variant}]", validate_transformation, tr, s, s)
    for name, make in RINGS.items():
        for variant, build in _variants(make, ring=True):
            record(f"{name} [{variant}] validate_two_ring_data", lambda: validate_two_ring_data(build()))
    return "".join(out)


def test_data_rows_match_pinned():
    assert pinned_data_rows() == PINNED.read_text(encoding="utf-8")
