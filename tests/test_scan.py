"""The nested-loop scan against the per-instance reference loop.

``Law.routes`` gives each law, beside its legs and composites, the scan
``scan(values, stop)``: nested loops in canonical order, each subterm
computed in the loop of the deepest variable it reads and a lookup whose
leading components are known there read from its table's curried view.  It
yields the position of every tuple below ``stop`` whose composites differ
or miss.  Here it is held to the reference loop ``diagram._scan`` tuple by
tuple: the positions it yields are exactly the tuples at which the
reference composites differ or miss, for any ``stop``.  Every row
``check_diagram`` gives with every exhaustive loop in the scan is the row of
the reference loop (status, instances, mode, witness), with the kernel
floor out of reach.  This holds on every binding of ``helpers``
(each shipped law), on seeded single-component flips of them and of the
sweep benchmark's flip pools, on the kappa-twisted rings, on the three data
rows (endpoints, naturality and the sum's interchange with its
``witness_at``), and on malformed tables: a miss at a hoisted loop and in the
innermost one, keys of the wrong arity, a family held as a ``Column`` and a
computed table that raises.  A candidate, from the scan or the kernel, that
the reference loop passes is refused with an error naming the law."""

import functools
import random
from dataclasses import replace
from itertools import islice, product
from types import SimpleNamespace

import pytest

from twogrp import Report, build_dual_numbers_2group, build_super_line_2group, diagram, groupoid
from twogrp import build_mult_endofunctor, build_strict_2ring, ring_zmod, validate_jp, validate_quang
from twogrp.errors import MalformedTable, StructureError
from twogrp.expr import Law
from twogrp.functors import SF1, SF2
from twogrp.groupoid import Column, NatFamily, check_naturality, validate_family
from twogrp.monoidal import INTERCHANGE, SM_LAWS, _check_bifunctor
from twogrp.rings import COMMON_LAWS, QUANG_LAWS

from helpers import (
    SEED,
    fresh,
    flipped_bindings,
    functor_law_env,
    kappa_twisted_2ring,
    law_bindings,
    on_carrier,
    parallel_morphisms,
    perturb_family,
    reference_bifunctor,
    reference_endpoints,
    ring_law_env,
)

BINDINGS = law_bindings()
FLIPPED = flipped_bindings(BINDINGS, 2)
HEAD = 1 << 10  # on a larger space, the positions below this many are compared


def curried(gpd):
    return functools.partial(diagram._curried, gpd)


def failing(law, gpd, values, env, stop):
    """The positions below ``stop`` at which the reference composites of
    ``law`` differ or miss."""
    _, composites, _ = law.routes(env, gpd.identity, gpd.composable, gpd.morphisms)
    out = []
    for position, idx in enumerate(islice(product(values, repeat=law.arity), stop)):
        try:
            left, right = composites(idx)
        except (KeyError, StructureError):
            out.append(position)
            continue
        if left != right:
            out.append(position)
    return out


def assert_scan_is_the_reference(law, gpd, values, env, what):
    """The scan's positions are the reference's failing tuples, below
    every ``stop`` (the whole space, or the head of a larger one), each
    scan building its views afresh and then reading them as kept."""
    total = len(values) ** law.arity
    end = min(total, HEAD)
    expected = failing(law, gpd, values, env, end)
    scan = law.routes(env, gpd.identity, gpd.composable, gpd.morphisms, curried(gpd))[2]
    for stop in sorted({0, 1, end // 3, end - 1, end}):
        gpd._cache.pop("curried", None)
        for _ in range(2):
            assert list(scan(values, stop)) == [p for p in expected if p < stop], (what, law.name, stop)
    return expected


def row(law, gpd, values, env, scan, monkeypatch):
    """The row with every exhaustive loop in the scan, or none, and none in
    the kernel."""
    monkeypatch.setattr(diagram, "KERNEL_FLOOR", float("inf"))
    monkeypatch.setattr(diagram, "SCAN_FLOOR", 0 if scan else float("inf"))
    res = diagram.check_diagram(law, gpd, values, env)
    return res.status, res.instances, res.mode, res.witness


def assert_same_rows(binding, monkeypatch, limit=1 << 13):
    label, gpd, objs, env, laws = binding
    for law in laws:
        assert_scan_is_the_reference(law, gpd, objs, env, label)
        if len(objs) ** law.arity <= limit:
            args = (law, gpd, objs, env)
            assert row(*args, True, monkeypatch) == row(*args, False, monkeypatch), (label, law.name)


@pytest.mark.parametrize("binding", BINDINGS, ids=[b[0] for b in BINDINGS])
def test_scan_rows_equal_the_reference_rows(binding, monkeypatch):
    assert_same_rows(binding, monkeypatch)


@pytest.mark.parametrize("binding", FLIPPED, ids=[b[0] for b in FLIPPED])
def test_scan_rows_equal_the_reference_rows_after_a_flip(binding, monkeypatch):
    assert_same_rows(binding, monkeypatch)


# -- the sweep benchmark's single-component flip pools --------------------------


def alternatives(gpd, mid):
    """Morphisms parallel to ``mid``; on a carrier with none, the other
    objects' identities (as the sweep draws its flips)."""
    return parallel_morphisms(gpd, mid) or [i for i in sorted(gpd.identity.values()) if i != mid]


def flip_pool(gpd, fam):
    return [(idx, new) for idx in sorted(fam.components) for new in alternatives(gpd, fam.components[idx])]


def sweep_pools():
    """(label, carrier, index objects, environment, laws, symbol of the
    flipped family): the super line's structure families, the monoidality
    family of an even multiplication functor on the dual numbers m=3 and
    the distributor of Z/6, each with the laws that read it."""
    sl = build_super_line_2group()
    for sym in ("a", "c", "l", "r"):
        yield "super-line", sl.carrier, sl.carrier.objects_sorted, sl.law_env(), SM_LAWS, sym
    ac, sm = build_dual_numbers_2group(3), build_dual_numbers_2group(3, "sm")
    fun = build_mult_endofunctor(3, 2, 0, ac)
    yield "dual3 F(2,0)", sm.carrier, sm.carrier.objects_sorted, functor_law_env(fun, sm, sm), (SF1, SF2), "F+"
    z6 = build_strict_2ring(ring_zmod(6))
    env = ring_law_env(z6)
    x = z6.carrier.objects_sorted[-1]
    env = {**env, "x": (x, z6.carrier.identity[x])}
    yield "z6", z6.carrier, z6.carrier.objects_sorted, env, COMMON_LAWS[:2] + QUANG_LAWS, "d"


POOL_FLIPS = 12  # flips drawn from each pool, as the sweep draws its forty


SWEEP_POOLS = list(sweep_pools())


@pytest.mark.parametrize("pool", SWEEP_POOLS, ids=[f"{p[0]} {p[5]}" for p in SWEEP_POOLS])
def test_scan_rows_equal_the_reference_rows_on_the_sweep_flip_pools(pool, monkeypatch):
    label, gpd, objs, env, laws, sym = pool
    fam, fenv = env[sym][:2]
    flips = flip_pool(gpd, fam)
    rng = random.Random(SEED)
    for idx, new in (flips[rng.randrange(len(flips))] for _ in range(POOL_FLIPS)):
        flipped = {**env, sym: (perturb_family(fam, idx, new), fenv, *env[sym][2:])}
        assert_same_rows((f"{label} {sym}{idx}->{new}", gpd, objs, flipped, laws), monkeypatch, limit=1 << 10)


# -- the kappa-twisted rings ---------------------------------------------------


@pytest.mark.parametrize("separating", [False, True], ids=["coherent", "separating"])
def test_scan_rows_equal_the_reference_rows_on_the_kappa_twisted_rings(separating, monkeypatch):
    # JP and Quang forced full on the 9-object ring: every loop below the
    # kernel floor in the scan against none
    monkeypatch.setattr(diagram, "KERNEL_FLOOR", float("inf"))

    def rows(scan):  # a fresh ring, so its data rows are scanned under this setting too
        ring, = fresh(kappa_twisted_2ring(3, separating))
        monkeypatch.setattr(diagram, "SCAN_FLOOR", 0 if scan else float("inf"))
        return [(c.law, c.status, c.instances, c.mode, c.witness) for suite in (validate_jp, validate_quang)
                for c in suite(ring, allow_strict_skip=False).checks]

    scanned = rows(True)
    assert scanned == rows(False)
    assert any(r[1].value == "fail" for r in scanned) is separating


# -- the data rows -------------------------------------------------------------


def outcome(run):
    """The row ``run`` gives, or the type and text of what it raises."""
    try:
        res = run()
    except Exception as err:  # the type and text of an error are compared
        return type(err).__name__, str(err)
    return res.law, res.status, res.instances, res.mode, res.witness


def forced(scan, monkeypatch):
    monkeypatch.setattr(diagram, "KERNEL_FLOOR", float("inf"))
    monkeypatch.setattr(diagram, "SCAN_FLOOR", 0 if scan else float("inf"))


def families():
    """(label, carrier, symbol, family, environment) of each family on its
    binding's carrier, once each."""
    seen = set()
    for label, gpd, _, env, _ in BINDINGS:
        for sym, (fam, fenv, *_) in sorted(env.items()):
            if isinstance(fam, NatFamily) and isinstance(fenv, dict) and on_carrier(gpd, fam) and id(fam) not in seen:
                seen.add(id(fam))
                yield label, gpd, sym, fam, fenv


def family_cases():
    """The family as bound, a component flipped, dropped and keyed outside
    the carrier, and a carrier whose compose table lacks a pair."""
    for i, (label, gpd, sym, fam, env) in enumerate(families()):
        rng = random.Random(SEED + i)
        comps = fam.components
        idx = rng.choice(sorted(comps))
        yield f"{label} {sym}", gpd, fam, env
        yield f"{label} {sym} at {idx} flipped", gpd, perturb_family(fam, idx, alternatives(gpd, comps[idx])[0]), env
        dropped = {k: v for k, v in comps.items() if k != idx}
        yield f"{label} {sym} without {idx}", gpd, replace(fam, components=dropped, _cache={}), env
        outside = {**dropped, ("zz",) * fam.arity: comps[idx]}
        yield f"{label} {sym} keyed outside", gpd, replace(fam, components=outside, _cache={}), env
        pair = rng.choice(sorted(gpd.compose))
        yield (f"{label} {sym}, compose without {pair}",
               replace(gpd, compose={k: v for k, v in gpd.compose.items() if k != pair}), fam, env)


FAMILY_CASES = list(family_cases())


@pytest.mark.parametrize("case", FAMILY_CASES, ids=[c[0] for c in FAMILY_CASES])
def test_endpoint_and_naturality_rows_equal_the_reference_rows(case, monkeypatch):
    # the endpoint row (and the strict bit it leaves) and the naturality
    # row, every loop in the scan against none, and the endpoint row
    # against the hand-written scan
    what, gpd, fam, env = case

    def run(scan):
        forced(scan, monkeypatch)
        copy = replace(fam, _cache={})
        return (outcome(lambda: validate_family(gpd, copy, env, label="f").checks[0]),
                groupoid._strict_bit(copy, gpd, env),
                outcome(lambda: check_naturality(replace(fam, _cache={}), env, domain=gpd).checks[0]))

    report, bit = reference_endpoints(gpd, replace(fam, _cache={}), env, label="f")
    scanned = run(True)
    assert scanned == run(False), what
    assert scanned[:2] == (outcome(lambda: report.checks[0]), bit), what


def sum_cases():
    """A sum or product as bound, then a morphism entry dropped, reassigned
    or keyed outside the carrier, and a carrier whose compose table lacks a
    pair or has an entry at a non-composable pair."""
    seen = set()
    for i, (label, gpd, _, env, _) in enumerate(BINDINGS):
        mors = gpd.morphisms.keys()
        for sym, b in sorted(env.items()):
            if not (isinstance(b[0], dict) and isinstance(b[1], dict) and b[1]) or id(b[1]) in seen \
                    or not all(type(k) is tuple and len(k) == 2 and mors >= set(k) for k in b[1]):
                continue
            seen.add(id(b[1]))
            rng = random.Random(SEED + i)
            plus_obj, plus = b[0], b[1]
            key = rng.choice(sorted(plus))
            yield f"{label} {sym}", gpd, plus_obj, plus
            yield f"{label} {sym} without {key}", gpd, plus_obj, {k: v for k, v in plus.items() if k != key}
            new = next(f for f in gpd.morphisms_sorted if f != plus[key])
            yield f"{label} {sym} at {key} -> {new}", gpd, plus_obj, {**plus, key: new}
            yield f"{label} {sym} keyed outside", gpd, plus_obj, {**plus, ("zz|0", key[1]): plus[key]}
            pair = rng.choice(sorted(gpd.compose))
            yield (f"{label} {sym}, compose without {pair}",
                   replace(gpd, compose={k: v for k, v in gpd.compose.items() if k != pair}), plus_obj, plus)
            ms = gpd.morphisms_sorted
            apart = [(g, f) for g in ms for f in ms if gpd.dst(f) != gpd.src(g)]
            if apart:
                g, f = rng.choice(apart)
                yield (f"{label} {sym}, compose at non-composable ({g}, {f})",
                       replace(gpd, compose={**gpd.compose, (g, f): g}), plus_obj, plus)


SUM_CASES = list(sum_cases())


@pytest.mark.parametrize("case", SUM_CASES, ids=[c[0] for c in SUM_CASES])
def test_interchange_rows_equal_the_reference_rows(case, monkeypatch):
    # the law alone and the bifunctor row (its witness_at writes the pair
    # loop's witness), every loop in the scan against none, and the row
    # against the hand-written pair loop
    what, gpd, plus_obj, plus = case
    env = {"+": (plus_obj, plus, None), "∘": ({}, gpd.compose, None)}
    structure = lambda g: SimpleNamespace(carrier=g, sum_obj=plus_obj, sum_mor=plus, preserves_identities=None)

    def data_row():  # on a fresh carrier: no recorded row answers for the scan
        report = Report()
        _check_bifunctor(structure(replace(gpd, _cache={})), report)
        return report.checks[0]

    rows = {}
    for scan in (True, False):
        forced(scan, monkeypatch)
        rows[scan] = (outcome(lambda: diagram._check("bifunctor", INTERCHANGE, gpd, sorted(gpd.compose), env)),
                      outcome(data_row))
    assert rows[True] == rows[False], what
    assert rows[True][1] == outcome(lambda: reference_bifunctor(structure(gpd))), what


# -- malformed tables ------------------------------------------------------------


class Raising(dict):
    """A computed table: a dict whose read at ``bad`` raises the
    ``StructureError`` a computed table raises where it cannot compute."""

    def __init__(self, table, bad):
        super().__init__(table)
        self.bad = bad

    def __getitem__(self, key):
        if key == self.bad:
            raise MalformedTable(f"cannot compute at {key}")
        return super().__getitem__(key)


def malformed(gpd, fam):
    """(what, table) variants of a family's components that its scans read
    curried: a whole row of the first component dropped (a miss at a
    hoisted loop), the last entry dropped (a miss in the innermost loop),
    an entry keyed with one component too few or too many (in place of
    its key and beside it), the family held as a column, and a computed
    table that raises at one key."""
    comps = fam.components
    keys = sorted(comps)
    first, last = keys[0][0], keys[-1]
    yield "a row dropped", {k: v for k, v in comps.items() if k[0] != first}
    yield "the last entry dropped", {k: v for k, v in comps.items() if k != last}
    for short in (last[:-1], last + last[-1:]):
        yield f"keyed {short} for {last}", {**{k: v for k, v in comps.items() if k != last}, short: comps[last]}
        yield f"keyed {short} beside", {**comps, short: comps[keys[0]]}
    axis = gpd.objects_sorted
    values = [comps[k] for k in product(axis, repeat=fam.arity)]
    yield "a column", Column(axis, {x: i for i, x in enumerate(axis)}, fam.arity, tuple(values))
    yield "a column, flipped", Column(axis, {x: i for i, x in enumerate(axis)}, fam.arity,
                                      tuple(values[:-1]) + (alternatives(gpd, values[-1])[0],))
    yield "computed, raising", Raising(comps, keys[len(keys) // 2])


MALFORMED = [b for b in BINDINGS if b[0] in ("super-line", "dual2-sm", "dual3-sm", "dual2-ac", "z4-sm", "derivation2")]


@pytest.mark.parametrize("binding", MALFORMED, ids=[b[0] for b in MALFORMED])
def test_scan_rows_equal_the_reference_rows_on_malformed_tables(binding, monkeypatch):
    label, gpd, objs, env, laws = binding
    misses = 0
    for sym, (fam, *rest) in sorted(env.items()):
        if not (isinstance(fam, NatFamily) and fam.arity > 1 and on_carrier(gpd, fam)):
            continue
        for what, table in malformed(gpd, fam):
            bad = {**env, sym: (replace(fam, components=table, _cache={}), *rest)}
            for law in laws:
                if sym not in law.symbols:
                    continue
                expected = assert_scan_is_the_reference(law, gpd, objs, bad, f"{label} {sym} {what}")
                if len(objs) ** law.arity <= 1 << 13:
                    args = (law, gpd, objs, bad)
                    scanned = row(*args, True, monkeypatch)
                    assert scanned == row(*args, False, monkeypatch), (label, sym, what, law.name)
                    misses += bool(expected) and scanned[3].note.startswith("route does not evaluate")
    assert misses


def test_a_miss_at_a_hoisted_loop_yields_every_position_below_it():
    # SC1 reads a(x+y, z, t) from its view, a row in the loop of y: with
    # every component of a at the object 0 dropped, that row misses for
    # each (x, y) with x+y = 0, and every (z, t) below it fails
    sm = build_dual_numbers_2group(2, "sm")
    gpd, objs = sm.carrier, sm.carrier.objects_sorted
    zero, n = objs[0], len(objs)
    comps = {k: v for k, v in sm.assoc.components.items() if k[0] != zero}
    env = {**sm.law_env(), "a": (replace(sm.assoc, components=comps, _cache={}), *sm.law_env()["a"][1:])}
    expected = set(assert_scan_is_the_reference(SM_LAWS[0], gpd, objs, env, "SC1 without a(0, -, -)"))
    blocks = [(i * n + j) * n * n for i, x in enumerate(objs) for j, y in enumerate(objs)
              if sm.sum_obj[x, y] == zero]
    assert blocks and all(set(range(b, b + n * n)) <= expected for b in blocks)


@pytest.mark.parametrize("source", ["scan", "kernel"])
def test_a_candidate_the_reference_loop_passes_is_refused_with_the_laws_name(source, monkeypatch):
    # a candidate source yields the instances that may fail; one the
    # reference loop passes is a fault of the source, raised, not reported
    sm = build_dual_numbers_2group(3, "sm")
    gpd, objs, env = sm.carrier, sm.carrier.objects_sorted, sm.law_env()
    law = SM_LAWS[0]
    assert diagram.check_diagram(law, gpd, objs, env).passed
    if source == "scan":
        routes = Law.routes
        monkeypatch.setattr(Law, "routes", lambda *args: (*routes(*args)[:2], lambda values, stop: iter(range(stop))))
    else:
        pytest.importorskip("numpy")
        from twogrp import _kernel

        for floor in ("KERNEL_FLOOR", "REFERENCE_HEAD", "LOADED_HEAD"):
            monkeypatch.setattr(diagram, floor, 0)
        monkeypatch.setattr(_kernel, "failures", lambda law, gpd, values, *rest: iter([(0, (values[0],) * law.arity)]))
    with pytest.raises(RuntimeError, match=r"^SC1: a scan fails the instance at .*, the reference loop does not$"):
        diagram.check_diagram(law, gpd, objs, env)
