"""The numpy block kernel against the reference loop.

Every law of every fixture binding (the set ``test_laws`` compares the
compiled legs on, with seeded single-component flips, dropped table
entries and malformed tables), and the naturality law of every family the
bindings hold, is checked twice through ``diagram.check_diagram``: once with the kernel floor at zero, so every
loop runs in the kernel, and once with it out of reach, so every loop runs
the reference.  Both give the same row: status, instances, mode and every
witness field.  The data rows that are laws (the sum's interchange with the
bifunctor row around it, and each family's endpoint row with its strict
bit) are held the same way, and to the hand-written scans of ``helpers``,
on every distinct sum and family of the bindings, as bound and damaged; a
family's table encodes to the same arrays densely and key by key.  The
integer draw and the canonical associo-commutator arrays are held to their
string counterparts, and two child processes show the stdlib-only path and
the lazy numpy import.  The m=5 rows the shipped floor sends to the kernel
(15,625 instances) are held to the reference as shipped, a long row with
the kernel loaded to the short head, and the sampled rows of one
space to a single draw.  Every family is read through its table: a table
larger than a block is held narrow, a strict family with a recorded strict
bit gives the reference rows, and a sample over the carrier's ids takes
its positions as codes."""

import functools
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from itertools import product
from types import SimpleNamespace

import pytest

np = pytest.importorskip("numpy")

from twogrp import Report, build_dual_numbers_2group, canonical_acomm_at, diagram, validate_jp, validate_quang  # noqa: E402,E501
from twogrp import (  # noqa: E402
    _kernel,
    build_mult_endofunctor,
    build_strict_2ring,
    groupoid,
    ring_dual_numbers,
    ring_zmod,
    validate_ac,
    validate_sm,
    validate_sm_functor,
    validate_two_ring_data,
)
from twogrp import expr as ex  # noqa: E402
from twogrp._kernel import _Program, sample_positions  # noqa: E402
from twogrp.ac import AC_LAWS, _canonical_acomm  # noqa: E402
from twogrp.groupoid import NatFamily, _sample_tuples, _strict_bit, index_space, validate_family  # noqa: E402
from twogrp.monoidal import INTERCHANGE, SM_LAWS, _check_bifunctor, check_structure_naturality  # noqa: E402

from helpers import (  # noqa: E402
    SEED,
    coboundary_twisted_dual_numbers,
    eval_obj,
    flipped_bindings,
    fresh,
    kappa_twisted_2ring,
    law_bindings,
    on_carrier,
    parallel_morphisms,
    random_flip,
    reference_bifunctor,
    reference_endpoints,
    tables,
    with_table,
)

EXHAUSTIVE = 1 << 16  # laws with larger spaces are compared on samples only
SAMPLE = 3000
BINDINGS = law_bindings()


def row(law, gpd, objs, env, sample, kernel, monkeypatch):
    monkeypatch.setattr(diagram, "KERNEL_FLOOR", 0 if kernel else float("inf"))
    monkeypatch.setattr(diagram, "REFERENCE_HEAD", 0)
    res = diagram.check_diagram(law, gpd, objs, env, sample=sample, seed=SEED)
    return res.status, res.instances, res.mode, res.witness


def assert_same_rows(binding, monkeypatch):
    label, gpd, objs, env, laws = binding
    for law in laws:
        total = len(objs) ** law.arity
        for sample in ([None] if total <= EXHAUSTIVE else []) + ([SAMPLE] if total > SAMPLE else []):
            args = (law, gpd, objs, env, sample)
            kernel = row(*args, True, monkeypatch)
            assert kernel == row(*args, False, monkeypatch), (label, law.name, sample)


@pytest.mark.parametrize("binding", BINDINGS, ids=[b[0] for b in BINDINGS])
def test_kernel_rows_equal_the_reference_rows(binding, monkeypatch):
    assert_same_rows(binding, monkeypatch)


FLIPPED = flipped_bindings(BINDINGS, 2)


@pytest.mark.parametrize("binding", FLIPPED, ids=[b[0] for b in FLIPPED])
def test_kernel_rows_equal_the_reference_rows_after_a_flip(binding, monkeypatch):
    assert_same_rows(binding, monkeypatch)


def malformed(binding, rng):
    """Variants of the binding's tables: one entry dropped from each, a
    family component that is not a carrier id, an object table value that
    is not a carrier object, and carriers whose compose table lacks a pair
    (so a leg no longer composes) or returns an undeclared id, or whose
    identity table lacks an object."""
    label, gpd, objs, env, laws = binding
    for key, table in tables(env).items():
        entry = rng.choice(sorted(table))
        dropped = {k: v for k, v in table.items() if k != entry}
        yield f"{key} without {entry}", gpd, with_table(env, None, key, dropped)[0]
        if key[1] == "fam":
            yield f"{key} at {entry} undeclared", gpd, with_table(env, None, key, {**table, entry: "zz|0"})[0]
        elif key[1] == 0:
            yield f"{key} at {entry} undeclared", gpd, with_table(env, None, key, {**table, entry: "zz"})[0]
    pair = rng.choice(sorted(gpd.compose))
    yield f"compose without {pair}", replace(gpd, compose={k: v for k, v in gpd.compose.items() if k != pair}), env
    yield f"compose at {pair} undeclared", replace(gpd, compose={**gpd.compose, pair: "zz|0"}), env
    x = rng.choice(gpd.objects_sorted)
    yield f"no identity at {x}", replace(gpd, identity={k: v for k, v in gpd.identity.items() if k != x}), env


MALFORMED = [b for b in BINDINGS if b[0] in ("super-line", "twisted3", "dual2-ac", "dual2 F(1,1) ac",
                                              "s:dual3 F(1,1) sm", "z4-sm", "z4-ac", "derivation2")]


@pytest.mark.parametrize("binding", MALFORMED, ids=[b[0] for b in MALFORMED])
def test_kernel_rows_equal_the_reference_rows_on_malformed_tables(binding, monkeypatch):
    rng = random.Random(SEED)
    label, _, objs, _, laws = binding
    witnesses = 0
    for what, gpd, env in malformed(binding, rng):
        for law in laws:
            if len(objs) ** law.arity > EXHAUSTIVE:
                continue
            kernel = row(law, gpd, objs, env, None, True, monkeypatch)
            assert kernel == row(law, gpd, objs, env, None, False, monkeypatch), (label, what, law.name)
            witnesses += kernel[3] is not None and kernel[3].note.startswith("route does not evaluate")
    assert witnesses


RELABELLED = [b for b in BINDINGS if b[0].startswith("s:")]


@pytest.mark.parametrize("binding", RELABELLED, ids=[b[0] for b in RELABELLED])
@pytest.mark.parametrize("seed", [SEED, 5])
def test_a_functor_from_a_relabelled_carrier_gives_the_reference_rows_sampled(binding, seed, monkeypatch):
    # the index objects are the source carrier's, coded after the target
    # carrier's ids: a drawn position is read through its value's code
    label, gpd, objs, env, laws = binding
    n = len(gpd.objects)
    for law in laws:
        assert _Program(law, gpd, objs, env).values == list(range(n, n + len(objs))), law.name
        rows = []
        for floor in (0, float("inf")):  # every loop in the kernel, then none
            monkeypatch.setattr(diagram, "KERNEL_FLOOR", floor)
            monkeypatch.setattr(diagram, "REFERENCE_HEAD", 0)
            res = diagram.check_diagram(law, gpd, objs, env, sample=300, seed=seed)
            rows.append((res.status, res.instances, res.mode, res.witness))
        assert rows[0] == rows[1], (label, law.name)
        assert rows[0][2] == f"sampled(n=300,seed={seed})" or len(objs) ** law.arity <= 300, law.name


def families(binding):
    """(symbol, family, environment its endpoints are typed in) for each
    family ``binding`` binds on its carrier."""
    for sym, (fam, fenv, *_) in sorted(binding[3].items()):
        if isinstance(fam, NatFamily) and isinstance(fenv, dict) and on_carrier(binding[1], fam):
            yield sym, fam, fenv


def naturality_laws(binding):
    """The naturality law of each family ``binding`` binds with the
    environment its endpoints are typed in: (law, environment)."""
    for _, fam, fenv in families(binding):
        law = groupoid._family_laws(fam.arity, fam.src_expr, fam.tgt_expr)[1]
        yield law, groupoid._family_env(law, fam, fenv, binding[1])


@pytest.mark.parametrize("binding", BINDINGS + FLIPPED, ids=[b[0] for b in BINDINGS + FLIPPED])
def test_kernel_rows_equal_the_reference_rows_for_the_naturality_laws(binding, monkeypatch):
    # a family's naturality law ranges over morphism tuples, composed in the
    # carrier; the rows compared here are the law's own, witness legs
    # included; a flip that breaks endpoints fails them
    label, gpd, _, _, _ = binding
    laws = list(naturality_laws(binding))
    assert laws
    for law, env in laws:
        assert law.var_level == 1
        assert_same_rows((label, gpd, gpd.morphisms_sorted, env, [law]), monkeypatch)


# -- the data rows: the sum's interchange law and the family endpoint laws ------------


def forced(kernel, monkeypatch):
    """Every loop in the kernel, or none."""
    monkeypatch.setattr(diagram, "KERNEL_FLOOR", 0 if kernel else float("inf"))
    monkeypatch.setattr(diagram, "REFERENCE_HEAD", 0)


def outcome(run):
    """The row ``run`` gives, or the type and text of what it raises."""
    try:
        res = run()
    except Exception as err:  # the type and text of an error are compared
        return type(err).__name__, str(err)
    return res.law, res.status, res.instances, res.mode, res.witness


def sums(binding):
    """(symbol, object table, morphism table) of each sum or product
    ``binding`` binds on its carrier."""
    mors = binding[1].morphisms.keys()
    for sym, b in sorted(binding[3].items()):
        if isinstance(b[0], dict) and isinstance(b[1], dict) and b[1] \
                and all(type(k) is tuple and len(k) == 2 and mors >= set(k) for k in b[1]):
            yield sym, b[0], b[1]


def once(items, key):
    """(binding, item) for the ``items`` of every binding, each ``key``
    once: a table several fixtures bind is checked with the first."""
    seen = set()
    for binding in BINDINGS:
        for item in items(binding):
            if key(item) not in seen:
                seen.add(key(item))
                yield binding, item


def sum_variants(binding, item, rng):
    """(what, carrier, object table, morphism table): the sum as bound,
    then damaged: a morphism entry dropped, reassigned to another declared
    id or keyed outside the carrier, and a carrier whose compose table lacks
    a pair or has an entry at a non-composable pair."""
    label, gpd, _, _, _ = binding
    sym, plus_obj, plus = item
    mors = gpd.morphisms_sorted
    yield f"{label} {sym}", gpd, plus_obj, plus
    key = rng.choice(sorted(plus))
    yield f"{label} {sym} without {key}", gpd, plus_obj, {k: v for k, v in plus.items() if k != key}
    new = rng.choice([f for f in mors if f != plus[key]])
    yield f"{label} {sym} at {key} -> {new}", gpd, plus_obj, {**plus, key: new}
    yield f"{label} {sym} keyed outside", gpd, plus_obj, {**plus, ("zz|0", key[1]): plus[key]}
    pair = rng.choice(sorted(gpd.compose))
    yield (f"{label} {sym}, compose without {pair}",
           replace(gpd, compose={k: v for k, v in gpd.compose.items() if k != pair}), plus_obj, plus)
    apart = [(g, f) for g in mors for f in mors if gpd.dst(f) != gpd.src(g)]
    if apart:
        g, f = rng.choice(apart)
        yield (f"{label} {sym}, compose at non-composable ({g}, {f})",
               replace(gpd, compose={**gpd.compose, (g, f): g}), plus_obj, plus)


SUM_CASES = [case for i, (binding, item) in enumerate(once(sums, lambda item: id(item[2])))
             for case in sum_variants(binding, item, random.Random(SEED + i))]


def sum_structure(gpd, plus_obj, plus):
    return SimpleNamespace(carrier=gpd, sum_obj=plus_obj, sum_mor=plus, preserves_identities=None)


@pytest.mark.parametrize("case", SUM_CASES, ids=[c[0] for c in SUM_CASES])
def test_interchange_rows_equal_the_reference_rows(case, monkeypatch):
    # the law alone (its own witness, legs included) and the bifunctor row
    # (the table scans, then the law with the pair loop's witness), every
    # loop in the kernel against none, and the row against the pair loop
    what, gpd, plus_obj, plus = case
    env = {"+": (plus_obj, plus, None), "∘": ({}, gpd.compose, None)}

    def data_row():  # on a fresh carrier: no recorded row answers for the scan
        report = Report()
        _check_bifunctor(sum_structure(replace(gpd, _cache={}), plus_obj, plus), report)
        return report.checks[0]

    rows = {}
    for kernel in (True, False):
        forced(kernel, monkeypatch)
        rows[kernel] = (outcome(lambda: diagram._check("bifunctor", INTERCHANGE, gpd, sorted(gpd.compose), env)),
                        outcome(data_row))
    assert rows[True] == rows[False], what
    assert rows[True][1] == outcome(lambda: reference_bifunctor(sum_structure(gpd, plus_obj, plus))), what


def test_the_interchange_cases_fail_in_every_way():
    # the damage reaches passes, the pair loop's witness and the table scans'
    seen = set()
    for _, gpd, plus_obj, plus in SUM_CASES:
        row = outcome(lambda: reference_bifunctor(sum_structure(gpd, plus_obj, plus)))
        seen.add("raises" if len(row) == 2 else row[1].value if row[4] is None else row[4].note or "interchange")
    assert {"pass", "interchange", "sum morphism table not total"} <= seen, seen


def family_variants(binding, item, rng):
    """(what, carrier, family, environment): the family as bound, then a
    component flipped, dropped, keyed outside the carrier (beside the
    others, and in place of a dropped one: both read key by key), and a
    carrier whose compose table lacks a pair."""
    label, gpd, _, _, _ = binding
    sym, fam, env = item
    comps = fam.components
    outside = ("zz",) * fam.arity
    idx = rng.choice(sorted(comps))
    dropped = {k: v for k, v in comps.items() if k != idx}
    yield f"{label} {sym}", gpd, fam, env
    yield f"{label} {sym} flipped", gpd, random_flip(gpd, fam, rng)[0], env
    for what, table in ((f"without {idx}", dropped), ("keyed outside", {**comps, outside: comps[idx]}),
                        (f"keyed outside for {idx}", {**dropped, outside: comps[idx]})):
        yield f"{label} {sym} {what}", gpd, replace(fam, components=table, _cache={}), env
    pair = rng.choice(sorted(gpd.compose))
    yield (f"{label} {sym}, compose without {pair}",
           replace(gpd, compose={k: v for k, v in gpd.compose.items() if k != pair}), fam, env)


FAMILIES = list(once(families, lambda item: id(item[1])))
FAMILY_CASES = [case for i, (binding, item) in enumerate(FAMILIES)
                for case in family_variants(binding, item, random.Random(SEED + i))]


def endpoint_program(gpd, fam, env):
    law = groupoid._family_laws(fam.arity, fam.src_expr, fam.tgt_expr)[0]
    return _Program(law, gpd, gpd.objects_sorted, groupoid._family_env(law, fam, env, gpd))


@pytest.mark.parametrize("case", FAMILY_CASES, ids=[c[0] for c in FAMILY_CASES])
def test_endpoint_rows_equal_the_reference_rows(case, monkeypatch):
    # the row and the strict bit it leaves, every loop in the kernel
    # against none and against the old scan
    what, gpd, fam, env = case

    def run(kernel):
        forced(kernel, monkeypatch)
        copy = replace(fam, _cache={})
        return outcome(lambda: validate_family(gpd, copy, env, label="f").checks[0]), _strict_bit(copy, gpd, env)

    report, bit = reference_endpoints(gpd, replace(fam, _cache={}), env, label="f")
    assert run(True) == run(False) == (outcome(lambda: report.checks[0]), bit), what


@pytest.mark.parametrize("case", FAMILY_CASES, ids=[c[0] for c in FAMILY_CASES])
def test_dense_and_sparse_encodings_give_equal_arrays(case, monkeypatch):
    # a family keyed by exactly the tuples of declared objects (every
    # fixture family) is read densely, any other key by key; the arrays
    # are the same either way
    what, gpd, fam, env = case
    fam = replace(fam, _cache={})  # an empty memo: no record is read
    dense = endpoint_program(gpd, fam, env)
    total = fam.components.keys() == set(product(gpd.objects_sorted, repeat=fam.arity))
    assert total or "outside" in what or "without" in what, what
    assert (dense._dense(fam.components, (0,) * fam.arity) is not None) is total, what
    monkeypatch.setattr(_Program, "_dense", lambda self, table, levels: None)
    monkeypatch.delitem(gpd._cache, "codes", raising=False)  # no kept codes: every table is encoded again
    sparse = endpoint_program(gpd, fam, env)
    assert dense.arrays.keys() == sparse.arrays.keys(), what
    for key, (flat, sizes) in dense.arrays.items():
        assert sizes == sparse.arrays[key][1] and np.array_equal(flat, sparse.arrays[key][0]), (what, key)


@pytest.mark.parametrize("binding, item", FAMILIES, ids=[f"{b[0]} {item[0]}" for b, item in FAMILIES])
def test_an_endpoint_law_failing_only_on_the_carrier_scans_on_in_the_kernel(binding, item, monkeypatch):
    # the compose table lacks φ(v)∘id(S(v)) at the first index: the law
    # fails there (and wherever that pair recurs) while the component is
    # right, so the body writes nothing and the scan goes on, over every
    # failing tuple the kernel yields
    label, gpd, _, _, _ = binding
    sym, fam, env = item
    idx = gpd.objects_sorted[:1] * fam.arity
    pair = (fam.components[idx], gpd.identity[eval_obj(fam.src_expr, env, idx)])
    broken = replace(gpd, compose={k: v for k, v in gpd.compose.items() if k != pair})

    def run(kernel):
        forced(kernel, monkeypatch)
        copy = replace(fam, _cache={})
        return outcome(lambda: validate_family(broken, copy, env, label=sym).checks[0]), _strict_bit(copy, broken, env)

    kernel = run(True)
    assert kernel == run(False), (label, sym)
    assert kernel[0][1].value == "pass", (label, sym)


@pytest.mark.parametrize("label", ["super-line", "twisted3", "dual3-ac"])
def test_the_integer_draw_over_morphisms_is_the_reference_draw(label):
    gpd = next(b[1] for b in BINDINGS if b[0] == label)
    mors = gpd.morphisms_sorted
    for arity, count, seed in ((1, 500, 3), (3, 2000, SEED), (4, 700, 11)):
        got = sample_positions(len(mors), arity, count, seed)
        assert [tuple(mors[p] for p in row) for row in got.tolist()] == _sample_tuples(mors, arity, count, seed)


@pytest.mark.parametrize("n, arity, count, seed", [
    (25, 5, 1000, 7), (9, 8, 500, 3), (1, 3, 10, 0), (6, 4, 999, 123456789), (4, 8, 4096, 1),
    (2, 1, 300, SEED), (36, 5, 2000, SEED), (64, 2, 100, 5), (25, 5, 20000, SEED),  # the last over two draws
    (255, 3, 2000, SEED), (256, 3, 2000, SEED), (257, 3, 2000, SEED),  # one and two bytes a position
])
def test_the_integer_draw_is_the_reference_draw(n, arity, count, seed):
    got = sample_positions(n, arity, count, seed)
    assert got.shape == (count, arity) and got.dtype == np.min_scalar_type(n) and not got.flags.writeable
    with pytest.raises(ValueError):
        got[0, 0] = 0
    assert [tuple(r) for r in got.tolist()] == _sample_tuples(range(n), arity, count, seed)


@pytest.mark.parametrize("label", ["dual2-sm", "twisted3"])
def test_canonical_acomm_arrays_equal_the_memoized_composites(label, monkeypatch):
    # b as the kernel computes it against a plain family holding
    # canonical_acomm_at's values: equal at every tuple, and the computed
    # family's string memo stays empty
    m = build_dual_numbers_2group(2, "sm") if label == "dual2-sm" else coboundary_twisted_dual_numbers(3)
    fresh = replace(m)
    objs = m.carrier.objects_sorted
    xs = tuple(map(ex.var, range(4)))
    law = ex.Law("b", 4, [ex.fam("b", *xs)], [ex.fam("memo", *xs)])
    table = {idx: canonical_acomm_at(m, *idx) for idx in index_space(objs, 4)[0]}
    env = {"b": (_canonical_acomm(fresh), None), "memo": (NatFamily(4, table, None, None), None)}
    monkeypatch.setattr(diagram, "KERNEL_FLOOR", 0)
    monkeypatch.setattr(diagram, "REFERENCE_HEAD", 0)
    res = diagram.check_diagram(law, m.carrier, objs, env)
    assert (res.status.value, res.instances) == ("pass", len(objs) ** 4)
    assert len(_canonical_acomm(fresh)) == 0
    assert _canonical_acomm(fresh).is_strict() is (label == "dual2-sm")
    # and a single changed value is found where it sits
    idx = sorted(table)[len(table) // 2]
    other = next(f for f in m.carrier.hom(*[m.carrier.morphisms[table[idx]].src] * 2) if f != table[idx])
    env["memo"] = (NatFamily(4, {**table, idx: other}, None, None), None)
    res = diagram.check_diagram(law, m.carrier, objs, env)
    assert (res.witness.index, res.witness.right) == (idx, other)
    assert res.instances == sorted(table).index(idx) + 1


@pytest.mark.parametrize("separating", [False, True], ids=["coherent", "separating"])
def test_kernel_rows_equal_the_reference_rows_on_the_kappa_twisted_rings(separating, monkeypatch):
    # the first rings whose 2R laws read a non-strict canonical b in the
    # kernel: JP and Quang forced full and sampled, every loop in the kernel
    # against every loop in the reference
    monkeypatch.setattr(diagram, "REFERENCE_HEAD", 0)

    def rows(kernel):  # a fresh ring, so its data rows are scanned under this setting too
        ring = kappa_twisted_2ring(3, separating)
        monkeypatch.setattr(diagram, "KERNEL_FLOOR", 0 if kernel else float("inf"))
        return ring, [(c.law, c.status, c.instances, c.mode, c.witness)
                      for sample in (None, SAMPLE) for suite in (validate_jp, validate_quang)
                      for c in suite(ring, sample=sample, seed=SEED, allow_strict_skip=False).checks]

    ring, kernel = rows(True)
    assert len(_canonical_acomm(ring.add)) == 0  # the kernel computed b, never read the memo
    assert kernel == rows(False)[1]
    assert any(row[1].value == "fail" for row in kernel) is separating


# -- the code columns kept on the carrier ---------------------------------------


def kept(gpd):
    """The tables whose code columns ``gpd`` keeps."""
    return [held[0] for held, _, _ in gpd._cache.get("codes", ())]


@pytest.fixture
def encodes(monkeypatch):
    """The tables the programs encode (rather than read from their
    carrier), in order."""
    seen = []
    encode = _Program._encode
    monkeypatch.setattr(_Program, "_encode",
                        lambda self, table, *args: seen.append(table) or encode(self, table, *args))
    return seen


def suite_rows(ring, kernel, monkeypatch, **kwargs):
    """The rows of Quang's and JP's suites forced full, every loop in the
    kernel or none."""
    forced(kernel, monkeypatch)
    return [(c.law, c.status, c.instances, c.mode, c.witness) for suite in (validate_quang, validate_jp)
            for c in suite(ring, allow_strict_skip=False, **kwargs).checks]


RINGS = {"kappa coherent": lambda: kappa_twisted_2ring(3, False),
         "kappa separating": lambda: kappa_twisted_2ring(3, True),
         "z6": lambda: build_strict_2ring(ring_zmod(6))}


@pytest.mark.parametrize("label", sorted(RINGS))
def test_a_second_run_reads_the_kept_codes_and_gives_the_reference_rows(label, encodes, monkeypatch):
    ring, = fresh(RINGS[label]())
    reference = suite_rows(*fresh(ring), False, monkeypatch)
    first = suite_rows(ring, True, monkeypatch)
    tables = kept(ring.carrier)
    assert tables and all(sum(t is table for t in encodes) == 1 for table in tables), label
    encodes.clear()
    assert suite_rows(ring, True, monkeypatch) == first == reference, label
    assert encodes and not any(t is table for t in encodes for table in tables), label


def test_a_sum_valued_outside_the_carrier_is_not_kept(encodes, monkeypatch):
    # z6's product sent at one pair to an undeclared id, on z6's carrier:
    # its rows are the reference's before and after z6's own rows keep the
    # carrier's tables, and its table is encoded again by every run
    z6, = fresh(build_strict_2ring(ring_zmod(6)))
    key = sorted(z6.mul.sum_mor)[7]
    bad = replace(z6, mul=replace(z6.mul, sum_mor={**z6.mul.sum_mor, key: "zz"}, _cache={}), _cache={})
    assert bad.carrier is z6.carrier
    reference = suite_rows(*fresh(bad), False, monkeypatch, check_data=False)
    assert any(row[1].value == "fail" for row in reference)
    assert suite_rows(bad, True, monkeypatch, check_data=False) == reference
    assert kept(z6.carrier) and all(t is not bad.mul.sum_mor for t in kept(z6.carrier))
    suite_rows(z6, True, monkeypatch)
    assert any(t is z6.mul.sum_mor for t in kept(z6.carrier))
    encodes.clear()
    assert suite_rows(bad, True, monkeypatch, check_data=False) == reference
    assert all(t is not bad.mul.sum_mor for t in kept(z6.carrier))
    assert any(t is bad.mul.sum_mor for t in encodes)


def test_a_second_validate_sm_at_m5_encodes_no_kept_table(encodes):
    sm5, = fresh(build_dual_numbers_2group(5, "sm"))
    first = validate_sm(sm5, allow_strict_skip=False)
    tables = kept(sm5.carrier)
    assert first.ok and tables and all(sum(t is table for t in encodes) == 1 for table in tables)
    encodes.clear()
    again = validate_sm(sm5, allow_strict_skip=False)
    assert [(c.law, c.status, c.instances, c.mode, c.witness) for c in again.checks] == \
        [(c.law, c.status, c.instances, c.mode, c.witness) for c in first.checks]
    assert encodes and not any(t is table for t in encodes for table in tables)


def test_a_forced_full_quang_on_the_kappa_twisted_m5_ring_encodes_each_carrier_table_once(encodes):
    # each 2R1 row is 25 engine calls, one per fixed object, over one carrier
    ring, = fresh(kappa_twisted_2ring(5, False))
    report = validate_quang(ring, allow_strict_skip=False)
    assert report.ok and report["2R1/left-assoc"].instances == 25 ** 4
    tables = kept(ring.carrier)
    read = [ring.carrier.composable, ring.carrier.identity, ring.dist_l.components, ring.dist_r.components,
            *(table for m in (ring.add, ring.mul) for table in (m.sum_obj, m.sum_mor))]
    assert all(any(t is table for t in tables) for table in read)
    assert [sum(t is table for t in encodes) for table in tables] == [1] * len(tables)


def child(code: str) -> str:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout


ROWS = """
import json, sys
from dataclasses import replace
import twogrp as tg
ring = tg.build_derivation_2ring(3)
d = dict(ring.dist_l.components)
key = ("2+2e", "2+2e", "2+2e")
label, obj = d[key].split("|")
d[key] = f"{(int(label) + 1) % 3}|{obj}"
flipped = replace(ring, dist_l=replace(ring.dist_l, components=d))
reports = [tg.validate_ac(tg.build_dual_numbers_2group(2), sample=sample, seed=3, allow_strict_skip=False)
           for sample in (None, 40000)]
reports += [tg.validate_jp(r, sample=sample, seed=3, allow_strict_skip=False)
            for r in (ring, flipped) for sample in (None, 40000)]
rows = []
for rep in reports:
    for c in rep.checks:
        w = c.witness and [c.witness.index, c.witness.left, c.witness.right, c.witness.left_path,
                           c.witness.right_path, c.witness.note]
        rows.append([c.law, c.status.value, c.instances, c.mode, w])
print(json.dumps({"numpy": "numpy" in sys.modules and sys.modules["numpy"] is not None, "rows": rows}))
"""


def test_without_numpy_the_reference_gives_the_same_rows():
    # AC1 on the 4-object dual numbers (4^8 instances) and 2R1' on the
    # 9-object derivation ring (9^5) are above the floor: the kernel runs
    # them here and the reference in the child; with d changed at its last
    # index, 2R1'/d first fails past the head
    assert 4 ** 8 >= diagram.KERNEL_FLOOR and 9 ** 5 >= diagram.KERNEL_FLOOR
    with_numpy = json.loads(child(ROWS))
    blocked = json.loads(child("import sys; sys.modules['numpy'] = None\n" + ROWS))
    assert with_numpy["numpy"] and not blocked["numpy"]
    assert with_numpy["rows"] == blocked["rows"]
    late = [r for r in blocked["rows"] if r[0] == "2R1-prime/d" and r[1] == "fail" and r[3] == "exhaustive"]
    assert late and late[0][2] > diagram.REFERENCE_HEAD


def test_small_jobs_do_not_import_numpy():
    # the AF1 control at m=3 (9^4 = 6,561 instances) stays below the floor;
    # AF1 at m=4 (16^4 = 65,536) with a changed monoidality component is
    # above it, and fails within the head
    out = child(
        "import sys\n"
        "import twogrp as tg\n"
        "from twogrp import diagram\n"
        "ac = tg.build_dual_numbers_2group(3)\n"
        "rep = tg.validate_ac_functor(tg.build_mult_endofunctor(3, 1, 2, ac), ac, ac)\n"
        "assert rep['AF1'].mode == 'exhaustive' and rep['AF1'].instances == 9 ** 4, rep.lines()\n"
        "ac = tg.build_dual_numbers_2group(4)\n"
        "fun = tg.build_mult_endofunctor(4, 1, 2, ac)\n"
        "comps = dict(fun.fsum.components)\n"
        "key = ('3+3e', '3+3e')\n"
        "label, obj = comps[key].split('|')\n"
        "comps[key] = f'{(int(label) + 1) % 4}|{obj}'\n"
        "bad = tg.StructuredFunctor(fun.base, tg.functors.fsum_family(comps))\n"
        "row = tg.validate_ac_functor(bad, ac, ac)['AF1']\n"
        "assert row.status.value == 'fail' and row.instances <= diagram.REFERENCE_HEAD, row.line()\n"
        "assert 16 ** 4 >= diagram.KERNEL_FLOOR\n"
        "print('numpy' in sys.modules)\n"
    )
    assert out.strip() == "False"


# -- the m=5 rows between the floor and 2^15 --------------------------------------


@functools.cache
def m5_cases():
    ac5, sm5 = build_dual_numbers_2group(5), build_dual_numbers_2group(5, "sm")
    ring = build_strict_2ring(ring_dual_numbers(5))
    # d changed at its last index to another object's identity: its endpoint
    # and naturality rows fail at their last instance, past the head
    comps = ring.dist_l.components
    last = comps.values()[-1]
    other = next(i for i in ring.carrier.identity.values() if i != last)
    flipped = replace(ring, dist_l=replace(ring.dist_l, components=ring.carrier.product_table(
        3, [*comps.values()[:-1], other])))

    def family_rows(ring):
        return [validate_family(ring.carrier, ring.dist_l, ring.env(), label="d"), check_structure_naturality(ring)]

    return {
        "SF F_even": ((build_mult_endofunctor(5, 2, 0, ac5), sm5),
                      lambda fun, sm: [validate_sm_functor(fun, sm, sm, allow_strict_skip=False)]),
        "SF F_odd": ((build_mult_endofunctor(5, 1, 3, ac5), sm5),
                     lambda fun, sm: [validate_sm_functor(fun, sm, sm, allow_strict_skip=False)]),
        "SC twin": ((sm5,), lambda sm: [validate_sm(sm, check_data=False, allow_strict_skip=False)]),
        "d flipped": ((flipped,), family_rows),
    }


@pytest.mark.parametrize("case", ["SF F_even", "SF F_odd", "SC twin", "d flipped"])
def test_the_m5_rows_across_the_floor_equal_the_reference_rows(case, monkeypatch):
    # every loop of 2^13 instances or more runs in the kernel here and in
    # the reference below; each side validates fresh copies, so no record
    # of one is read by the other
    assert 5 ** 6 >= diagram.KERNEL_FLOOR
    objs, run = m5_cases()[case]
    decided = []
    failures = _kernel.failures
    monkeypatch.setattr(_kernel, "failures", lambda law, *args: decided.append(law.name) or failures(law, *args))

    def rows():
        return [(c.law, c.status, c.instances, c.mode, c.witness) for rep in run(*fresh(*objs)) for c in rep.checks]

    kernel = rows()
    monkeypatch.setattr(diagram, "KERNEL_FLOOR", float("inf"))
    assert kernel == rows()
    status = {row[0]: (row[1].value, row[2]) for row in kernel}
    if case == "SF F_even":
        assert status["SF1"] == ("pass", 5 ** 6) and "SF1" in decided
    elif case == "SF F_odd":
        assert status["SF1"][0] == "fail"
    elif case == "SC twin":
        assert [status[f"SC{i}"][0] for i in range(1, 5)] == ["pass"] * 4 and "SC3" in decided
    else:
        assert status["d-endpoints"] == status["naturality(d)"] == ("fail", 5 ** 6)
        assert status["naturality(e)"] == ("pass", 5 ** 6)
        assert sorted(decided) == ["endpoints", "naturality", "naturality"]


# -- the head once the kernel is loaded -----------------------------------------


def test_with_the_kernel_loaded_a_long_row_runs_only_the_short_head(monkeypatch):
    # the failing SF1 of F_odd still fails within the short head of the
    # nested-loop scan, so it encodes no table; the passing SF1 of F_even
    # scans only the short head and the rest in the kernel.  The scan
    # yields exactly the reference's failing tuples below its stop
    # (test_scan), and the reference loop composes only what it yields
    assert diagram._load_kernel() is _kernel
    short = min(diagram.REFERENCE_HEAD, diagram.LOADED_HEAD)
    programs, rows = [], {}
    init, long_scan = _Program.__init__, diagram._long_scan
    monkeypatch.setattr(_Program, "__init__",
                        lambda self, law, *args: programs.append(law.name) or init(self, law, *args))

    def counted(law, gpd, values, env, routes, *rest):
        legs, composites, scan = routes
        stops, composed = [], []
        spied = (legs, lambda idx: composed.append(idx) or composites(idx),
                 lambda values, stop: stops.append(stop) or scan(values, stop))
        checked, witness = long_scan(law, gpd, values, env, spied, *rest)
        rows[law.name] = (witness is None, stops, len(composed))
        return checked, witness

    monkeypatch.setattr(diagram, "_long_scan", counted)
    for case, passes in (("SF F_odd", False), ("SF F_even", True)):
        objs, run = m5_cases()[case]
        programs.clear()
        sf1 = next(c for rep in run(*fresh(*objs)) for c in rep.checks if c.law == "SF1")
        assert (sf1.status.value == "pass") == passes and rows["SF1"][0] == passes, case
        if passes:
            assert sf1.instances == 5 ** 6 and rows["SF1"][1:] == ([short], 0) and "SF1" in programs
        else:
            assert sf1.instances == 6 and rows["SF1"][1:] == ([short], 1) and "SF1" not in programs
    assert all(stops == [short] for held, stops, _ in rows.values() if held)


# -- one draw per sampled space --------------------------------------------------


@pytest.fixture
def draws(monkeypatch):
    """The seed of each fresh draw (a generator started from its seed), with
    no stream kept at the start, and the arguments of each request."""
    seeds, calls = [], []
    generator, positions = _kernel._generator, _kernel.sample_positions
    monkeypatch.setattr(_kernel, "_kept", (None, None, None))
    monkeypatch.setattr(_kernel, "_generator", lambda seed: seeds.append(seed) or generator(seed))
    monkeypatch.setattr(_kernel, "sample_positions", lambda *args: calls.append(args) or positions(*args))
    return SimpleNamespace(seeds=seeds, calls=calls)


def test_the_sampled_rows_of_one_space_share_one_draw(draws):
    # the sampled 2-ring laws have arities 4 and 5 over the 25 objects:
    # every row takes a prefix of one stream
    ring, = fresh(build_strict_2ring(ring_dual_numbers(5)))
    report = validate_jp(ring, sample=10000, seed=SEED, allow_strict_skip=False)
    assert report.ok and {c.mode for c in report.checks if c.instances == 10000} == {f"sampled(n=10000,seed={SEED})"}
    assert {arity for _, arity, _, _ in draws.calls} == {4, 5}
    assert draws.seeds == [SEED]


def test_another_seed_or_n_draws_afresh_and_a_longer_need_extends(draws):
    # only the last stream is kept: the first, asked for again at the end,
    # is drawn afresh
    requests = ((25, 5, 1000, 7), (25, 5, 1000, 7), (25, 4, 1200, 7), (25, 5, 1000, 8), (25, 5, 30000, 8),
                (26, 5, 30000, 8), (25, 5, 1000, 7))
    for n, arity, count, seed in requests:
        got = _kernel.sample_positions(n, arity, count, seed)
        assert [tuple(r) for r in got.tolist()] == _sample_tuples(range(n), arity, count, seed)
    assert draws.seeds == [7, 8, 8, 7]


@pytest.mark.parametrize("n", [1, 2, 25, 255, 256, 257])
@pytest.mark.parametrize("seed", [0, 1, (1 << 40) + 7, -3])
@pytest.mark.parametrize("long_first", [False, True], ids=["short-first", "long-first"])
def test_the_kept_stream_gives_the_reference_draw_in_either_order(n, seed, long_first, monkeypatch):
    # the long request needs more outputs than one generator draw holds
    monkeypatch.setattr(_kernel, "_kept", (None, None, None))
    requests = [(2, 700), (3, 30000)]
    assert 3 * 30000 > _kernel.DRAW
    for arity, count in requests[::-1] if long_first else requests:
        got = _kernel.sample_positions(n, arity, count, seed)
        assert got.shape == (count, arity) and got.dtype == np.min_scalar_type(n) and not got.flags.writeable
        with pytest.raises(ValueError):
            got[0, 0] = 0
        assert [tuple(r) for r in got.tolist()] == _sample_tuples(range(n), arity, count, seed)


# -- every family read through its table, large tables held narrow ------------------


def test_a_large_table_is_held_narrow_and_gives_the_reference_rows(monkeypatch):
    # the m=5 associator (26^3 slots) and AC family b (26^4) exceed a block,
    # so each is held in int8, its 125 morphism codes and -1; the
    # composable pairs (126^2 slots) do not; SC1 (exhaustive), AC1 and b's
    # endpoint law (sampled over two blocks) and a's pass as bound and give
    # the reference rows with the component at the first drawn tuple
    # flipped to a parallel morphism, dropped or an unknown id
    sm5, ac5 = fresh(build_dual_numbers_2group(5, "sm"), build_dual_numbers_2group(5))
    gpd, objs = sm5.carrier, sm5.carrier.objects_sorted
    assert (len(objs) + 1) ** 3 > _kernel.BLOCK >= (len(gpd.morphisms) + 1) ** 2
    statuses = set()
    for s, sym, law, sample in ((sm5, "a", SM_LAWS[0], None), (ac5, "b", AC_LAWS[0], 20000)):
        assert (law.name, s.carrier) == (("SC1", "AC1")[sym == "b"], gpd)
        bound = s.law_env()
        fam, fenv = bound[sym]
        comps = fam.components
        idx = tuple(objs[p] for p in sample_positions(len(objs), fam.arity, 1, SEED)[0])
        arrays = _Program(law, gpd, objs, bound).arrays
        assert arrays[id(comps), (0,) * fam.arity, 1][0].dtype == np.int8, sym
        assert arrays[id(gpd.composable), (1, 1), 1][0].dtype == np.intp, sym
        endpoints = groupoid._family_laws(fam.arity, fam.src_expr, fam.tgt_expr)[0]
        for what, table in (("as bound", comps), ("flipped", {**comps, idx: parallel_morphisms(gpd, comps[idx])[0]}),
                            ("without", {k: v for k, v in comps.items() if k != idx}),
                            ("unknown", {**comps, idx: "zz|0"})):
            env = with_table(bound, None, (sym, "fam"), table)[0]
            for law_, env_ in ((law, env), (endpoints, groupoid._family_env(endpoints, env[sym][0], fenv, gpd))):
                args = (law_, gpd, objs, env_, sample)
                kernel = row(*args, True, monkeypatch)
                if what == "as bound":  # the strict structure holds at every tuple
                    assert (kernel[0].value, kernel[1]) == ("pass", sample or len(objs) ** law_.arity), law_.name
                else:
                    assert kernel == row(*args, False, monkeypatch), (sym, what, law_.name)
                statuses.add((sym, what, law_.name, kernel[0].value))
    assert {("a", "flipped", "SC1", "fail"), ("a", "without", "endpoints", "fail"),
            ("b", "unknown", "endpoints", "fail"), ("b", "flipped", "endpoints", "pass")} <= statuses, statuses


STRICT = {"dual3-sm": lambda: build_dual_numbers_2group(3, "sm"), "dual2-ac": lambda: build_dual_numbers_2group(2),
          "z4": lambda: build_strict_2ring(ring_zmod(4)), "z3e": lambda: build_strict_2ring(ring_dual_numbers(3))}


def strict_fixture(label):
    """A fresh copy of the fixture and its suites; for ``z3e reassigned``
    the ring whose d is given a flipped table after the data rows recorded
    its strict bit."""
    s, = fresh(STRICT[label.split()[0]]())
    if hasattr(s, "dist_l"):
        suites = (validate_jp, validate_quang)
    else:
        suites = (validate_ac,) if hasattr(s, "acomm") else (validate_sm,)
    if label.endswith("reassigned"):
        assert validate_two_ring_data(s).ok and _strict_bit(s.dist_l, s.carrier, s.env())
        s.dist_l.components = random_flip(s.carrier, s.dist_l, random.Random(SEED))[0].components
    return s, suites


@pytest.mark.parametrize("label", [*STRICT, "z3e reassigned"])
@pytest.mark.parametrize("sample", [None, SAMPLE], ids=["full", "sampled"])
def test_a_strict_family_read_through_its_table_gives_the_reference_rows(label, sample, monkeypatch):
    # the data rows record each family's strict bit; the law rows, with no
    # strict profile taken, read the families' tables in the kernel
    def rows(kernel):
        s, suites = strict_fixture(label)
        forced(kernel, monkeypatch)
        out = [(c.law, c.status, c.instances, c.mode, c.witness) for suite in suites
               for c in suite(s, sample=sample, seed=SEED, allow_strict_skip=False).checks]
        return s, out

    s, kernel = rows(True)
    bits = [_strict_bit(fam, s.carrier, s.env()) for fam in s.families().values()]
    assert kernel == rows(False)[1], label
    if label.endswith("reassigned"):
        assert not bits[0] and all(bits[1:]) and any(r[1].value == "fail" for r in kernel)
    else:
        assert all(bits) and all(r[1].value == "pass" for r in kernel), label


@pytest.mark.parametrize("label", ["dual3-sm ", "z3e-sm ", "dual3 F(1,1) sm "], ids=str.strip)
def test_sampled_positions_read_as_codes_give_the_gathered_failures(label, monkeypatch):
    # the values are the carrier's ids, coded first: the positions are cast
    # to codes; with the values taken as other codes, they are gathered
    failing = 0
    for _, gpd, objs, env, laws in (b for b in FLIPPED if b[0].startswith(label)):
        for law in laws:
            program = _Program(law, gpd, objs, env)
            assert program.values == list(range(len(objs))), law.name
            positions = sample_positions(len(objs), law.arity, 20000, SEED)
            cast = list(program.sampled(positions))
            monkeypatch.setattr(program, "values", tuple(program.values))  # never equal to a list
            assert list(program.sampled(positions)) == cast, law.name
            failing += bool(cast)
    assert failing
