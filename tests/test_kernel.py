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
the lazy numpy import."""

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
from twogrp import groupoid  # noqa: E402
from twogrp import expr as ex  # noqa: E402
from twogrp._kernel import _Program, sample_positions  # noqa: E402
from twogrp.ac import _canonical_acomm  # noqa: E402
from twogrp.groupoid import NatFamily, _sample_tuples, _strict_bit, index_space, validate_family  # noqa: E402
from twogrp.monoidal import INTERCHANGE, _check_bifunctor  # noqa: E402

from helpers import (  # noqa: E402
    SEED,
    coboundary_twisted_dual_numbers,
    flipped_bindings,
    kappa_twisted_2ring,
    law_bindings,
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
                                              "z4-sm", "z4-ac", "derivation2")]


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


def families(binding):
    """(symbol, family, environment its endpoints are typed in) for each
    family ``binding`` binds."""
    for sym, (fam, fenv, *_) in sorted(binding[3].items()):
        if isinstance(fam, NatFamily) and isinstance(fenv, dict):
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
    ``binding`` binds."""
    for sym, b in sorted(binding[3].items()):
        if isinstance(b[0], dict) and isinstance(b[1], dict) and b[1] \
                and all(type(k) is tuple and len(k) == 2 for k in b[1]):
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

    def data_row():
        report = Report()
        _check_bifunctor(sum_structure(gpd, plus_obj, plus), report)
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
    fam = replace(fam, _cache={})  # no strict bit: the table is read
    dense = endpoint_program(gpd, fam, env)
    total = fam.components.keys() == set(product(gpd.objects_sorted, repeat=fam.arity))
    assert total or "outside" in what or "without" in what, what
    assert (dense._dense(fam.components, (0,) * fam.arity) is not None) is total, what
    monkeypatch.setattr(_Program, "_dense", lambda self, table, levels: None)
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
    pair = (fam.components[idx], gpd.identity[ex.compile_obj(fam.src_expr, env)(idx)])
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
])
def test_the_integer_draw_is_the_reference_draw(n, arity, count, seed):
    got = sample_positions(n, arity, count, seed)
    assert got.shape == (count, arity)
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
    ring = kappa_twisted_2ring(3, separating)
    monkeypatch.setattr(diagram, "REFERENCE_HEAD", 0)

    def rows(kernel):
        monkeypatch.setattr(diagram, "KERNEL_FLOOR", 0 if kernel else float("inf"))
        return [(c.law, c.status, c.instances, c.mode, c.witness)
                for sample in (None, SAMPLE) for suite in (validate_jp, validate_quang)
                for c in suite(ring, sample=sample, seed=SEED, allow_strict_skip=False).checks]

    kernel = rows(True)
    assert len(_canonical_acomm(ring.add)) == 0  # the kernel computed b, never read the memo
    assert kernel == rows(False)
    assert any(row[1].value == "fail" for row in kernel) is separating


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
    # index, 2R1'/d first fails past the reference head
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
    # above it, and fails within the reference head
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
