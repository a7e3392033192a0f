"""The numpy block kernel against the reference loop.

Every law of every fixture binding (the set ``test_laws`` compares the
compiled legs on, with seeded single-component flips, dropped table
entries and malformed tables) is checked twice through
``diagram.check_diagram``: once with the kernel floor at zero, so every
loop runs in the kernel, and once with it out of reach, so every loop runs
the reference.  Both give the same row: status, instances, mode and every
witness field.  The integer draw and the canonical associo-commutator
arrays are held to their string counterparts, and two child processes show
the stdlib-only path and the lazy numpy import."""

import json
import os
import random
import subprocess
import sys
from dataclasses import replace

import pytest

pytest.importorskip("numpy")

from twogrp import build_dual_numbers_2group, canonical_acomm_at, diagram  # noqa: E402
from twogrp import expr as ex  # noqa: E402
from twogrp._kernel import sample_positions  # noqa: E402
from twogrp.ac import _canonical_acomm  # noqa: E402
from twogrp.groupoid import NatFamily, _sample_tuples, index_space  # noqa: E402

from helpers import (  # noqa: E402
    SEED,
    coboundary_twisted_dual_numbers,
    flipped_bindings,
    law_bindings,
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
