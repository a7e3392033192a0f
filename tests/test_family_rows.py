"""The family rows that are declared laws, held to the hand-written scans.

``groupoid.validate_family`` (the endpoint row) and ``check_naturality``
run the endpoint and naturality laws of ``groupoid._family_laws`` through
the diagram engine.  ``helpers.reference_endpoints`` and
``helpers.reference_naturality`` are the scans they replaced.  Every family
of the ``law_bindings`` fixtures, the kappa-twisted rings and a
transformation's tau is checked as built and after seeded damage: a
component flipped to a parallel morphism or to one with other endpoints, a
component dropped, and an entry dropped from a sum, a functor map or the
carrier's compose table.  Both give the same row (status, instances, mode,
the whole witness) or raise the same error, and the endpoint row leaves the
strict bit its closing test gives.  Naturality rows are compared
exhaustively and sampled, with every loop in the numpy kernel and with none.

The CLI part writes mutants of the dn2, super-line and z4 documents that
reassign one family component to another declared id, and runs every suite
that reads the family: exit 1, never 2 or a traceback, and a mutant that
breaks the component's endpoints fails first at ``<family>-endpoints``.
The same documents' sums, with each morphism entry reassigned to every
other declared id, give the bifunctor row of ``helpers.reference_bifunctor``
(the pair loop the sum's interchange law replaced), with every loop in the
kernel and with none.
"""

import contextlib
import io
import json
import random
import re
from collections import Counter
from dataclasses import replace

import pytest

from twogrp import build_dual_numbers_2group, build_mult_endofunctor, diagram
from twogrp import expr as ex
from twogrp.cli import main
from twogrp.document import parse_document
from twogrp.functors import functor_env, tau_family
from twogrp.groupoid import NatFamily, _strict_bit, check_naturality, validate_family
from twogrp.monoidal import _check_bifunctor
from twogrp.report import Report

from helpers import (
    SEED,
    kappa_twisted_2ring,
    law_bindings,
    pair_groupoid_z2,
    parallel_morphisms,
    reference_bifunctor,
    reference_endpoints,
    reference_naturality,
)

SAMPLE = 300
EXHAUSTIVE = 1 << 12  # naturality spaces above this are compared on the sample only


def _families():
    """(label, carrier, family, environment) for every family the fixtures
    bind with the environment its endpoints are typed in, each once."""
    seen, out = set(), []
    for label, gpd, _, env, _ in law_bindings():
        for sym, binding in sorted(env.items()):
            fam, fenv = binding[0], binding[1]
            if isinstance(fam, NatFamily) and isinstance(fenv, dict) and id(fam) not in seen:
                seen.add(id(fam))
                out.append((f"{label} {sym}", gpd, fam, fenv))
    for m in (2, 3):
        for sep in (False, True):
            ring = kappa_twisted_2ring(m, sep)
            out += [(f"kappa{m}{'-sep' * sep} {name}", ring.carrier, fam, ring.env())
                    for name, fam in ring.families().items()]
    sm = build_dual_numbers_2group(3, "sm")
    fun = build_mult_endofunctor(3, 1, 1, sm)
    tau = tau_family({(x,): sm.carrier.identity[fun.base.obj_map[x]] for x in sm.carrier.objects})
    out.append(("dual3 tau", sm.carrier, tau, {"F": (fun.base.obj_map, fun.base.mor_map),
                                              "G": (fun.base.obj_map, fun.base.mor_map)}))
    out.append(("dual3 fsum", sm.carrier, fun.fsum, functor_env(fun, sm, sm)))
    # a connected carrier, where a parallel flip breaks a square
    pair = pair_groupoid_z2()
    out.append(("pair-z2 id", pair, NatFamily(1, {(o,): pair.identity[o] for o in pair.objects}, ex.var(0),
                                              ex.var(0)), {}))
    return out


FAMILIES = _families()


def _without(table, key):
    return {k: v for k, v in table.items() if k != key}


def _variants(gpd, fam, env, rng):
    """(label, carrier, family, environment): as built, then each kind of
    seeded damage the family's tables allow."""
    yield "as built", gpd, fam, env
    idx = rng.choice(sorted(fam.components))
    old = fam.components[idx]
    flip = lambda new: replace(fam, components={**fam.components, idx: new}, _cache={})  # noqa: E731
    if parallel_morphisms(gpd, old):
        yield f"{idx} -> parallel", gpd, flip(rng.choice(parallel_morphisms(gpd, old))), env
    m = gpd.morphisms[old]
    others = [f for f in gpd.morphisms_sorted if (gpd.src(f), gpd.dst(f)) != (m.src, m.dst)]
    if others:
        yield f"{idx} -> other endpoints", gpd, flip(rng.choice(others)), env
    yield f"{idx} dropped", gpd, replace(fam, components=_without(fam.components, idx), _cache={}), env
    for sym in sorted(env):
        for slot, table in enumerate(env[sym][:2]):
            if table:
                key = rng.choice(sorted(table))
                tables = tuple(_without(t, key) if i == slot else t for i, t in enumerate(env[sym]))
                yield f"{sym}[{slot}] without {key}", gpd, fam, {**env, sym: tables}
    pair = rng.choice(sorted(gpd.compose))
    yield f"compose without {pair}", replace(gpd, compose=_without(gpd.compose, pair), _cache={}), fam, env


CASES = [(f"{label} [{what}]", *case)
         for (label, gpd, fam, env), rng in zip(FAMILIES, (random.Random(SEED + i) for i in range(len(FAMILIES))))
         for what, *case in _variants(gpd, fam, env, rng)]


def _outcome(run):
    try:
        out = run()
    except Exception as err:  # the type and text of an error are compared
        return type(err).__name__, str(err)
    report = out[0] if isinstance(out, tuple) else out
    rows = [(c.law, c.status, c.instances, c.mode, c.witness) for c in report.checks]
    return (rows, out[1]) if isinstance(out, tuple) else rows


def _fresh(fam):
    return replace(fam, _cache={})


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_endpoint_row_equals_the_scan(case):
    label, gpd, fam, env = case
    fam = _fresh(fam)

    def migrated():
        report = validate_family(gpd, fam, env, label="f")
        return report, _strict_bit(fam, gpd, env)

    expected = _outcome(lambda: reference_endpoints(gpd, _fresh(fam), env, label="f"))
    assert _outcome(migrated) == expected, label
    if isinstance(expected[0], str):  # it raised: the bit reads False
        assert _strict_bit(fam, gpd, env) is False, label


@pytest.mark.parametrize("kernel", [False, True], ids=["reference", "kernel"])
@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_naturality_row_equals_the_square_loop(case, kernel, monkeypatch):
    label, gpd, fam, env = case
    monkeypatch.setattr(diagram, "KERNEL_FLOOR", 0 if kernel else float("inf"))
    monkeypatch.setattr(diagram, "REFERENCE_HEAD", 0)
    space = len(gpd.morphisms) ** fam.arity
    for sample in ([None] if space <= EXHAUSTIVE else []) + ([SAMPLE] if space > SAMPLE else []):
        kwargs = dict(domain=gpd, sample=sample, seed=SEED, label="nat")
        expected = _outcome(lambda: reference_naturality(_fresh(fam), env, **kwargs))
        assert _outcome(lambda: check_naturality(_fresh(fam), env, **kwargs)) == expected, (label, sample)


def test_the_cases_fail_in_every_way_the_scans_report():
    # the damage reaches every outcome: passes, witnesses of both rows and
    # errors the scans raise
    notes = set()
    for label, gpd, fam, env in CASES:
        for run in (lambda: reference_endpoints(gpd, fam, env)[0],
                    lambda: reference_naturality(fam, env, domain=gpd, sample=SAMPLE, seed=SEED)):
            out = _outcome(run)
            if isinstance(out[0], str):
                notes.add("raises")
            elif out[0][4] is None:
                notes.add(out[0][1].value)
            else:
                notes.add(re.sub(r"[ :].*", "", out[0][4].note or "unequal"))
    assert {"pass", "raises", "unequal", "endpoints", "component", "square"} <= notes, notes


# -- the CLI on documents with one component reassigned ---------------------------

DOCUMENTS = {
    "dn2": (["fixture", "dual-numbers", "--mod", "2", "--mult", "1,1"],
            {("add", "b"): ("ac", "2group", "ac-functor", "sm-functor"),
             ("add", "l"): ("ac", "2group", "ac-functor", "sm-functor"),
             ("F", "fsum"): ("ac-functor", "sm-functor")}),
    "super-line": (["fixture", "super-line"],
                   {("add", name): ("sm", "2group") for name in "aclr"}),
    "z4": (["fixture", "strict-2ring", "--ring", "z4"],
           {("add", "a"): ("sm", "2group", "quang", "jp"), ("mul", "l"): ("quang", "jp"),
            ("ring", "d"): ("quang", "jp"), ("ring", "e"): ("quang", "jp")}),
}


def _mutants(data, block, family, rng):
    """(kind, document, index, old id, new id): the family's component at a
    seeded row reassigned to a parallel morphism (when the carrier has one)
    and to one with other endpoints."""
    ends = {m["id"]: (m["src"], m["dst"]) for m in data["morphisms"]}
    rows = next(b for b in data["structures"] if b["name"] == block)[family]
    pos = rng.randrange(len(rows))
    old = rows[pos][-1]
    for kind, pick in (("parallel", lambda i: i != old and ends[i] == ends[old]),
                       ("other endpoints", lambda i: ends[i] != ends[old])):
        pool = sorted(i for i in ends if pick(i))
        if pool:
            doc = json.loads(json.dumps(data))
            new = rng.choice(pool)
            next(b for b in doc["structures"] if b["name"] == block)[family][pos][-1] = new
            yield kind, doc, tuple(rows[pos][:-1]), old, new, ends


def _check(path, suite):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["check", str(path), "--suite", suite])
        except Exception as exc:  # a breach of the exit-code contract
            return "raises", f"{type(exc).__name__}: {exc}"
    return code, out.getvalue() + err.getvalue()


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_a_reassigned_component_fails_every_suite_that_reads_it(name, tmp_path):
    argv, readers = DOCUMENTS[name]
    source = tmp_path / f"{name}.json"
    assert main([*argv, "--out", str(source)]) == 0
    data = json.loads(source.read_text())
    rng = random.Random(SEED)
    kinds = set()
    for (block, family), suites in readers.items():
        for kind, doc, idx, old, new, ends in _mutants(data, block, family, rng):
            kinds.add(kind)
            path = tmp_path / "mutant.json"
            path.write_text(json.dumps(doc))
            for suite in suites:
                code, text = _check(path, suite)
                what = (name, block, family, kind, suite, text)
                assert code == 1 and "Traceback" not in text, what
                if kind == "other endpoints":
                    row = f"{family}-endpoints"
                    fails = [line for line in text.splitlines() if re.match(r"^\S+\s+fail\s", line)]
                    if fails:  # the suite prints its rows: the first failure is the endpoint row
                        assert re.match(rf"^(\w+:)?{row}\s+fail\s", fails[0]), what
                        lines = text.splitlines()
                        witness = lines[lines.index(fails[0]) + 1]
                        (s, d), (want_s, want_d) = ends[new], ends[old]
                        assert witness == (f"  witness at ({', '.join(idx)}): left={new} right=None "
                                           f"endpoints {s}->{d} differ from declared {want_s}->{want_d}"), what
                    else:  # a suite that validates the structure first names the row it failed
                        assert text.startswith("check aborted: ") and row in text.splitlines()[0], what
    assert "other endpoints" in kinds and (name == "z4" or "parallel" in kinds)


# -- the bifunctor row on documents with one sum entry reassigned ----------------------

# (document, block, status, first witness) -> mutants, as the pair loop gives them
SUM_MUTANTS = {
    ("dn2", "add", "fail", "interchange"): 48,
    ("dn2", "add", "fail", "sum morphism has wrong endpoints"): 288,
    ("dn2", "add", "fail", "sum of identities is not the identity of the sum"): 112,
    ("super-line", "add", "fail", "interchange"): 12,
    ("super-line", "add", "fail", "sum morphism has wrong endpoints"): 24,
    ("super-line", "add", "fail", "sum of identities is not the identity of the sum"): 12,
    ("z4", "add", "fail", "sum of identities is not the identity of the sum"): 48,
    ("z4", "mul", "fail", "sum of identities is not the identity of the sum"): 48,
}


def _bifunctor_row(m, kernel, monkeypatch):
    # on a fresh carrier, whose record of the row is empty, so the row is
    # computed under this setting
    monkeypatch.setattr(diagram, "KERNEL_FLOOR", 0 if kernel else float("inf"))
    monkeypatch.setattr(diagram, "REFERENCE_HEAD", 0)
    report = Report()
    _check_bifunctor(replace(m, carrier=replace(m.carrier, _cache={}), _cache={}), report)
    return report.checks[0]


def _key(row):
    return row.law, row.status, row.instances, row.mode, row.witness


def test_a_reassigned_sum_entry_gives_the_pair_loop_row(tmp_path, monkeypatch):
    seen = Counter()
    for name in sorted(DOCUMENTS):
        source = tmp_path / f"{name}.json"
        assert main([*DOCUMENTS[name][0], "--out", str(source)]) == 0
        for block in parse_document(source.read_text()).of_kind("sm", "ac", "mul"):
            m = block.obj
            for key in sorted(m.sum_mor):
                for new in m.carrier.morphisms_sorted:
                    if new == m.sum_mor[key]:
                        continue
                    mutant = replace(m, sum_mor={**m.sum_mor, key: new}, _cache={})
                    expected = _key(reference_bifunctor(mutant))
                    for kernel in (True, False):
                        assert _key(_bifunctor_row(mutant, kernel, monkeypatch)) == expected, (name, key, new, kernel)
                    witness = expected[4]
                    seen[name, block.name, expected[1].value, witness and (witness.note or "interchange")] += 1
    assert seen == SUM_MUTANTS
