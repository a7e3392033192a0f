"""Recorded data rows, held to fresh validations.

A family's endpoint row and strict bit, a functor's rows, the sum's
bifunctor row, ``boxplus``'s 2-group verdict and the canonical
associo-commutator are recorded on the object whose tables decide them (the
family, the ``GFunctor``, the carrier, the structure) by
``groupoid._recorded``, one record per row and
holder (two bifunctor rows per carrier, one for each sum of a 2-ring),
read back only while the holder holds every table the row read.
The tests read a record through the same helper.  A later validation
under the same tables returns a copy of the record instead of scanning.
Law rows are never recorded.  The oracle throughout is ``fresh``: a copy
of the whole object graph with every memo empty and every table shared, so
it records nothing it could read and scans every row.

The flip tests follow the sweep: the unperturbed structure is validated
first, then structures that differ from it in one flipped family, whose
other parts read their records.  The CLI part reassigns each functor-map
entry of the dn2 and dn3 functor documents and holds ``check --suite
sm-functor`` to the fresh in-process rows.
"""

import contextlib
import gc
import io
import json
import random
import re
import tracemalloc
from dataclasses import replace
from itertools import product

import pytest

from twogrp import (
    boxplus,
    build_derivation_2ring,
    build_dual_numbers_2group,
    build_mult_endofunctor,
    build_strict_2ring,
    build_super_line_2group,
    canonical_acomm_at,
    canonical_zero_iso,
    diagram,
    groupoid,
    identity_structured,
    monoidal,
    ring_zmod,
    to_ac,
    validate_ac,
    validate_ac_functor,
    validate_ac_ring,
    validate_jp,
    validate_quang,
    validate_sm,
    validate_sm_functor,
    validate_transformation,
    validate_two_ring_data,
)
from twogrp.cli import _endpoints, _functor_endpoint_blocks, main
from twogrp.document import parse_document
from twogrp.errors import ArityMismatch, DomainMismatch, MalformedTable, PreconditionFailed, StructureError
from twogrp.functors import MonTransformation, StructuredFunctor, check_fsum_naturality, tau_family
from twogrp.groupoid import GFunctor, _recorded, _strict_bit, identity_family, validate_family, validate_functor
from twogrp.monoidal import _check_bifunctor, assoc_family, comm_family, validate_2group
from twogrp.report import Report, Status

from helpers import SEED, fresh, random_flip, with_canonical_zero

FLIPS = 25  # flips drawn per pool


def _endpoint_record(fam, gpd, env):
    return _recorded(fam, "endpoints", (gpd, fam.components, gpd.objects_sorted), env)


def _functor_record(fun):
    return _recorded(fun, "functor", (fun.source, fun.target, fun.obj_map, fun.mor_map))


def _bifunctor_record(m):
    return _recorded(m.carrier, "bifunctor", (m.sum_obj, m.sum_mor))


def rows(*reports):
    return [(c.law, c.status, c.instances, c.mode, c.witness) for rep in reports for c in rep.checks]


def times(scans, fam) -> int:
    return sum(f is fam for f in scans)


@pytest.fixture
def scans(monkeypatch):
    """The families whose endpoint row is scanned, in order, a fresh copy's
    included."""
    seen = []
    scan = groupoid._endpoint_row

    def counted(gpd, fam, env, objects):
        seen.append(fam)
        return scan(gpd, fam, env, objects)

    monkeypatch.setattr(groupoid, "_endpoint_row", counted)
    return seen


def _flipped(fields_of, rng):
    """``FLIPS`` (field, flipped family) pairs drawn from the families
    ``fields_of`` maps field names to, each on its carrier."""
    names = sorted(fields_of)
    out = []
    for _ in range(FLIPS):
        name = rng.choice(names)
        gpd, fam = fields_of[name]
        out.append((name, random_flip(gpd, fam, rng)[0]))
    return out


# -- flips after the unperturbed parts were validated ------------------------------


def test_super_line_flips_read_the_records_and_give_the_fresh_rows(scans):
    sl, = fresh(build_super_line_2group())
    sl_ac, = fresh(to_ac(sl))
    assert validate_sm(sl).ok and validate_ac(sl_ac).ok
    rng = random.Random(SEED)
    pools = {"assoc": sl.assoc, "comm": sl.comm, "lunit": sl.lunit, "runit": sl.runit}
    for name, flipped in _flipped({k: (sl.carrier, f) for k, f in pools.items()}, rng):
        pert = replace(sl, **{name: flipped}, _cache={})
        del scans[:]
        got = rows(validate_sm(pert))
        assert times(scans, flipped) == len(scans) <= 1, name  # no other family is scanned
        assert got == rows(validate_sm(*fresh(pert))), name
    for _, flipped in _flipped({"acomm": (sl.carrier, sl_ac.acomm)}, rng):
        pert = replace(sl_ac, acomm=flipped, _cache={})
        del scans[:]
        got = rows(validate_ac(pert))
        assert times(scans, flipped) == len(scans) <= 1
        assert got == rows(validate_ac(*fresh(pert)))


@pytest.mark.parametrize("presentation", ["sm", "ac"])
def test_z6_distributor_and_absorber_flips_give_the_fresh_rows(presentation, scans):
    ring, = fresh(build_strict_2ring(ring_zmod(6), presentation=presentation))
    suites = (validate_quang, validate_jp) if presentation == "sm" else (validate_ac_ring,)
    names = ("dist_l", "dist_r") if presentation == "sm" else ("dist_l", "dist_r", "absorb_l", "absorb_r")
    for suite in suites:
        assert suite(ring).ok
    recorded = [name for name in names if _endpoint_record(getattr(ring, name), ring.carrier, ring.env()) is not None]
    assert recorded == list(names)
    for name, flipped in _flipped({k: (ring.carrier, getattr(ring, k)) for k in names}, random.Random(SEED)):
        pert = replace(ring, **{name: flipped}, _cache={})
        for suite in suites:
            del scans[:]
            got = rows(suite(pert))
            assert times(scans, flipped) == len(scans) <= 1, (name, suite.__name__)
            assert got == rows(suite(*fresh(pert))), (name, suite.__name__)


def test_dual_numbers_fsum_and_tau_flips_give_the_fresh_rows(scans):
    ac, sm = fresh(build_dual_numbers_2group(3), build_dual_numbers_2group(3, "sm"))
    f_even = build_mult_endofunctor(3, 2, 0, ac)
    f_even = f_even.with_zero(canonical_zero_iso(f_even, sm, sm))
    f_odd = build_mult_endofunctor(3, 1, 2, ac)
    tau0 = tau_family({(o,): sm.carrier.identity[f_even.base.obj_map[o]] for o in sm.carrier.objects})
    same = MonTransformation(f_even, f_even, tau0)
    assert validate_sm_functor(f_even, sm, sm).ok and validate_ac_functor(f_odd, ac, ac).ok
    assert validate_transformation(same, sm, sm).ok
    rng = random.Random(SEED)
    for _, fsum in _flipped({"fsum": (sm.carrier, f_even.fsum)}, rng):
        bad = StructuredFunctor(f_even.base, fsum, f_even.fzero)
        del scans[:]
        got = rows(validate_sm_functor(bad, sm, sm))
        assert times(scans, fsum) == len(scans) <= 1
        assert got == rows(validate_sm_functor(*fresh(bad, sm, sm)))
    for _, fsum in _flipped({"fsum": (ac.carrier, f_odd.fsum)}, rng):
        bad = StructuredFunctor(f_odd.base, fsum)
        assert rows(validate_ac_functor(bad, ac, ac)) == rows(validate_ac_functor(*fresh(bad, ac, ac)))
    for _, tau in _flipped({"tau": (sm.carrier, tau0)}, rng):
        tr = MonTransformation(f_even, f_even, tau)
        del scans[:]
        got = rows(validate_transformation(tr, sm, sm))
        assert times(scans, tau) == len(scans) <= 1
        assert got == rows(validate_transformation(*fresh(tr, sm, sm)))


# -- what a record answers for ------------------------------------------------------


def _assoc():
    sl, = fresh(build_super_line_2group())
    return sl.carrier, sl.assoc, sl.env()


def test_reassigned_components_are_rescanned(scans):
    gpd, fam, env = _assoc()
    assert validate_family(gpd, fam, env).ok and validate_family(gpd, fam, env).ok and times(scans, fam) == 1
    fam.components = dict(fam.components)  # equal, but another object
    assert validate_family(gpd, fam, env).ok and times(scans, fam) == 2
    flipped = random_flip(gpd, fam, random.Random(SEED))[0]
    fam.components = flipped.components
    got = rows(validate_family(gpd, fam, env))
    assert got == rows(validate_family(gpd, *fresh(flipped), env)) == rows(validate_family(gpd, fam, env))
    assert times(scans, fam) == 3


def test_unequal_tables_are_rescanned_and_equal_ones_are_not(scans):
    gpd, fam, env = _assoc()
    validate_family(gpd, fam, env)
    same = {"+": tuple(dict(t) for t in env["+"])}
    assert rows(validate_family(gpd, fam, same)) == rows(validate_family(gpd, fam, env))
    assert times(scans, fam) == 1
    sum_obj, sum_mor = env["+"]
    key = sorted(sum_obj)[-1]
    other = {"+": ({**sum_obj, key: next(x for x in gpd.objects_sorted if x != sum_obj[key])}, sum_mor)}
    got = rows(validate_family(gpd, fam, other))
    assert times(scans, fam) == 2 and got == rows(validate_family(gpd, *fresh(fam), other))
    assert got[0][1] is Status.FAIL
    validate_family(gpd, fam, env)  # the record now stands under the other tables
    assert times(scans, fam) == 3


def test_identity_familys_bit_alone_does_not_skip_the_scan(scans):
    gpd, _, env = _assoc()
    fam = identity_family(assoc_family, gpd, env)
    assert _strict_bit(fam, gpd, env) is True and _endpoint_record(fam, gpd, env) is None
    first = rows(validate_family(gpd, fam, env))
    assert times(scans, fam) == 1 and first == rows(validate_family(gpd, *fresh(fam), env))
    assert rows(validate_family(gpd, fam, env)) == first and times(scans, fam) == 1
    assert _strict_bit(fam, gpd, env) is True


def test_a_row_that_raised_records_nothing(scans):
    gpd, fam, env = _assoc()
    # the identity table names another object's endomorphism: the scan raises
    broken = replace(gpd, identity={**gpd.identity, "0": gpd.identity["1"]}, _cache={})
    for _ in range(2):
        with pytest.raises(MalformedTable):
            validate_family(broken, fam, env)
    assert times(scans, fam) == 2 and _strict_bit(fam, broken, env) is False
    assert _endpoint_record(fam, broken, env) is None
    stray = replace(fam, components={**fam.components, ("0",): fam.components[("0", "0", "0")]}, _cache={})
    for _ in range(2):
        with pytest.raises(ArityMismatch):
            validate_family(gpd, stray, env)
    fun = GFunctor(gpd, gpd, {}, {})
    for _ in range(2):
        with pytest.raises(DomainMismatch):
            validate_functor(fun)
    assert _functor_record(fun) is None


def _bifunctor(m):
    report = Report()
    _check_bifunctor(m, report)
    return report


def test_a_hit_carries_the_callers_label_and_a_mutated_row_is_not_read_back(scans):
    gpd, fam, env = _assoc()
    first = validate_family(gpd, fam, env, label="a").checks[0]
    hit = validate_family(gpd, fam, env, label="b").checks[0]
    assert (first.law, hit.law, times(scans, fam)) == ("a-endpoints", "b-endpoints", 1)
    assert (hit.status, hit.instances, hit.mode, hit.witness) == (first.status, first.instances, first.mode, None)
    sl, = fresh(build_super_line_2group())
    fun, = fresh(build_mult_endofunctor(3, 2, 1, build_dual_numbers_2group(3)).base)
    for run in (lambda: validate_family(gpd, fam, env, label="b"), lambda: validate_functor(fun),
                lambda: _bifunctor(sl)):
        first = run()  # the family's a hit, the others' the scan they record
        want = rows(first)
        for row in first.checks + run().checks:
            row.law, row.status, row.instances, row.mode = "x", Status.FAIL, -1, "x"
        assert rows(run()) == want
    assert times(scans, fam) == 1
    assert _functor_record(fun) is not None and _bifunctor_record(sl) is not None


def test_the_bifunctor_row_is_read_by_a_replace_copy_and_law_rows_always_run(monkeypatch):
    sl, = fresh(build_super_line_2group())
    calls = []
    check = diagram._check

    def counted(name, *args, **kwargs):
        calls.append(name)
        return check(name, *args, **kwargs)

    monkeypatch.setattr(diagram, "_check", counted)
    first = rows(validate_sm(sl, allow_strict_skip=False))
    copy = replace(sl, _cache={})
    assert rows(validate_sm(copy, allow_strict_skip=False)) == first
    laws = [name for name in calls if name.startswith("SC")]
    assert laws == ["SC1", "SC2", "SC3", "SC4"] * 2  # forced full, every law loop runs on both calls
    assert calls.count("bifunctor") == 1 and calls.count("endpoints") == 4


def test_a_2rings_two_sums_keep_their_bifunctor_rows_on_the_shared_carrier(monkeypatch):
    z6, = fresh(build_strict_2ring(ring_zmod(6)))
    assert z6.add.carrier is z6.mul.carrier
    scans = []
    row = monoidal._bifunctor_row
    monkeypatch.setattr(monoidal, "_bifunctor_row", lambda m: scans.append(m) or row(m))
    first = rows(validate_two_ring_data(z6))
    assert [m.sum_mor for m in scans] == [z6.add.sum_mor, z6.mul.sum_mor]
    assert rows(validate_two_ring_data(z6)) == first and len(scans) == 2
    assert _bifunctor_record(z6.add) is not None and _bifunctor_record(z6.mul) is not None


def test_the_bifunctor_row_is_keyed_by_both_sum_tables():
    sl, = fresh(build_super_line_2group())
    assert _bifunctor(sl).ok
    pair = sorted(sl.sum_obj)[-1]
    key = sorted(sl.sum_mor)[-1]
    tables = ({"sum_obj": {**sl.sum_obj, pair: next(x for x in sl.carrier.objects if x != sl.sum_obj[pair])}},
              {"sum_mor": {**sl.sum_mor, key: next(f for f in sl.carrier.morphisms if f != sl.sum_mor[key])}})
    for changed in tables:
        pert = replace(sl, **changed, _cache={})
        got = rows(_bifunctor(pert))
        assert got[0][1] is Status.FAIL and got == rows(_bifunctor(*fresh(pert))), changed.keys()


def test_validate_functor_reads_its_record():
    fun, = fresh(build_mult_endofunctor(3, 2, 1, build_dual_numbers_2group(3)).base)
    mor_map = dict(fun.mor_map)
    key = sorted(mor_map)[1]
    mor_map[key] = next(f for f in sorted(fun.target.morphisms) if f != mor_map[key])
    bad = GFunctor(fun.source, fun.target, dict(fun.obj_map), mor_map)
    for f in (fun, bad):
        first = rows(validate_functor(f))
        assert _functor_record(f) is not None
        assert rows(validate_functor(f)) == first == rows(validate_functor(*fresh(f)))
    assert not validate_functor(bad).ok


# -- a reassigned table, one record per holder --------------------------------------


def _other(ids, old, rng):
    return rng.choice([i for i in sorted(ids) if i != old])


def _family_case(rng):
    gpd, fam, env = _assoc()

    def components():
        fam.components = random_flip(gpd, fam, rng)[0].components

    return (lambda: rows(validate_family(gpd, fam, env)), lambda: rows(validate_family(gpd, *fresh(fam), env)),
            [("components", components)] * 3)


def _functor_case(rng):
    fun, = fresh(build_mult_endofunctor(3, 2, 1, build_dual_numbers_2group(3)).base)
    maps = fun.obj_map, fun.mor_map

    def reassigned(name, ids):
        table = dict(getattr(fun, name))
        key = rng.choice(sorted(table))
        table[key] = _other(ids, table[key], rng)
        setattr(fun, name, table)

    def restored():
        fun.obj_map, fun.mor_map = maps

    return (lambda: rows(validate_functor(fun)), lambda: rows(validate_functor(*fresh(fun))),
            [("obj_map", lambda: reassigned("obj_map", fun.target.objects)), ("restored", restored),
             ("mor_map", lambda: reassigned("mor_map", fun.target.morphisms)), ("restored", restored)])


def _bifunctor_case(rng):
    sl, = fresh(build_super_line_2group())
    at = [sl]  # the structure under test: a ``replace`` copy on the same carrier

    def reassigned(name, ids):
        table = dict(getattr(sl, name))
        key = rng.choice(sorted(table))
        at[0] = replace(sl, **{name: {**table, key: _other(ids, table[key], rng)}}, _cache={})

    return (lambda: rows(_bifunctor(at[0])), lambda: rows(_bifunctor(*fresh(at[0]))),
            [("sum_obj", lambda: reassigned("sum_obj", sl.carrier.objects)),
             ("sum_mor", lambda: reassigned("sum_mor", sl.carrier.morphisms)),
             ("restored", lambda: at.__setitem__(0, replace(sl, _cache={})))])


def _two_group_case(rng):
    target, = fresh(build_dual_numbers_2group(3, "sm"))
    summands = [with_canonical_zero(build_mult_endofunctor(3, a, 0), target, target) for a in (1, 2)]
    original = dict(vars(target))

    def verdict():
        try:
            boxplus(*summands, target)
        except PreconditionFailed:
            return False
        return True

    def reassigned(name):
        setattr(target, name, random_flip(target.carrier, getattr(target, name), rng)[0])

    def restored():
        for name in ("assoc", "comm", "lunit", "runit"):
            setattr(target, name, original[name])

    return (verdict, lambda: validate_2group(*fresh(target)).ok,
            [(name, lambda name=name: reassigned(name)) for name in ("assoc", "comm", "lunit", "runit")]
            + [("restored", restored)])


def _kernel_rows(m):
    """The SC rows of ``m``, every loop in the numpy kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagram, "KERNEL_FLOOR", 0)
        mp.setattr(diagram, "REFERENCE_HEAD", 0)
        return rows(validate_sm(m, check_data=False, allow_strict_skip=False))


def _codes_case(rng):
    # the kernel keeps the code columns of the tables it reads on the
    # carrier: a reassigned sum table is encoded afresh
    dn3, = fresh(build_dual_numbers_2group(3, "sm"))
    plus = dn3.sum_mor

    def reassigned():
        key = rng.choice(sorted(plus))
        dn3.sum_mor = {**plus, key: _other(dn3.carrier.morphisms, plus[key], rng)}

    return (lambda: _kernel_rows(dn3), lambda: _kernel_rows(*fresh(dn3)),
            [("sum_mor", reassigned)] * 3 + [("restored", lambda: setattr(dn3, "sum_mor", plus))])


def _outcome(run):
    try:
        return run()
    except StructureError as err:
        return type(err).__name__, str(err)


def _canonical_b_case(rng):
    # b is recorded on its symmetric structure with every table it reads: a
    # family reassigned in place, on the super line and on the additive half
    # of a 2-ring, gives b afresh, as every reader reads it
    sl, = fresh(build_super_line_2group())
    ring, = fresh(build_derivation_2ring(3))
    names = ("assoc", "comm", "lunit", "runit")
    kept = [(m, {name: getattr(m, name) for name in names}) for m in (sl, ring.add)]

    def run(s, r):
        f = identity_structured(s)
        return (_outcome(lambda: [canonical_acomm_at(s, *idx) for idx in product(s.carrier.objects_sorted, repeat=4)]),
                _outcome(lambda: dict(to_ac(s).acomm.components.items())),
                _outcome(lambda: boxplus(f, f, s).fsum.components),
                rows(*(suite(r, check_data=False, allow_strict_skip=False) for suite in (validate_jp, validate_quang))))

    def reassigned(name):
        for m in (sl, ring.add):
            setattr(m, name, random_flip(m.carrier, getattr(m, name), rng)[0])

    def restored():
        for m, fams in kept:
            for name, fam in fams.items():
                setattr(m, name, fam)

    # c the identity keeps the super line a 2-group, so to_ac and boxplus give values
    trivial = ("comm identity", lambda: setattr(sl, "comm", identity_family(comm_family, sl.carrier, sl.env())))
    return (lambda: run(sl, ring), lambda: run(*fresh(sl, ring)),
            [(name, lambda name=name: reassigned(name)) for name in names] + [("restored", restored), trivial])


RECORDS = {"family": _family_case, "functor": _functor_case, "bifunctor": _bifunctor_case, "2-group": _two_group_case,
           "kernel codes": _codes_case, "canonical b": _canonical_b_case}


@pytest.mark.parametrize("record", sorted(RECORDS))
def test_a_reassigned_table_gives_the_fresh_rows(record):
    run, oracle, changes = RECORDS[record](random.Random(SEED))
    assert run() == run() == oracle()
    for what, change in changes:
        change()
        assert run() == run() == oracle(), what


def test_sum_mutants_on_one_carrier_leave_one_record():
    # each mutant's sum morphism table is a copy with one entry changed: a
    # record per mutant would keep every copy alive
    dn3, = fresh(build_dual_numbers_2group(3))
    rng = random.Random(SEED)
    keys, mors = sorted(dn3.sum_mor), dn3.carrier.morphisms
    first = None
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(300):
            key = rng.choice(keys)
            mutant = replace(dn3, sum_mor={**dn3.sum_mor, key: _other(mors, dn3.sum_mor[key], rng)}, _cache={})
            assert not _bifunctor(mutant).ok
            first = first or mutant
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert _bifunctor_record(mutant) is not None and _bifunctor_record(first) is None
    assert retained < 1 << 20, retained


def test_family_mutants_on_one_carrier_leave_at_most_the_bound_of_curried_views():
    # each mutant's associator is a copy with one component changed, read
    # from its curried view by the scans of the SC rows on the shared
    # carrier: a view kept per mutant would keep every copy alive
    dn3, = fresh(build_dual_numbers_2group(3, "sm"))
    rng = random.Random(SEED)
    keys, mors = sorted(dn3.assoc.components), dn3.carrier.morphisms
    bound = groupoid._KEEP["curried"]
    first = None
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(300):
            key = rng.choice(keys)
            comps = dn3.assoc.components
            mutant = replace(dn3, assoc=replace(dn3.assoc, components={**comps, key: _other(mors, comps[key], rng)},
                                                _cache={}), _cache={})
            assert not validate_sm(mutant, check_data=False, allow_strict_skip=False).ok
            first = first or mutant
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    held = [table for table, _ in dn3.carrier._cache["curried"].values()]
    assert len(held) <= bound and any(t is mutant.assoc.components for t in held)
    assert not any(t is first.assoc.components for t in held)
    assert retained < (bound + 4) << 16, retained  # a kept mutant with its view: about 60 kB


def test_sum_mutants_through_the_kernel_leave_at_most_the_bound_of_kept_codes():
    # each mutant's sum morphism table is read by a kernel row on the
    # shared carrier, whose kept code columns hold it
    pytest.importorskip("numpy")
    dn3, = fresh(build_dual_numbers_2group(3, "sm"))
    rng = random.Random(SEED)
    keys, mors = sorted(dn3.sum_mor), dn3.carrier.morphisms
    bound = groupoid._KEEP["codes"]
    first = None
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(300):
            key = rng.choice(keys)
            mutant = replace(dn3, sum_mor={**dn3.sum_mor, key: _other(mors, dn3.sum_mor[key], rng)}, _cache={})
            _kernel_rows(mutant)
            first = first or mutant
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    held = [record[0][0] for record in dn3.carrier._cache["codes"]]
    assert len(held) <= bound and any(t is mutant.sum_mor for t in held)
    assert not any(t is first.sum_mor for t in held)
    assert retained < 1 << 20, retained


# -- the CLI on functor documents with one map entry reassigned -------------------------

FUNCTOR_DOCUMENTS = {
    "dn2": ["fixture", "dual-numbers", "--mod", "2", "--mult", "1,1"],
    "dn3": ["fixture", "dual-numbers", "--mod", "3", "--mult", "1,2"],
}
TIME = re.compile(r" time=[\d.]+ms")


def _cli(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = main(["check", str(path), "--suite", "sm-functor"])
        except Exception as exc:  # a breach of the exit-code contract
            return "raises", f"{type(exc).__name__}: {exc}"
    return code, TIME.sub("", out.getvalue())


def _in_process(text):
    """The rows ``check --suite sm-functor`` prints, from fresh copies of
    the parsed functor and its converted endpoints."""
    doc = parse_document(text)
    blk = doc.unique("functor")
    try:
        src, tgt = _endpoints(*_functor_endpoint_blocks(doc, blk), "sm")
        fun, src, tgt = fresh(blk.obj, src, tgt)
        reports = [validate_sm_functor(fun, src, tgt), check_fsum_naturality(fun, src, tgt)]
    except StructureError as err:
        return 1, f"check aborted: {err}\n"
    lines = [TIME.sub("", line) for rep in reports for line in rep.lines()]
    return int(not all(rep.ok for rep in reports)), "\n".join(lines) + "\n"


def _reassigned(data, rng, every):
    """(map, key, new id, document) for each entry of the functor's object
    and morphism maps reassigned to another declared id of its kind: every
    other id, or one seeded pick when ``every`` is false."""
    ids = {"obj_map": sorted(data["objects"]), "mor_map": sorted(m["id"] for m in data["morphisms"])}
    functor = next(b for b in data["structures"] if b["kind"] == "functor")
    for table in ("obj_map", "mor_map"):
        for pos, (key, old) in enumerate(functor[table]):
            others = [i for i in ids[table] if i != old]
            for new in others if every else [rng.choice(others)]:
                doc = json.loads(json.dumps(data))
                next(b for b in doc["structures"] if b["kind"] == "functor")[table][pos][1] = new
                yield table, key, new, doc


@pytest.mark.parametrize("name", sorted(FUNCTOR_DOCUMENTS))
def test_a_reassigned_functor_map_entry_gives_the_fresh_rows(name, tmp_path):
    source = tmp_path / f"{name}.json"
    assert main([*FUNCTOR_DOCUMENTS[name], "--out", str(source)]) == 0
    data = json.loads(source.read_text())
    codes = set()
    for table, key, new, doc in _reassigned(data, random.Random(SEED), every=name == "dn2"):
        path = tmp_path / "mutant.json"
        path.write_text(json.dumps(doc))
        code, text = _cli(path)
        what = (name, table, key, new, text)
        assert code in (0, 1) and "Traceback" not in text, what
        assert (code, text) == _in_process(path.read_text()), what
        codes.add(code)
    assert 1 in codes
