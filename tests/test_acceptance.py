"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with ``pytest tests/test_acceptance.py -v -s``).  Tolerances and modes
are pinned here, not configurable."""

import json
import random
import time
from dataclasses import replace
from itertools import product

import twogrp as tg
from twogrp.cli import main as cli_main
from twogrp.functors import SF1, _law_env as functor_law_env, tau_family
from twogrp.diagram import check_diagram
from twogrp.groupoid import compose_path
from twogrp.monoidal import basic_unitor
from twogrp.report import Status

from helpers import (
    SEED,
    assoc_commutator_lower,
    all_structured_endofunctors,
    cyclic_one_object,
    one_object_2group,
    parallel_morphisms,
    perturb_family,
    strict_cyclic_2group,
    with_canonical_zero,
)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {self.name}: {status} ({elapsed:.2f}s)")
        if exc_type is None and self.seconds is not None:
            assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s budget: {elapsed:.2f}s"
        return False


def test_criterion_1_counterexample_reproduction():
    with Budget("criterion 1 (counterexample reproduction, <5s)", 5.0):
        ac = tg.build_dual_numbers_2group(5)
        sm = tg.build_dual_numbers_2group(5, "sm")
        f12 = tg.build_mult_endofunctor(5, 1, 2, ac)

        # AF1 exhaustively; the displayed equality has 625 integer instances
        af = tg.validate_ac_functor(f12, ac, ac, allow_strict_skip=False)
        assert af["AF1"].status is Status.PASS
        assert af["AF1"].instances == 25 ** 4
        count = 0
        for x, xp, xpp, xppp in product(range(5), repeat=4):
            assert (2 * ((x + xp) + (xpp + xppp))) % 5 == (2 * (x + xp) + 2 * (xpp + xppp)) % 5
            count += 1
        assert count == 625

        # SF1 fails with a witness where 2*(x - x') != 0 mod 5
        smrep = tg.validate_sm_functor(f12, sm, sm)
        assert smrep["SF1"].status is Status.FAIL
        wx, _, wz = smrep["SF1"].witness.index
        assert (2 * (int(wx.split("+")[0]) - int(wz.split("+")[0]))) % 5 != 0

        # zero isomorphism search: 5 candidates scanned, none valid
        assert len(ac.carrier.hom(ac.unit, f12.base.obj_map[ac.unit])) == 5
        assert tg.enumerate_zero_isos(f12, ac, ac, "AF2") == []

        # F(1,0): everything passes and the zero isomorphism is unique
        f10 = tg.build_mult_endofunctor(5, 1, 0, ac)
        af10 = tg.validate_ac_functor(f10, ac, ac, allow_strict_skip=False)
        assert af10["AF1"].status is Status.PASS
        sm10 = tg.validate_sm_functor(f10, sm, sm, allow_strict_skip=False)
        assert sm10["SF1"].status is Status.PASS
        assert sm10["SF2"].status is Status.PASS
        sols = tg.enumerate_zero_isos(f10, ac, ac, "AF2")
        assert sols == [tg.canonical_zero_iso(f10, sm, sm)]
        assert len(sols) == 1


def test_criterion_2_roundtrip_isomorphism():
    with Budget("criterion 2 (roundtrip isomorphism, <5s)", 5.0):
        super_line = tg.build_super_line_2group()
        strict_z5 = tg.build_strict_2ring(tg.ring_zmod(5)).add
        dual3 = tg.build_dual_numbers_2group(3, "sm")
        fixtures = [super_line, strict_z5, dual3]

        for m in fixtures:
            ac = tg.to_ac(m)
            assert tg.to_sm(ac) == m
            assert tg.to_ac(tg.to_sm(ac)) == ac
            # both border paths of the defining diagram on every 4-tuple
            objs = m.carrier.objects_sorted
            for idx in product(objs, repeat=4):
                assert tg.assoc_commutator_upper(m, *idx) == assoc_commutator_lower(m, *idx)

        # the m=5 twin round-trips exactly as well (borders spot-sampled)
        dual5 = tg.build_dual_numbers_2group(5, "sm")
        assert tg.to_sm(tg.to_ac(dual5)) == dual5
        rng = random.Random(SEED)
        objs = dual5.carrier.objects_sorted
        for _ in range(20000):
            idx = tuple(rng.choice(objs) for _ in range(4))
            assert tg.assoc_commutator_upper(dual5, *idx) == assoc_commutator_lower(dual5, *idx)


def _zero_iso_via_formula(fun, src, tgt, cert):
    gpd = tgt.carrier
    f0 = fun.base.obj_map[src.unit]
    ident = gpd.identity
    d = basic_unitor(src)
    return compose_path(
        gpd,
        [
            tgt.lunit.components[(f0,)],
            tgt.sum_mor[(gpd.inv(cert.eta), ident[f0])],
            tgt.assoc.components[(cert.inverse, f0, f0)],
            tgt.sum_mor[(ident[cert.inverse], gpd.inv(fun.fsum.components[(src.unit, src.unit)]))],
            tgt.sum_mor[(ident[cert.inverse], fun.base.mor_map[gpd.inv(d)])],
            cert.eta,
        ],
    )


def _sf1_passes(fun, m):
    return (
        check_diagram(
            SF1, m.carrier, m.carrier.objects_sorted, functor_law_env(fun, m, m)
        ).status
        is Status.PASS
    )


def _assert_unique_zero(fun, m):
    sols = tg.enumerate_zero_isos(fun, m, m, "SF3")
    assert len(sols) == 1
    canonical = tg.canonical_zero_iso(fun, m, m)
    assert sols == [canonical]
    for cert in tg.weak_inverse_candidates(m, fun.base.obj_map[m.unit]):
        assert _zero_iso_via_formula(fun, m, m, cert) == canonical


def test_criterion_3_uniqueness_and_automatic_t2():
    with Budget("criterion 3 (unique zero iso + automatic T2, <30s)", 30.0):
        bases = [
            strict_cyclic_2group(2),
            strict_cyclic_2group(3),
            one_object_2group(2),
            one_object_2group(3),
            tg.build_super_line_2group(),
        ]
        assert all(len(m.carrier.objects) <= 3 for m in bases)

        checked_functors = 0
        checked_taus = 0
        for m in bases:
            funs = all_structured_endofunctors(m)
            assert funs
            sf1_pass = [f for f in funs if _sf1_passes(f, m)]
            for fun in sf1_pass:
                _assert_unique_zero(fun, m)
                checked_functors += 1
            # every natural tau satisfying T1 between morphisms satisfies T2
            withz = [with_canonical_zero(f, m, m) for f in sf1_pass]
            objs = m.carrier.objects_sorted
            for f in withz:
                for g in withz:
                    hom_choices = [m.carrier.hom(f.base.obj_map[x], g.base.obj_map[x]) for x in objs]
                    if not all(hom_choices):
                        continue
                    for combo in product(*hom_choices):
                        tau = tau_family(dict(zip([(x,) for x in objs], combo)))
                        tr = tg.MonTransformation(f, g, tau)
                        rep = tg.validate_transformation(tr, m, m)
                        if rep["naturality(tau)"].status is Status.PASS and rep["T1"].status is Status.PASS:
                            assert rep["T2"].status is Status.PASS
                            checked_taus += 1
        assert checked_functors >= 20
        assert checked_taus >= 20

        # 100 seeded random perturbation trials
        rng = random.Random(SEED)
        pool = [(m, f) for m in bases for f in all_structured_endofunctors(m)]
        trials = 0
        still_sf1 = 0
        while trials < 100:
            m, fun = pool[rng.randrange(len(pool))]
            flipped, _ = _random_family_flip(m.carrier, fun.fsum, rng)
            cand = tg.StructuredFunctor(fun.base, flipped)
            trials += 1
            if _sf1_passes(cand, m):
                still_sf1 += 1
                _assert_unique_zero(cand, m)
        print(f"  perturbation trials: {trials}, still passing SF1: {still_sf1}")


def _random_family_flip(gpd, fam, rng):
    idx = rng.choice(sorted(fam.components))
    old = fam.components[idx]
    alts = parallel_morphisms(gpd, old)
    new = rng.choice(alts) if alts else rng.choice(
        [i for i in gpd.identity.values() if i != old]
    )
    return perturb_family(fam, idx, new), idx


def test_criterion_4_af_implies_sf_with_zero_iso():
    with Budget("criterion 4 (AF=>SF derivation)", None):
        suite = []
        for m in (2, 3):
            ac = tg.build_dual_numbers_2group(m)
            sm = tg.build_dual_numbers_2group(m, "sm")
            for a in range(m):
                suite.append((with_canonical_zero(tg.build_mult_endofunctor(m, a, 0, ac), sm, sm), ac))
            suite.append((tg.identity_structured(ac), ac))
        ac5 = tg.build_dual_numbers_2group(5)
        sm5 = tg.build_dual_numbers_2group(5, "sm")
        f1 = with_canonical_zero(tg.build_mult_endofunctor(5, 1, 0, ac5), sm5, sm5)
        f2 = with_canonical_zero(tg.build_mult_endofunctor(5, 2, 0, ac5), sm5, sm5)
        suite.append((f1, ac5))
        suite.append((tg.boxplus(f1, f2, sm5), ac5))
        suite.append((tg.compose_functors(f1, f2), ac5))
        sl_ac = tg.to_ac(tg.build_super_line_2group())
        suite.append((tg.identity_structured(sl_ac), sl_ac))

        for fun, ambient in suite:
            pre = tg.validate_ac_functor(fun, ambient, ambient)
            assert pre.ok and pre["AF2/right"].status is Status.PASS
            rep = tg.derive_sm_axioms_from_ac(fun, ambient, ambient)
            for law in ("SF1", "SF2", "SF3/right", "SF3/left"):
                assert rep[law].status is Status.PASS, (law, fun.base.obj_map)
        print(f"  functors derived: {len(suite)}")


def test_criterion_5_two_ring_hierarchy():
    with Budget("criterion 5 (2-ring hierarchy, <60s)", 60.0):
        z6 = tg.build_strict_2ring(tg.ring_zmod(6))
        z5e = tg.build_strict_2ring(tg.ring_dual_numbers(5))

        # exhaustive forced loops on the 6-object fixture
        assert tg.validate_quang(z6, allow_strict_skip=False).ok
        jp6 = tg.validate_jp(z6, allow_strict_skip=False)
        assert jp6.ok and jp6["2R1-prime/d"].instances == 6 ** 5

        # 25-object fixture: exhaustive mode (strict profile covers the full
        # 5-tuple space) plus a concrete forced-full seeded sample >= 1e5
        q5 = tg.validate_quang(z5e)
        assert q5.ok
        jp5 = tg.validate_jp(z5e)
        assert jp5.ok
        assert jp5["2R1-prime/d"].mode == "strict-profile"
        assert jp5["2R1-prime/d"].instances == 25 ** 5
        jp5_sampled = tg.validate_jp(z5e, sample=100_000, seed=SEED, allow_strict_skip=False)
        assert jp5_sampled.ok
        assert jp5_sampled["2R1-prime/d"].instances == 100_000

        # 36-object fixture: documented sampling mode with fixed seed >= 1e5
        z6e = tg.build_strict_2ring(tg.ring_dual_numbers(6))
        jp36 = tg.validate_jp(z6e, sample=100_000, seed=SEED, allow_strict_skip=False)
        assert jp36.ok
        for form in ("d", "e"):
            row = jp36[f"2R1-prime/{form}"]
            assert row.instances >= 100_000
            assert row.mode == f"sampled(n=100000,seed={SEED})"

        # hierarchy, conversions, round-trips, upgrade
        for ring in (z6, z5e):
            assert tg.validate_quang(ring).ok
            assert tg.validate_jp(ring).ok  # Quang passes imply JP passes
            acr = tg.quang_to_ac_ring(ring)
            assert tg.validate_ac_ring(acr).ok  # status preserved
            assert tg.ac_ring_to_quang(acr) == ring  # table-identical roundtrip
            assert tg.quang_to_ac_ring(tg.ac_ring_to_quang(acr)) == acr
            upgraded = tg.jp_upgrade(ring)
            assert isinstance(upgraded, tg.TwoRingData)
            ids = set(ring.carrier.identity.values())
            assert all(v in ids for v in upgraded.absorb_l.components.values())
            assert all(v in ids for v in upgraded.absorb_r.components.values())
            assert tg.validate_quang(tg.ac_ring_to_quang(upgraded)).ok

        # the hierarchy is strict: the derivation ring passes 2R1' forced full
        # and fails Quang's suite only at 2R1/left-assoc
        separating = tg.build_derivation_2ring(3)
        assert tg.validate_jp(separating, allow_strict_skip=False).ok
        quang = tg.validate_quang(separating, allow_strict_skip=False)
        assert [row.law for row in quang.failures()] == ["2R1/left-assoc"]


def _expect_failure_with_witness(report):
    fails = report.failures()
    assert fails, "perturbation passed silently"
    assert any(c.witness is not None for c in fails)


def test_criterion_6_perturbation_sensitivity():
    with Budget("criterion 6 (perturbation sensitivity)", None):
        rng = random.Random(SEED)

        # groupoid laws: flip compose entries of Z/6 (no silent flip exists)
        g = cyclic_one_object(6)
        for _ in range(10):
            key = rng.choice(sorted(g.compose))
            alt = rng.choice([str(k) for k in range(6) if str(k) != g.compose[key]])
            comp = dict(g.compose)
            comp[key] = alt
            bad = tg.FinGroupoid.build(
                g.objects, [(m.mid, m.src, m.dst) for m in g.morphisms.values()],
                comp, dict(g.identity), dict(g.inverse))
            _expect_failure_with_witness(tg.validate_groupoid(bad))

        # symmetric suite: single family flips on the super-line; the one
        # coherent flip (c at (1,1), which yields the strict twin) is excluded
        sl = tg.build_super_line_2group()
        field_of = {"a": "assoc", "c": "comm", "l": "lunit", "r": "runit"}
        sm_pool = [
            (n, idx)
            for n, fam in sl.families().items()
            for idx in sorted(fam.components)
            if (n, idx) != ("c", ("1", "1"))
        ]
        for name, idx in rng.sample(sm_pool, 10):
            fam = sl.families()[name]
            alt = parallel_morphisms(sl.carrier, fam.components[idx])[0]
            pert = replace(sl, **{field_of[name]: perturb_family(fam, idx, alt)}, _cache={})
            _expect_failure_with_witness(tg.validate_sm(pert))

        # AC suite: flips of the associo-commutator (unitor flips at object 1
        # are coherent AC variants, pinned only by the symmetric triangle)
        sl_ac = tg.to_ac(sl)
        for idx in rng.sample(sorted(sl_ac.acomm.components), 10):
            alt = parallel_morphisms(sl_ac.carrier, sl_ac.acomm.components[idx])[0]
            pert = replace(sl_ac, acomm=perturb_family(sl_ac.acomm, idx, alt), _cache={})
            _expect_failure_with_witness(tg.validate_ac(pert))

        # functor suites: monoidality and morphism-map flips
        ac3 = tg.build_dual_numbers_2group(3)
        sm3 = tg.build_dual_numbers_2group(3, "sm")
        f10 = with_canonical_zero(tg.build_mult_endofunctor(3, 1, 0, ac3), sm3, sm3)
        f12 = tg.build_mult_endofunctor(3, 1, 2, ac3)
        for _ in range(10):
            flipped, _ = _random_family_flip(sm3.carrier, f10.fsum, rng)
            bad = tg.StructuredFunctor(f10.base, flipped, f10.fzero)
            _expect_failure_with_witness(tg.validate_sm_functor(bad, sm3, sm3))
        for _ in range(10):
            flipped, _ = _random_family_flip(ac3.carrier, f12.fsum, rng)
            bad = tg.StructuredFunctor(f12.base, flipped)
            _expect_failure_with_witness(tg.validate_ac_functor(bad, ac3, ac3))

        # transformations: component flips break T1
        tau0 = tau_family({(o,): sm3.carrier.identity[o] for o in sm3.carrier.objects})
        for _ in range(10):
            flipped, _ = _random_family_flip(sm3.carrier, tau0, rng)
            rep = tg.validate_transformation(tg.MonTransformation(f10, f10, flipped), sm3, sm3)
            _expect_failure_with_witness(rep)

        # ring suites: distributor/absorber flips (discrete carriers, so a
        # flip lands on another object's identity and must still be caught)
        z6 = tg.build_strict_2ring(tg.ring_zmod(6))
        for _ in range(10):
            flipped, _ = _random_family_flip(z6.carrier, z6.dist_l, rng)
            bad = replace(z6, dist_l=flipped, _cache={})
            _expect_failure_with_witness(tg.validate_quang(bad))
            _expect_failure_with_witness(tg.validate_jp(bad))
        z6ac = tg.build_strict_2ring(tg.ring_zmod(6), presentation="ac")
        fams = [("dist_r", z6ac.dist_r), ("absorb_l", z6ac.absorb_l), ("absorb_r", z6ac.absorb_r)]
        for i in range(10):
            fname, fam = fams[i % len(fams)]
            flipped, _ = _random_family_flip(z6ac.carrier, fam, rng)
            bad = replace(z6ac, **{fname: flipped}, _cache={})
            _expect_failure_with_witness(tg.validate_ac_ring(bad))


def test_criterion_7_cli_contract(tmp_path):
    with Budget("criterion 7 (CLI contract)", None):
        paths = {name: str(tmp_path / f"{name}.json") for name in
                 ("sl", "sl_ac", "sl_rt", "z6", "z6_ac", "z6_rt", "dn5", "dn3")}
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")

        scenarios = [
            (["fixture", "super-line", "--out", paths["sl"]], 0),
            (["check", paths["sl"], "--suite", "sm"], 0),
            (["check", paths["sl"], "--suite", "2group"], 0),
            (["convert", paths["sl"], "--to", "ac", "--out", paths["sl_ac"]], 0),
            (["check", paths["sl_ac"], "--suite", "ac"], 0),
            (["convert", paths["sl_ac"], "--to", "sm", "--out", paths["sl_rt"]], 0),
            (["convert", paths["sl"], "--to", "sm"], 1),
            (["fixture", "strict-2ring", "--ring", "z6", "--out", paths["z6"]], 0),
            (["check", paths["z6"], "--suite", "quang"], 0),
            (["check", paths["z6"], "--suite", "jp"], 0),
            (["check", paths["z6"], "--suite", "acring"], 1),
            (["convert", paths["z6"], "--to", "ac", "--out", paths["z6_ac"]], 0),
            (["check", paths["z6_ac"], "--suite", "acring"], 0),
            (["convert", paths["z6_ac"], "--to", "sm", "--out", paths["z6_rt"]], 0),
            (["fixture", "dual-numbers", "--mod", "5", "--mult", "1,2", "--out", paths["dn5"]], 0),
            (["check", paths["dn5"], "--suite", "sm-functor"], 1),
            (["zero-iso", paths["dn5"], "--functor", "F", "--mode", "enumerate"], 0),
            (["zero-iso", paths["dn5"], "--functor", "F", "--mode", "canonical"], 1),
            (["fixture", "dual-numbers", "--mod", "3", "--mult", "1,0", "--out", paths["dn3"]], 0),
            (["zero-iso", paths["dn3"], "--functor", "F", "--mode", "canonical"], 0),
            (["check", str(bad), "--suite", "sm"], 2),
            (["check", str(tmp_path / "missing.json"), "--suite", "sm"], 2),
            (["fixture", "unknown-fixture"], 2),
            (["fixture", "strict-2ring", "--ring", "bogus"], 2),
        ]
        for argv, expected in scenarios:
            code = cli_main(argv)
            assert code == expected, (argv, code, expected)

        # byte-identical conversion round-trips after canonical serialization
        with open(paths["sl"], "rb") as a, open(paths["sl_rt"], "rb") as b:
            assert a.read() == b.read()
        with open(paths["z6"], "rb") as a, open(paths["z6_rt"], "rb") as b:
            assert a.read() == b.read()

        # the dual-numbers fixture document has the full object count
        with open(paths["dn5"], encoding="utf-8") as fh:
            data = json.load(fh)
        assert len(data["objects"]) == 25
