"""2-ring suites, the Quang/JP/AC hierarchy and the conversions."""

import functools
import random
from dataclasses import replace

import pytest

from twogrp import (
    MissingAbsorbers,
    MonTransformation,
    NoAbsorbers,
    PreconditionFailed,
    PresentationMismatch,
    TwoRingData,
    ac_ring_to_quang,
    boxplus,
    build_derivation_2ring,
    build_strict_2ring,
    jp_upgrade,
    quang_to_ac_ring,
    ring_dual_numbers,
    ring_zmod,
    validate_ac_ring,
    validate_jp,
    validate_quang,
    validate_two_ring_data,
)
from twogrp.ac import to_ac
from twogrp.functors import (
    canonical_zero_iso,
    derive_sm_axioms_from_ac,
    enumerate_zero_isos,
    tau_family,
    validate_ac_functor,
    validate_sm_functor,
    validate_transformation,
)
from twogrp.ac import _canonical_acomm
from twogrp.report import Status
from twogrp.rings import QUANG_LAWS, RING_SUITES

from helpers import (
    SEED,
    coboundary_twisted_dual_numbers,
    interchange_rows_by_functors,
    kappa_twisted_2ring,
    law_rings,
    left_mult_functor,
    perturb_family,
    quang_distributivity_diagrams,
    quang_rows_by_functors,
    random_flip,
    right_mult_functor,
    strict_derivation_2ring,
)


def z6():
    return build_strict_2ring(ring_zmod(6))


def z2e():
    return build_strict_2ring(ring_dual_numbers(2))


def test_a_missing_additive_sum_pair_is_a_data_row_failure():
    # the weak-inverse row reads 0 + 1 after the bifunctor row has failed
    ring = build_strict_2ring(ring_zmod(3))
    add = replace(ring.add, sum_obj={k: v for k, v in ring.add.sum_obj.items() if k != ("0", "1")}, _cache={})
    rep = validate_two_ring_data(replace(ring, add=add, _cache={}))
    assert [c.law for c in rep.failures()] == ["add:bifunctor"]
    assert rep["add:bifunctor"].witness.index == ("0", "1")
    assert rep["add:bifunctor"].witness.note == "sum object table not total"
    with pytest.raises(PreconditionFailed, match="^input fails the 2R suite: add:bifunctor$"):
        quang_to_ac_ring(replace(ring, add=add, _cache={}))


def test_strict_rings_pass_quang_and_jp():
    for ring in (z6(), z2e()):
        assert validate_two_ring_data(ring).ok
        assert validate_quang(ring).ok
        assert validate_jp(ring).ok


def test_forced_full_agrees_with_strict_profile_on_z6():
    ring = z6()
    fast = validate_jp(ring)
    slow = validate_jp(ring, allow_strict_skip=False)
    assert fast.ok and slow.ok
    assert fast["2R1-prime/d"].mode == "strict-profile"
    assert slow["2R1-prime/d"].instances == 6 ** 5
    fastq = validate_quang(ring)
    slowq = validate_quang(ring, allow_strict_skip=False)
    assert fastq.ok and slowq.ok
    assert slowq["2R1/left-assoc"].instances == 6 ** 4


CLASSICAL_PAIRS = {"d-assoc": "2R1/left-assoc", "d-comm": "2R1/left-comm",
                   "e-assoc": "2R1/right-assoc", "e-comm": "2R1/right-comm"}


def test_classical_diagram_evaluator_agrees_with_endofunctor_form():
    # the four displayed distributivity diagrams are the SF1/SF2 conditions
    # of the multiplication endofunctors; both evaluators must agree
    for ring in (z6(), z2e()):
        assert quang_distributivity_diagrams(ring).ok
        assert validate_quang(ring).ok
    bad = replace(z6(), dist_l=perturb_family(z6().dist_l, ("2", "3", "4"), "0|1"), _cache={})
    cross = quang_distributivity_diagrams(bad)
    suite = validate_quang(bad, check_data=False)
    assert not cross.ok and not suite.ok
    # on the separating ring each diagram fails exactly with its 2R1 row, at
    # the same first index
    for m in (2, 3):
        ring = build_derivation_2ring(m)
        cross = quang_distributivity_diagrams(ring)
        suite = validate_quang(ring, allow_strict_skip=False)
        assert [row.law for row in suite.failures()] == ["2R1/left-assoc"]
        for law, row in CLASSICAL_PAIRS.items():
            assert cross[law].status is suite[row].status, (m, law)
            if suite[row].status is Status.FAIL:
                assert cross[law].witness.index == suite[row].witness.index


def flipped_rings(rings, flips):
    """``flips`` seeded single-component flips of d or e (or, in the AC
    presentation, m or n) of each ring."""
    rng = random.Random(SEED)
    out = []
    for label, ring in rings:
        for _ in range(flips):
            side = rng.choice(("dist_l", "dist_r") + ("absorb_l", "absorb_r") * (ring.presentation == "ac"))
            fam, idx = random_flip(ring.carrier, getattr(ring, side), rng)
            out.append((f"{label} {side}{idx}->{fam.components[idx]}", replace(ring, **{side: fam})))
    return out


SYMMETRIC_RINGS = [(label, ring) for label, ring in law_rings() if ring.presentation == "sm"]
QUANG_INPUTS = SYMMETRIC_RINGS + flipped_rings(SYMMETRIC_RINGS, 3)
QUANG_MODES = [(strict, sample) for strict in (True, False) for sample in (None, 50)]


@pytest.mark.parametrize("label, ring", QUANG_INPUTS, ids=[label for label, _ in QUANG_INPUTS])
def test_2r1_rows_equal_the_functor_form(label, ring):
    # each 2R1 ring law, bound per fixed object, against SF1/SF2 of the
    # multiplication endofunctors built at that object: same status,
    # instances, mode and witness (legs included), strict and forced,
    # exhaustive and sampled
    for strict, sample in QUANG_MODES:
        rep = validate_quang(ring, check_data=False, sample=sample, seed=SEED, allow_strict_skip=strict)
        oracle = quang_rows_by_functors(ring, sample=sample, seed=SEED, strict=strict)
        for name, want in oracle.items():
            row = rep[name]
            assert (row.status, row.instances, row.mode, row.witness) == want, (strict, sample, name)


def test_the_2r1_comparison_meets_failures_strict_rows_and_samples():
    modes, statuses = set(), set()
    for _, ring in QUANG_INPUTS:
        for strict, sample in QUANG_MODES:
            for status, _, mode, _ in quang_rows_by_functors(ring, sample=sample, seed=SEED, strict=strict).values():
                modes.add(mode.split("(")[0])
                statuses.add(status)
    assert modes == {"strict-profile", "exhaustive", "sampled"}
    assert statuses == {Status.PASS, Status.FAIL}


INTERCHANGE_RINGS = law_rings() + [("kappa2-ac", quang_to_ac_ring(kappa_twisted_2ring(2, False)))]
INTERCHANGE_INPUTS = INTERCHANGE_RINGS + flipped_rings(INTERCHANGE_RINGS, 3)


@functools.cache
def interchange_oracle(i):
    """The functor-form rows of input ``i``, the additive half its suite
    reads in AC presentation."""
    ring = INTERCHANGE_INPUTS[i][1]
    add = to_ac(ring.add, sample=4096) if ring.presentation == "sm" else ring.add
    return interchange_rows_by_functors(ring, add)


@pytest.mark.parametrize("i", range(len(INTERCHANGE_INPUTS)), ids=[label for label, _ in INTERCHANGE_INPUTS])
def test_2r1_prime_rows_are_af1_and_af2_of_the_multiplication_functors(i):
    # the paper's mechanism row by row: each 2R1' (2R1'') interchange row is
    # AF1 of x*- or -*x, and each 2R1'' absorber row an AF2 unit square of
    # the same functor with zero m_x or n_x, checked by the functor suite at
    # every fixed object: same status, instances and first failing (x,
    # tuple), the left and right routes exchanged
    ring = INTERCHANGE_INPUTS[i][1]
    suite = validate_jp if ring.presentation == "sm" else validate_ac_ring
    rep = suite(ring, check_data=False, allow_strict_skip=False)
    for name, (status, instances, index, witness) in interchange_oracle(i).items():
        row = rep[name]
        assert (row.status, row.instances, row.mode) == (status, instances, "exhaustive"), name
        if witness is None:
            assert row.witness is None, name
            continue
        got = row.witness
        assert got.index == index, name
        assert (got.left, got.right, got.left_path, got.right_path) == \
            (witness.right, witness.left, witness.right_path, witness.left_path), name
        assert bool(got.note) == bool(witness.note), name


def test_the_interchange_comparison_meets_every_row_failing():
    failing = {name for i in range(len(INTERCHANGE_INPUTS))
               for name, row in interchange_oracle(i).items() if row[0] is Status.FAIL}
    assert failing == {f"2R1-prime/{form}" for form in "de"} | \
        {f"2R1-dprime/{form}" for form in ("d", "e", "m-left", "m-right", "n-left", "n-right")}


def test_2r1_rows_report_a_missing_distributor_entry_as_a_witness():
    # the laws read d at each instance, so without the data rows a missing
    # component is a route that does not evaluate, as in every other row
    ring = build_derivation_2ring(2)
    key = ("1+1e", "0+0e", "0+0e")
    dist = replace(ring.dist_l, components={k: f for k, f in ring.dist_l.components.items() if k != key})
    row = validate_quang(replace(ring, dist_l=dist), check_data=False, allow_strict_skip=False)["2R1/left-comm"]
    assert (row.status, row.instances, row.witness.index) == (Status.FAIL, 49, key)
    assert row.witness.note == f"route does not evaluate: no entry at {key}"


def test_quang_rejects_ac_presentation():
    with pytest.raises(PresentationMismatch):
        validate_quang(build_strict_2ring(ring_zmod(6), presentation="ac"))
    with pytest.raises(PresentationMismatch):
        validate_jp(build_strict_2ring(ring_zmod(6), presentation="ac"))


def test_ac_ring_direct_construction_passes():
    ring = build_strict_2ring(ring_zmod(6), presentation="ac")
    assert validate_two_ring_data(ring).ok
    assert validate_ac_ring(ring).ok


def test_ac_ring_requires_absorbers():
    ring = build_strict_2ring(ring_zmod(6), presentation="ac")
    stripped = replace(ring, absorb_l=None, absorb_r=None, _cache={})
    with pytest.raises(MissingAbsorbers):
        validate_ac_ring(stripped)
    with pytest.raises(PresentationMismatch):
        validate_ac_ring(z6())


SUITE_VALIDATORS = {"quang": validate_quang, "jp": validate_jp, "acring": validate_ac_ring}


@pytest.mark.parametrize("label, ring", INTERCHANGE_RINGS, ids=[label for label, _ in INTERCHANGE_RINGS])
def test_each_suite_reports_its_declared_laws_in_order(label, ring):
    # one suite body over three law sets: the data rows, then one row per
    # law of the suite's RING_SUITES entry; the other presentation is refused
    data = ["d-endpoints", "e-endpoints"] + (["m-endpoints", "n-endpoints"] if ring.presentation == "ac" else [])
    for name, validate in SUITE_VALIDATORS.items():
        presentation, laws = RING_SUITES[name]
        if ring.presentation != presentation:
            with pytest.raises(PresentationMismatch):
                validate(ring)
            continue
        assert [row.law for row in validate(ring).checks] == data + [law.name for law in laws], name


def test_exactly_the_quang_laws_read_the_fixed_object():
    # the suite body sends a law to the per-object driver because it reads x
    laws = {law.name: law for _, suite in RING_SUITES.values() for law in suite}
    assert sorted(name for name, law in laws.items() if "x" in law.symbols) == sorted(law.name for law in QUANG_LAWS)
    assert [law.name for law in QUANG_LAWS] == ["2R1/left-assoc", "2R1/left-comm", "2R1/right-assoc", "2R1/right-comm"]


def test_perturbed_distributor_fails_quang_with_witness():
    ring = z6()
    bad = replace(ring, dist_l=perturb_family(ring.dist_l, ("2", "3", "4"), "0|1"), _cache={})
    rep = validate_quang(bad)
    assert not rep.ok
    assert any(c.witness is not None for c in rep.failures())


def test_perturbed_absorber_fails_square_with_witness():
    ring = build_strict_2ring(ring_zmod(6), presentation="ac")
    bad = replace(ring, absorb_l=perturb_family(ring.absorb_l, ("2",), "0|3"), _cache={})
    rep = validate_ac_ring(bad, check_data=False)
    fails = {c.law for c in rep.failures()}
    assert fails & {"2R1-dprime/m-left", "2R1-dprime/m-right"}
    wit = rep.failures()[0].witness
    assert wit is not None and wit.index[0] == "2"


def test_perturbed_acomm_fails_interchange_with_5_tuple_witness():
    ring = build_strict_2ring(ring_zmod(6), presentation="ac")
    bad_b = perturb_family(ring.add.acomm, ("1", "2", "3", "4"), "0|1")
    bad = replace(ring, add=replace(ring.add, acomm=bad_b, _cache={}), _cache={})
    rep = validate_ac_ring(bad, check_data=False)
    fail = rep["2R1-dprime/d"]
    assert fail.status is Status.FAIL
    assert len(fail.witness.index) == 5


# -- conversions ------------------------------------------------------------


def test_quang_ac_bijection_roundtrip_z6():
    ring = z6()
    ac = quang_to_ac_ring(ring)
    assert ac.presentation == "ac"
    assert validate_ac_ring(ac).ok
    assert ac_ring_to_quang(ac) == ring
    # absorbers for a strict ring are identities
    ids = set(ring.carrier.identity.values())
    assert all(v in ids for v in ac.absorb_l.components.values())
    assert all(v in ids for v in ac.absorb_r.components.values())


def test_ring_conversions_check_each_structure_once(monkeypatch):
    # the ring's data rows include the additive half's suite, so the
    # translation of that half does not check it again; the translated
    # half is re-checked without its data rows
    from collections import Counter

    from twogrp import ac, rings

    calls = Counter()
    for module in (ac, rings):
        for name in ("validate_sm", "validate_ac"):
            if hasattr(module, name):
                def spy(s, *, _real=getattr(module, name), **kw):
                    calls[id(s), kw.get("check_data", True)] += 1
                    return _real(s, **kw)
                monkeypatch.setattr(module, name, spy)
    ring = z6()
    ac_ring = quang_to_ac_ring(ring)
    back = ac_ring_to_quang(ac_ring)
    assert back == ring
    # (structure, with its data rows): calls; the two rings share mul
    assert calls == {(id(ring.add), True): 1, (id(ac_ring.add), False): 1, (id(ac_ring.add), True): 1,
                     (id(back.add), False): 1, (id(ring.mul), True): 2}


def test_quang_ac_bijection_roundtrip_dual_ring():
    ring = z2e()
    ac = quang_to_ac_ring(ring)
    assert validate_ac_ring(ac).ok
    assert ac_ring_to_quang(ac) == ring
    assert quang_to_ac_ring(ac_ring_to_quang(ac)) == ac


def test_bijection_matches_direct_ac_construction():
    assert quang_to_ac_ring(z6()) == build_strict_2ring(ring_zmod(6), presentation="ac")
    assert ac_ring_to_quang(build_strict_2ring(ring_zmod(6), presentation="ac")) == z6()


# -- the reformulated distributor transformation (2R2 as T1) -----------------


def _distributor_transformation_reports(ring, pairs):
    """e(x,y,-) as a transformation (x*-) [+] (y*-) => (x+y)*- and
    d(-,y,z) as (-*y) [+] (-*z) => -*(y+z); returns their T1 results."""
    add = ring.add
    out = []
    for x, y in pairs:
        # the absorbers are the zero isos; the symmetric presentation
        # stores none, so take the canonical ones
        absorbers = ring if ring.absorb_l is not None else quang_to_ac_ring(ring, validate=False)
        m, n = absorbers.absorb_l.components, absorbers.absorb_r.components
        lx, ly = (left_mult_functor(ring, w).with_zero(m[(w,)]) for w in (x, y))
        rx, ry = (right_mult_functor(ring, w).with_zero(n[(w,)]) for w in (x, y))
        summed = boxplus(lx, ly, add)
        target = left_mult_functor(ring, add.add(x, y))
        tau = tau_family({(z,): ring.dist_r.components[(x, y, z)] for z in ring.carrier.objects})
        e_form = validate_transformation(
            MonTransformation(summed, target, tau), add, add, check_data=False
        )["T1"].status
        summed_r = boxplus(rx, ry, add)
        target_r = right_mult_functor(ring, add.add(x, y))
        tau_d = tau_family({(w,): ring.dist_l.components[(w, x, y)] for w in ring.carrier.objects})
        d_form = validate_transformation(
            MonTransformation(summed_r, target_r, tau_d), add, add, check_data=False
        )["T1"].status
        out.append((e_form, d_form))
    return out


def test_2r2_d_form_and_e_form_agree():
    ring = z6()
    pairs = [("1", "2"), ("3", "5"), ("0", "4")]
    for e_form, d_form in _distributor_transformation_reports(ring, pairs):
        assert e_form == d_form == Status.PASS


# -- absorber search --------------------------------------------------------


def test_jp_upgrade_recovers_identity_absorbers():
    for ring in (z6(), z2e()):
        upgraded = jp_upgrade(ring)
        assert isinstance(upgraded, TwoRingData)
        ids = set(ring.carrier.identity.values())
        assert all(v in ids for v in upgraded.absorb_l.components.values())
        assert all(v in ids for v in upgraded.absorb_r.components.values())
        assert validate_ac_ring(upgraded).ok
        # back to the symmetric presentation: a full Quang 2-ring again
        assert validate_quang(ac_ring_to_quang(upgraded)).ok


def test_absorber_candidates_are_unique_on_strict_fixtures():
    # the m/n absorber squares are the AF2 unit squares of x*- and -*x
    ring = z6()
    add = quang_to_ac_ring(ring, validate=False).add
    for x in ring.carrier.objects_sorted:
        assert len(enumerate_zero_isos(left_mult_functor(ring, x), add, add, "AF2")) == 1
        assert len(enumerate_zero_isos(right_mult_functor(ring, x), add, add, "AF2")) == 1


def test_jp_upgrade_reports_blocking_object():
    ring = z6()
    # doctor the multiplication so 1*0 lands on an object unreachable from 0;
    # the search must report the first blocking object in canonical scan
    # order (the corruption also breaks neighbouring squares at 0)
    mul_obj = dict(ring.mul.sum_obj)
    mul_obj[("1", "0")] = "1"
    doctored = replace(ring, mul=replace(ring.mul, sum_obj=mul_obj, _cache={}), _cache={})
    result = jp_upgrade(doctored, validate=False)
    assert isinstance(result, NoAbsorbers)
    assert (result.obj, result.side) == ("0", "right")
    # the empty-hom path: no morphism 0 -> 1*0 exists at all
    add = to_ac(doctored.add)
    assert enumerate_zero_isos(left_mult_functor(doctored, "1"), add, add, "AF2") == []


def test_jp_upgrade_rejects_squares_that_read_a_missing_entry():
    # 1*0 sent outside the carrier: the square of -*0 at 1 looks up the
    # identity of an unknown object, which rejects every candidate at 0
    ring = z6()
    mul_obj = dict(ring.mul.sum_obj)
    mul_obj[("1", "0")] = "7"
    doctored = replace(ring, mul=replace(ring.mul, sum_obj=mul_obj, _cache={}), _cache={})
    add = to_ac(doctored.add)
    assert enumerate_zero_isos(right_mult_functor(doctored, "0"), add, add, "AF2") == []
    result = jp_upgrade(doctored, validate=False)
    assert isinstance(result, NoAbsorbers)
    assert (result.obj, result.side) == ("0", "right")


def test_quang_implies_jp_on_fixtures():
    for ring in (z6(), z2e()):
        if validate_quang(ring).ok:
            assert validate_jp(ring).ok


def test_randomized_jp_not_quang_search_is_reported_not_asserted():
    # single-entry distributor flips of a discrete ring; the separating
    # example is the derivation 2-ring below.  A seeded search records
    # whether a flip ever separates, and asserts the hierarchy never inverts
    import random

    rng = random.Random(20250811)
    ring = z6()
    found = []
    objs = ring.carrier.objects_sorted
    for _ in range(20):
        idx = (rng.choice(objs), rng.choice(objs), rng.choice(objs))
        flipped = replace(
            ring, dist_l=perturb_family(ring.dist_l, idx, f"0|{rng.choice(objs)}"), _cache={}
        )
        jp_ok = validate_jp(flipped, check_data=False).ok
        quang_ok = validate_quang(flipped, check_data=False).ok
        if jp_ok and not quang_ok:
            found.append(idx)
        # the hierarchy can never invert
        assert not (quang_ok and not jp_ok)
    print(f"jp-not-quang candidates found: {found or 'none (example not exercised)'}")


def test_family_missing_a_component_is_not_strict():
    from twogrp.document import Block, StructureDocument, parse_document, serialize_document

    ring = build_strict_2ring(ring_zmod(4))
    text = serialize_document(StructureDocument(ring.carrier, [
        Block("sm", "add", ring.add), Block("mul", "mul", ring.mul),
        Block("tworing", "ring", ring, {"add": "add", "mul": "mul"})]))
    gone = ("1", "2", "3")

    def parsed():
        ring = parse_document(text).block("ring").obj
        del ring.dist_l.components[gone]
        return ring

    # every remaining component is an identity, but d is not total
    bad = parsed()
    assert not bad.dist_l.is_strict(bad.carrier, bad.env())
    rep = validate_jp(parsed())
    assert rep["d-endpoints"].status is Status.FAIL
    assert rep["d-endpoints"].witness.index == gone
    # without the data rows, the profile no longer vouches for d: the suite
    # runs the loop, which reports the missing component as the reference does
    for skip in (True, False):
        rep = validate_jp(parsed(), check_data=False, allow_strict_skip=skip)
        failed = rep.failures()[0]
        assert failed.mode == "exhaustive"
        assert str(gone) in failed.witness.note


# ---------------------------------------------------------------------------
# the separation: a 2R1'-ring that is not a Quang ring
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3])
def test_derivation_2ring_passes_jp_and_fails_quang_at_2r1(m):
    ring = build_derivation_2ring(m)
    assert validate_two_ring_data(ring).ok
    assert validate_jp(ring, allow_strict_skip=False).ok
    quang = validate_quang(ring, allow_strict_skip=False)
    assert [row.law for row in quang.failures()] == ["2R1/left-assoc"]
    assert quang["2R1/left-assoc"].witness.index == ("0+1e", "0+0e", "0+0e", "1+0e")
    assert jp_upgrade(ring) == NoAbsorbers("0+1e", "left")


@pytest.mark.parametrize("m", [2, 3])
def test_derivation_2ring_has_a_left_absorber_exactly_where_x1_is_zero(m):
    ring = build_derivation_2ring(m)
    add = to_ac(ring.add)
    for x in ring.carrier.objects_sorted:
        left = enumerate_zero_isos(left_mult_functor(ring, x), add, add, "AF2")
        assert (left == []) == (not x.endswith("+0e")), x
        assert enumerate_zero_isos(right_mult_functor(ring, x), add, add, "AF2"), x


@pytest.mark.parametrize("m", [2, 3])
def test_derivation_2ring_sm_axioms_hold_exactly_where_the_zero_iso_exists(m):
    # the paper's mechanism row by row: every x*- satisfies AF1; where x1 = 0
    # it has an AF2 zero isomorphism and the symmetric axioms follow, and at
    # every other x it has none and SF1 fails
    ring = build_derivation_2ring(m)
    add = to_ac(ring.add)
    for x in ring.carrier.objects_sorted:
        fun = left_mult_functor(ring, x)
        assert validate_ac_functor(fun, add, add).ok, x
        zeros = enumerate_zero_isos(fun, add, add, "AF2")
        if x.endswith("+0e"):
            assert zeros, x
            assert derive_sm_axioms_from_ac(fun.with_zero(zeros[0]), add, add).ok, x
        else:
            assert zeros == [], x
            with pytest.raises(PreconditionFailed):
                derive_sm_axioms_from_ac(fun, add, add)
            sf = validate_sm_functor(fun, ring.add, ring.add)
            assert [row.law for row in sf.failures()] == ["SF1"], x


@pytest.mark.parametrize("m", [2, 3])
def test_derivation_2ring_without_the_derivation_is_a_quang_ring(m):
    ring = strict_derivation_2ring(m)
    assert validate_jp(ring, allow_strict_skip=False).ok
    assert validate_quang(ring, allow_strict_skip=False).ok
    assert validate_quang(ac_ring_to_quang(jp_upgrade(ring))).ok


ZERO_ISO_RINGS = [(label, ring) for label, ring in law_rings() if ring.presentation == "sm"] + [
    ("kappa3", kappa_twisted_2ring(3, False)), ("strict-derivation2", strict_derivation_2ring(2))]


@pytest.mark.parametrize("label, ring", ZERO_ISO_RINGS, ids=[label for label, _ in ZERO_ISO_RINGS])
def test_conversion_absorbers_are_the_canonical_zero_isos_of_the_multiplication_functors(label, ring):
    # one declared route: m_x and n_x are canonical_zero_iso of x*- and -*x,
    # or the conversion refuses with the text the first refusal has
    add = ring.add
    try:
        out = quang_to_ac_ring(ring, validate=False)
    except PreconditionFailed as err:
        with pytest.raises(PreconditionFailed) as want:
            for x in ring.carrier.objects_sorted:
                canonical_zero_iso(left_mult_functor(ring, x), add, add)
                canonical_zero_iso(right_mult_functor(ring, x), add, add)
        assert str(err) == str(want.value)
        return
    for x in ring.carrier.objects_sorted:
        assert out.absorb_l.components[(x,)] == canonical_zero_iso(left_mult_functor(ring, x), add, add), x
        assert out.absorb_r.components[(x,)] == canonical_zero_iso(right_mult_functor(ring, x), add, add), x


def _without(ring, table, key):
    """``ring`` with the entry at ``key`` dropped from d (``dist_l``) or from
    the product's object or morphism table (``sum_obj``, ``sum_mor``)."""
    if table == "dist_l":
        fam = ring.dist_l
        return replace(ring, dist_l=replace(fam, components={k: f for k, f in fam.components.items() if k != key},
                                            _cache={}), _cache={})
    kept = {k: v for k, v in getattr(ring.mul, table).items() if k != key}
    return replace(ring, mul=replace(ring.mul, **{table: kept}, _cache={}), _cache={})


def test_unvalidated_conversion_names_the_sf1_witness():
    # pinned texts: the derivation ring fails SF1 of 0*-, and a missing d or
    # product entry is an SF1 witness, a route that does not evaluate
    cases = [
        (build_derivation_2ring(2), "SF1 fails: witness at (0+0e, 0+0e, 1+0e): left=1|0+1e right=0|0+1e"),
        (_without(build_derivation_2ring(2), "dist_l", ("0+0e", "0+0e", "1+1e")),
         "SF1 fails: witness at (0+0e, 0+0e, 1+1e): route does not evaluate: no entry at ('0+0e', '0+0e', '1+1e')"),
        (_without(kappa_twisted_2ring(2, False), "sum_obj", ("0+0e", "1+0e")),
         "SF1 fails: witness at (0+0e, 0+0e, 1+0e): route does not evaluate: no entry at ('0+0e', '1+0e')"),
    ]
    for ring, text in cases:
        with pytest.raises(PreconditionFailed) as err:
            quang_to_ac_ring(ring, validate=False)
        assert str(err.value) == text


def test_unvalidated_upgrade_reads_only_the_unit_squares():
    # d(1,2,3) is read by no unit square of 1*-, so the search finds the
    # identity absorbers; validation is what reports the gap
    ring = _without(build_strict_2ring(ring_zmod(4)), "dist_l", ("1", "2", "3"))
    upgraded = jp_upgrade(ring, validate=False)
    assert isinstance(upgraded, TwoRingData)
    ids = set(ring.carrier.identity.values())
    assert set(upgraded.absorb_l.components.values()) | set(upgraded.absorb_r.components.values()) <= ids
    with pytest.raises(PreconditionFailed, match="^input fails the 2R1' suite: d-endpoints$"):
        jp_upgrade(ring)


def test_unnatural_absorbers_block_at_the_source_object_of_the_failing_square():
    # without the product of 1|0+1e and 0|0+0e the unit squares still pick
    # m and n, but the naturality square of m at 1|0+1e: 0+1e -> 0+1e does
    # not evaluate; the search names that morphism's source object
    ring = _without(kappa_twisted_2ring(2, False), "sum_mor", ("1|0+1e", "0|0+0e"))
    assert jp_upgrade(ring, validate=False) == NoAbsorbers("0+1e", "left", "found components are not natural")


def test_kappa_twisted_rings_separate_the_notions_with_non_identity_a_c_d_e():
    # the derivation ring transported along the kappa coboundary: a, c, d
    # and e all carry non-zero labels, and the canonical b is not strict
    for separating in (False, True):
        ring = kappa_twisted_2ring(3, separating)
        for fam in (ring.add.assoc, ring.add.comm, ring.dist_l, ring.dist_r):
            assert any(not f.startswith("0|") for f in fam.components.values())
        assert not _canonical_acomm(ring.add).is_strict()
        assert validate_two_ring_data(ring).ok
        assert validate_jp(ring, allow_strict_skip=False).ok
        quang = validate_quang(ring, allow_strict_skip=False)
        assert [row.law for row in quang.failures()] == (["2R1/left-assoc"] if separating else [])
    # the twist of the other sign is not coherent with the additive half
    opposite = kappa_twisted_2ring(3, False, sign=-1)
    jp = validate_jp(opposite, allow_strict_skip=False)
    assert [row.law for row in jp.failures()] == ["2R1-prime/d", "2R1-prime/e", "2R2"]


def test_a_missing_inverse_is_a_route_that_does_not_evaluate():
    # the canonical b of a kappa-twisted ring reads the carrier's inverses;
    # without check_data a missing one is a witness, in the head
    # (2R1'/d, 2R2) and past it (2R1'/e)
    gpd = coboundary_twisted_dual_numbers(3).carrier
    gpd = replace(gpd, inverse={k: v for k, v in gpd.inverse.items() if k != "1|0+0e"})
    ring = kappa_twisted_2ring(3, False)
    ring = replace(ring, carrier=gpd, add=replace(ring.add, carrier=gpd), mul=replace(ring.mul, carrier=gpd))
    note = "route does not evaluate: no inverse recorded for morphism '1|0+0e'"
    rows = [(row.law, row.instances, row.witness.note) for row in validate_jp(ring, check_data=False).failures()]
    assert rows == [("2R1-prime/d", 117, note), ("2R1-prime/e", 1045, note), ("2R2", 1007, note)]
