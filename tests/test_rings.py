"""2-ring suites, the Quang/JP/AC hierarchy and the conversions."""

import pytest
from dataclasses import replace

from twogrp import (
    MissingAbsorbers,
    MonTransformation,
    NoAbsorbers,
    PresentationMismatch,
    TwoRingData,
    ac_ring_to_quang,
    boxplus,
    build_derivation_2ring,
    build_strict_2ring,
    jp_upgrade,
    quang_distributivity_diagrams,
    quang_to_ac_ring,
    ring_dual_numbers,
    ring_zmod,
    validate_ac_ring,
    validate_jp,
    validate_quang,
    validate_two_ring_data,
)
from twogrp.ac import to_ac
from twogrp.functors import enumerate_zero_isos, tau_family, validate_transformation
from twogrp.rings import left_mult_functor, right_mult_functor
from twogrp.report import Status

from helpers import perturb_family, strict_derivation_2ring


def z6():
    return build_strict_2ring(ring_zmod(6))


def z2e():
    return build_strict_2ring(ring_dual_numbers(2))


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
def test_derivation_2ring_without_the_derivation_is_a_quang_ring(m):
    ring = strict_derivation_2ring(m)
    assert validate_jp(ring, allow_strict_skip=False).ok
    assert validate_quang(ring, allow_strict_skip=False).ok
    assert validate_quang(ac_ring_to_quang(jp_upgrade(ring))).ok
