"""AC axiom suite and the two presentation translations."""

import pytest
from dataclasses import replace
from itertools import product

from twogrp import (
    MalformedTable,
    PreconditionFailed,
    assoc_commutator_upper,
    build_dual_numbers_2group,
    canonical_acomm_at,
    build_strict_2ring,
    build_super_line_2group,
    ring_zmod,
    to_ac,
    to_sm,
    validate_ac,
    validate_sm,
)
from twogrp.report import Status

from helpers import assoc_commutator_lower, coboundary_twisted_dual_numbers, perturb_family


def test_dual_numbers_ac_passes():
    for m in (2, 3):
        rep = validate_ac(build_dual_numbers_2group(m))
        assert rep.ok


def test_to_ac_of_super_line_passes_forced_full():
    ac = to_ac(build_super_line_2group())
    rep = validate_ac(ac, allow_strict_skip=False)
    assert rep.ok
    assert rep["AC1"].instances == 2 ** 8


def test_super_line_acomm_matches_parity_oracle():
    # hand oracle: only the middle commutator leg contributes, so the
    # component at (x,y,z,t) carries label y*z at object x+y+z+t
    sl = build_super_line_2group()
    ac = to_ac(sl)
    for x, y, z, t in product("01", repeat=4):
        label = (int(y) * int(z)) % 2
        obj = (int(x) + int(y) + int(z) + int(t)) % 2
        assert ac.acomm.components[(x, y, z, t)] == f"{label}|{obj}"


def test_both_border_paths_agree_on_every_tuple():
    fixtures = [
        build_super_line_2group(),
        build_strict_2ring(ring_zmod(5)).add,
        build_dual_numbers_2group(2, "sm"),
    ]
    for m in fixtures:
        objs = m.carrier.objects_sorted
        for idx in product(objs, repeat=4):
            assert assoc_commutator_upper(m, *idx) == assoc_commutator_lower(m, *idx)


def test_to_ac_strict_input_gives_identity_family():
    m = build_strict_2ring(ring_zmod(5)).add
    ac = to_ac(m)
    ids = set(m.carrier.identity.values())
    assert all(mid in ids for mid in ac.acomm.components.values())


def test_flip_acomm_breaks_ac1_with_8_tuple_witness():
    ac = to_ac(build_super_line_2group())
    pert = replace(ac, acomm=perturb_family(ac.acomm, ("1", "1", "1", "1"), "0|0"), _cache={})
    rep = validate_ac(pert)
    assert rep["AC1"].status is Status.FAIL
    assert len(rep["AC1"].witness.index) == 8
    # AC3 is untouched by this flip
    assert rep["AC3"].status is Status.PASS


def test_flip_acomm_at_unit_slots_breaks_ac3():
    ac = to_ac(build_super_line_2group())
    pert = replace(ac, acomm=perturb_family(ac.acomm, ("1", "0", "0", "1"), "1|0"), _cache={})
    rep = validate_ac(pert)
    assert rep["AC3"].status is Status.FAIL
    assert rep["AC3"].witness.index == ("1", "1")
    with pytest.raises(PreconditionFailed):
        to_sm(pert)


def test_roundtrips_are_table_identities():
    super_line = build_super_line_2group()
    fixtures_sm = [
        super_line,
        build_strict_2ring(ring_zmod(5)).add,
        build_dual_numbers_2group(2, "sm"),
    ]
    for m in fixtures_sm:
        assert to_sm(to_ac(m)) == m
    fixtures_ac = [to_ac(super_line), build_dual_numbers_2group(2), build_dual_numbers_2group(3)]
    for a in fixtures_ac:
        assert to_ac(to_sm(a)) == a


def test_to_sm_recovers_super_line_tables_exactly():
    sl = build_super_line_2group()
    back = to_sm(to_ac(sl))
    assert back.assoc.components == sl.assoc.components
    assert back.comm.components == sl.comm.components
    ids = set(sl.carrier.identity.values())
    assert all(mid in ids for mid in back.assoc.components.values())
    assert back.comm.components[("1", "1")] == "1|0"


def test_to_sm_of_dual_numbers_is_strict():
    a = build_dual_numbers_2group(3)
    sm = to_sm(a)
    ids = set(a.carrier.identity.values())
    assert all(mid in ids for mid in sm.assoc.components.values())
    assert all(mid in ids for mid in sm.comm.components.values())
    assert sm == build_dual_numbers_2group(3, "sm")


def test_to_ac_refuses_pentagon_violation():
    sl = build_super_line_2group()
    pert = replace(sl, assoc=perturb_family(sl.assoc, ("1", "1", "0"), "1|0"), _cache={})
    assert not validate_sm(pert).ok
    with pytest.raises(PreconditionFailed):
        to_ac(pert)


def test_to_ac_requires_commutator():
    sl = build_super_line_2group()
    dropped = replace(sl, comm=None, _cache={})
    with pytest.raises(PreconditionFailed):
        to_ac(dropped)


def test_ac_strict_skip_agrees_with_forced_full():
    a = build_dual_numbers_2group(2)
    fast = validate_ac(a)
    slow = validate_ac(a, allow_strict_skip=False)
    for law in ("AC1", "AC2/right-units", "AC2/left-units", "AC2/units-right",
                "AC2/units-left", "AC3"):
        assert fast[law].status == slow[law].status == Status.PASS
    assert fast["AC1"].mode == "strict-profile"
    assert slow["AC1"].instances == 4 ** 8


def test_validate_ac_sampled_mode():
    a = build_dual_numbers_2group(3)
    rep = validate_ac(a, sample=2000, seed=3, allow_strict_skip=False)
    assert rep.ok
    assert rep["AC1"].mode == "sampled(n=2000,seed=3)"


def test_sampled_ac1_witness_is_pinned():
    # the draw of a seed is part of the report contract: this witness must
    # not move when the sampler or the loop changes
    ac = to_ac(build_super_line_2group())
    pert = replace(ac, acomm=perturb_family(ac.acomm, ("1", "1", "1", "1"), "0|0"), _cache={})
    row = validate_ac(pert, sample=64, seed=20251018, allow_strict_skip=False)["AC1"]
    assert (row.status, row.instances, row.mode) == (Status.FAIL, 5, "sampled(n=64,seed=20251018)")
    w = row.witness
    assert w.index == ("1", "1", "0", "1", "1", "1", "0", "0")
    assert (w.left, w.right) == ("1|1", "0|1")
    assert w.left_path == ("1|1", "0|1", "0|1")
    assert w.right_path == ("0|1", "0|1", "0|1")


def test_a_replaced_structure_does_not_read_the_originals_memo():
    # dataclasses.replace without _cache={} used to share the memo, so the
    # copy read the canonical b (and id_pres) computed for the original
    m = build_dual_numbers_2group(3, "sm")
    tw = coboundary_twisted_dual_numbers(3)
    idx = ("0+0e", "0+1e", "0+2e", "0+1e")
    assert canonical_acomm_at(m, *idx) == "0|0+1e"
    assert m.preserves_identities()
    twisted = replace(m, assoc=tw.assoc, comm=tw.comm)
    assert twisted._cache == {} and twisted.carrier._cache is m.carrier._cache
    assert canonical_acomm_at(twisted, *idx) == assoc_commutator_upper(tw, *idx) == "1|0+1e"
    assert replace(m, _cache={})._cache == {}


def test_a_missing_inverse_the_border_reads_raises_the_inverse_error():
    # the border composite's inversion is an ap over the inverse table; a
    # miss raises FinGroupoid.inv's text, not a KeyError
    m = coboundary_twisted_dual_numbers(3)
    gpd = replace(m.carrier, inverse={k: v for k, v in m.carrier.inverse.items() if k != "1|0+0e"})
    with pytest.raises(MalformedTable) as err:
        to_ac(replace(m, carrier=gpd))
    assert str(err.value) == "no inverse recorded for morphism '1|0+0e'"


def test_a_strict_structure_whose_inverse_moves_an_identity_is_not_strict():
    # the border composites invert legs through the carrier's inverse table:
    # their strict profiles need it to fix every identity, as they need the
    # families strict and the sum to preserve identities
    from twogrp.ac import ACOMM_UPPER, ASSOC_FROM_B, COMM_FROM_B, _canonical_acomm, _route_env
    from twogrp.diagram import strict_profile

    sm, ac = build_dual_numbers_2group(2, "sm"), build_dual_numbers_2group(2)
    gpd = sm.carrier
    unit_id = gpd.identity["0+0e"]
    moved = replace(gpd, inverse={**gpd.inverse, unit_id: "1|0+0e"})
    assert _canonical_acomm(sm).is_strict()
    assert all(strict_profile(law, gpd, _route_env(ac)) for law in (ASSOC_FROM_B, COMM_FROM_B))

    sm2, ac2 = replace(sm, carrier=moved), replace(ac, carrier=moved)
    for s in (sm2, ac2):
        assert s.preserves_identities()
        assert all(f.is_strict(moved, s.env()) for f in s.families().values())
    assert not _canonical_acomm(sm2).is_strict()
    for law in (ACOMM_UPPER, ASSOC_FROM_B, COMM_FROM_B):
        assert not strict_profile(law, moved, _route_env(sm2 if law is ACOMM_UPPER else ac2))
    # so b is read from the border composite, which is not the identity there
    idx = ("0+1e", "0+0e", "0+0e", "0+0e")
    assert canonical_acomm_at(sm2, *idx) == assoc_commutator_upper(sm2, *idx) != gpd.identity["0+1e"]
