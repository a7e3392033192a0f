"""Symmetric monoidal axiom suite, basic unitor, weak inverses, 2-groups."""

import pytest
from dataclasses import replace

from twogrp import (
    NoInverse,
    UnitorMismatch,
    build_dual_numbers_2group,
    build_strict_2ring,
    build_super_line_2group,
    find_weak_inverse,
    ring_zmod,
    validate_2group,
    validate_sm,
    weak_inverse_candidates,
)
from twogrp.groupoid import compose_path
from twogrp.monoidal import basic_unitor
from twogrp.report import Status, Witness

from helpers import (
    max_monoid_structure,
    one_object_2group,
    perturb_family,
    strict_cyclic_2group,
)


def super_line():
    return build_super_line_2group()


def test_strict_cyclic_structure_passes():
    m = strict_cyclic_2group(5)
    rep = validate_sm(m)
    assert rep.ok
    for law in ("SC1", "SC2", "SC3", "SC4"):
        assert rep[law].status is Status.PASS


def test_super_line_passes_all_axioms_exhaustively():
    rep = validate_sm(super_line(), allow_strict_skip=False)
    assert rep.ok
    assert rep["SC1"].instances == 16
    assert rep["SC3"].instances == 8
    # spot oracle: the hexagon at (1,1,1) balances labels 1+0+1 = 0+1+1 mod 2
    m = super_line()
    assert m.comm.components[("1", "1")] == "1|0"


def test_strict_skip_agrees_with_forced_full():
    for m in (strict_cyclic_2group(4), build_dual_numbers_2group(2, "sm")):
        fast = validate_sm(m)
        slow = validate_sm(m, allow_strict_skip=False)
        for law in ("SC1", "SC2", "SC3", "SC4"):
            assert fast[law].status == slow[law].status == Status.PASS


def test_strict_bit_does_not_vouch_under_other_sum_tables():
    # the fixture's families were marked strict under the fixture's sum; with
    # two non-unit objects swapped in the sum's values they no longer are
    m = build_dual_numbers_2group(2, "sm")
    swap = {"0+1e": "1+0e", "1+0e": "0+1e"}

    def swapped(mid):
        label, obj = mid.split("|")
        return f"{label}|{swap.get(obj, obj)}"

    twisted = replace(
        m,
        sum_obj={k: swap.get(v, v) for k, v in m.sum_obj.items()},
        sum_mor={k: swapped(v) for k, v in m.sum_mor.items()},
        _cache={},
    )
    fast = validate_sm(twisted, check_data=False)
    slow = validate_sm(twisted, check_data=False, allow_strict_skip=False)
    assert not slow.ok
    assert [c.law for c in fast.checks] == [c.law for c in slow.checks]
    for f, s in zip(fast.checks, slow.checks):
        assert (f.status, f.witness) == (s.status, s.witness), f.law
    # the fixture itself keeps its bits
    assert validate_sm(m, check_data=False)["SC1"].mode == "strict-profile"


def test_flipping_assoc_at_111_breaks_hexagon_not_pentagon():
    # the single flip at (1,1,1) is the nontrivial 3-cocycle on Z/2: the
    # pentagon survives, the hexagon fails at (1,1,1)
    m = super_line()
    pert = replace(m, assoc=perturb_family(m.assoc, ("1", "1", "1"), "1|1"), _cache={})
    rep = validate_sm(pert)
    assert rep["SC1"].status is Status.PASS
    assert rep["SC2"].status is Status.PASS
    assert rep["SC3"].status is Status.FAIL
    assert rep["SC3"].witness.index == ("1", "1", "1")
    assert rep["SC4"].status is Status.PASS


def test_flipping_assoc_at_110_breaks_pentagon():
    m = super_line()
    pert = replace(m, assoc=perturb_family(m.assoc, ("1", "1", "0"), "1|0"), _cache={})
    rep = validate_sm(pert)
    assert rep["SC1"].status is Status.FAIL
    assert rep["SC1"].witness.index == ("1", "1", "0", "0")


def test_flipping_comm_to_zero_yields_the_strict_structure():
    m = super_line()
    pert = replace(m, comm=perturb_family(m.comm, ("1", "1"), "0|0"), _cache={})
    rep = validate_sm(pert)
    assert rep.ok  # all commutator components are now identities


def test_monoidal_only_mode_is_monotone():
    m = super_line()
    dropped = replace(m, comm=None, _cache={})
    rep = validate_sm(dropped)
    assert rep.ok
    assert rep["SC3"].status is Status.NOT_APPLICABLE
    assert rep["SC4"].status is Status.NOT_APPLICABLE


# -- basic unitor -----------------------------------------------------------


def test_basic_unitor_strict():
    m = strict_cyclic_2group(5)
    assert basic_unitor(m) == m.carrier.identity["0"]


def test_basic_unitor_super_line():
    m = super_line()
    assert basic_unitor(m) == "0|0"


def test_basic_unitor_mismatch_after_perturbation():
    m = super_line()
    pert = replace(m, runit=perturb_family(m.runit, ("0",), "1|0"), _cache={})
    with pytest.raises(UnitorMismatch):
        basic_unitor(pert)
    # the perturbed structure is indeed invalid: the triangle fails
    rep = validate_sm(pert)
    assert rep["SC2"].status is Status.FAIL


# -- weak inverses ----------------------------------------------------------


def test_find_weak_inverse_strict_cyclic():
    m = strict_cyclic_2group(5)
    cert = find_weak_inverse(m, "2")
    assert cert.inverse == "3"
    assert cert.eta == m.carrier.identity["0"]


def test_find_weak_inverse_super_line_picks_component_zero():
    m = super_line()
    cert = find_weak_inverse(m, "1")
    assert cert.inverse == "1"
    assert cert.eta == "0|0"
    # both morphisms 0 -> 0 certify; canonical order picks label 0
    cands = weak_inverse_candidates(m, "1")
    assert [c.eta for c in cands] == ["0|0", "1|0"]


def test_no_inverse_in_max_monoid():
    m = max_monoid_structure()
    assert validate_sm(m).ok  # valid structure, just not a 2-group
    with pytest.raises(NoInverse):
        find_weak_inverse(m, "1")


def test_a_missing_sum_pair_gives_no_weak_inverse_certificate():
    # 0 + 1 is undefined: 0 is no candidate inverse of 1, and the 2-group
    # suite reports the bifunctor witness instead of raising KeyError
    m = super_line()
    gapped = replace(m, sum_obj={k: v for k, v in m.sum_obj.items() if k != ("0", "1")}, _cache={})
    assert [c.inverse for c in weak_inverse_candidates(gapped, "1")] == ["1", "1"]
    assert find_weak_inverse(gapped, "1").inverse == "1"
    rep = validate_2group(gapped)
    assert [c.law for c in rep.failures()] == ["bifunctor"]
    assert rep["bifunctor"].witness == Witness(("0", "1"), note="sum object table not total")
    assert rep["weak-inverses"].status is Status.PASS


def test_a_sum_morphism_value_outside_the_carrier_is_a_bifunctor_witness():
    m = super_line()
    key = ("1|0", "1|0")
    bad = replace(m, sum_mor={**m.sum_mor, key: "nope"}, _cache={})
    rep = validate_sm(bad)
    assert [c.law for c in rep.failures()] == ["bifunctor"]
    assert rep["bifunctor"].witness == Witness(
        key, left="nope", note="sum morphism table sends pair outside the carrier")


def test_validate_2group():
    assert validate_2group(build_dual_numbers_2group(2, "sm")).ok
    assert validate_2group(super_line()).ok
    assert validate_2group(one_object_2group(3)).ok
    rep = validate_2group(max_monoid_structure())
    assert not rep.ok
    assert rep["weak-inverses"].witness.index == ("1",)


def test_eta_certificate_roundtrip():
    for m in (super_line(), strict_cyclic_2group(4)):
        for x in m.carrier.objects_sorted:
            cert = find_weak_inverse(m, x)
            gpd = m.carrier
            assert compose_path(gpd, [gpd.inv(cert.eta), cert.eta]) == gpd.identity[m.unit]


def test_2group_for_every_dual_numbers_modulus():
    for m in (2, 3, 5):
        rep = validate_2group(build_dual_numbers_2group(m, "sm"))
        assert rep.ok
        certs = rep.artifacts["weak_inverses"]
        assert len(certs) == m * m


def test_strict_ring_addition_is_2group():
    assert validate_2group(build_strict_2ring(ring_zmod(6)).add).ok
