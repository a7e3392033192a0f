"""Fixture constructors: shapes, values, ring-law checking, and the
separating property of the multiplication endofunctors."""

from dataclasses import replace
from itertools import product

import pytest

from twogrp import (
    InvalidModulus,
    NotARing,
    RingTable,
    build_derivation_2ring,
    build_dual_numbers_2group,
    build_mult_endofunctor,
    build_strict_2ring,
    build_super_line_2group,
    compose_functors,
    ring_dual_numbers,
    ring_zmod,
    to_ac,
    to_sm,
    validate_2group,
    validate_ac,
    validate_ac_functor,
    validate_ac_ring,
    validate_groupoid,
    validate_jp,
    validate_quang,
    validate_sm_functor,
)
from twogrp import expr as ex
from twogrp.ac import acomm_family
from twogrp.diagram import KERNEL_FLOOR
from twogrp.errors import MalformedTable
from twogrp.fixtures import check_ring_table
from twogrp.functors import check_fsum_naturality
from twogrp.groupoid import Column, _recorded, identity_family, validate_functor
from twogrp.monoidal import assoc_family, comm_family, lunit_family
from twogrp.rings import ac_ring_to_quang, dist_l_family, dist_r_family, quang_to_ac_ring
from twogrp.report import Status

from helpers import max_monoid_structure, parallel_morphisms, parity_2ring, perturb_family, strict_derivation_2ring


def test_dual_numbers_shape_and_validity():
    a2 = build_dual_numbers_2group(2)
    assert len(a2.carrier.objects) == 4
    assert len(a2.carrier.morphisms) == 8
    assert validate_groupoid(a2.carrier).ok
    assert validate_ac(a2).ok
    a5 = build_dual_numbers_2group(5)
    assert len(a5.carrier.objects) == 25
    assert len(a5.carrier.morphisms) == 125
    assert validate_ac(a5).ok


def test_dual_numbers_unit_is_zero_with_strict_unitors():
    a = build_dual_numbers_2group(3)
    assert a.unit == "0+0e"
    ident = a.carrier.identity
    assert all(v == ident["0+0e"] or v.startswith("0|") for v in a.lunit.components.values())
    assert a.lunit.components[("0+0e",)] == ident["0+0e"]
    assert a.runit.components[("0+0e",)] == ident["0+0e"]


def test_dual_numbers_every_family_is_strict():
    a = build_dual_numbers_2group(3)
    env = a.env()
    for fam in a.families().values():
        assert fam.is_strict(a.carrier, env)
    sm = build_dual_numbers_2group(3, "sm")
    env = sm.env()
    for fam in sm.families().values():
        assert fam.is_strict(sm.carrier, env)


def _families_of(label, structure, keys):
    """(label, family, carrier, environment) for the families ``keys`` of ``structure``."""
    fams, env = structure.families(), structure.env()
    return [(f"{label} {key}", fams[key], structure.carrier, env) for key in keys]


def _identity_built_families():
    """(label, family, carrier, environment) for every family built by
    ``identity_family``: the fixtures', the strict branches of the two
    translations' and the test helpers'."""
    out = []
    add = lambda *entry: out.extend(_families_of(*entry))

    for m in (2, 3):
        add(f"dn{m} ac", build_dual_numbers_2group(m), "blr")
        add(f"dn{m} sm", build_dual_numbers_2group(m, "sm"), "aclr")
    add("super-line", build_super_line_2group(), "alr")
    for name, table in (("z4", ring_zmod(4)), ("z3e", ring_dual_numbers(3))):
        for pres, ring_keys in (("sm", "de"), ("ac", "demn")):
            ring = build_strict_2ring(table, pres)
            add(f"{name} {pres} add", ring.add, "blr" if pres == "ac" else "aclr")
            add(f"{name} {pres} mul", ring.mul, "alr")
            add(f"{name} {pres}", ring, ring_keys)
    add("to_ac(dn2 sm)", to_ac(build_dual_numbers_2group(2, "sm")), "b")
    add("to_ac(z4 add)", to_ac(build_strict_2ring(ring_zmod(4)).add), "b")
    add("to_sm(dn3 ac)", to_sm(build_dual_numbers_2group(3)), "ac")
    add("to_sm(z3e ac add)", to_sm(build_strict_2ring(ring_dual_numbers(3), "ac").add), "ac")
    add("max-monoid", max_monoid_structure(), "aclr")
    add("parity z4", parity_2ring(4), "de")
    derivation = build_derivation_2ring(2)
    add("derivation dn2 add", derivation.add, "aclr")
    add("derivation dn2 mul", derivation.mul, "alr")
    add("derivation dn2", derivation, "e")
    add("strict derivation dn2", strict_derivation_2ring(2), "de")
    return out


def test_identity_family_strict_bit_matches_the_endpoint_scan():
    """The bit ``identity_family`` sets without scanning is the one the
    endpoint row finds, and one flipped component clears it."""
    for label, fam, gpd, env in _identity_built_families():
        assert replace(fam, _cache={}).is_strict(gpd, env), label  # runs the scan
        idx = max(fam.components)
        old = fam.components[idx]
        new = (parallel_morphisms(gpd, old) or sorted(set(gpd.identity.values()) - {old}))[0]
        assert not perturb_family(fam, idx, new).is_strict(gpd, env), label


def _m5_identity_built_families():
    """The identity-built families at m=5: the dual numbers' b, a and c,
    the z5e 2-ring's d and e (and m and n in the AC presentation), and the
    translations of those sums."""
    dn_ac, dn_sm = build_dual_numbers_2group(5), build_dual_numbers_2group(5, "sm")
    z_sm, z_ac = build_strict_2ring(ring_dual_numbers(5)), build_strict_2ring(ring_dual_numbers(5), "ac")
    return (_families_of("dn5 ac", dn_ac, "b") + _families_of("dn5 sm", dn_sm, "ac")
            + _families_of("z5e sm", z_sm, "de") + _families_of("z5e ac", z_ac, "demn")
            + _families_of("to_ac(dn5 sm)", to_ac(dn_sm), "b") + _families_of("to_sm(dn5 ac)", to_sm(dn_ac), "ac")
            + _families_of("z5e sm to ac add", quang_to_ac_ring(z_sm, validate=False).add, "b")
            + _families_of("z5e ac to sm add", ac_ring_to_quang(z_ac, validate=False).add, "ac"))


def _per_tuple(fam, gpd, env):
    """``fam``'s identity table the reference way: one endpoint evaluation
    per index tuple."""
    sources = (ex.evaluate(fam.src_expr, env, 0, idx) for idx in product(gpd.objects_sorted, repeat=fam.arity))
    return gpd.product_table(fam.arity, map(gpd.identity.__getitem__, sources))


def test_identity_families_match_the_per_tuple_reference():
    """Each identity-built family, and the same family built afresh, has
    the reference's entries in its order and type (a column from
    ``KERNEL_FLOOR`` entries on), and a fresh build records its strict bit
    and no endpoint row."""
    for label, fam, gpd, env in _identity_built_families() + _m5_identity_built_families():
        want = _per_tuple(fam, gpd, env)
        assert type(want) is (Column if len(want) >= KERNEL_FLOOR else dict), label
        fresh = identity_family(lambda table: replace(fam, components=table, _cache={}), gpd, env)
        for got in (fam.components, fresh.components):
            assert type(got) is type(want) and list(got.items()) == list(want.items()), label
        assert _recorded(fresh, "strict", (gpd, fresh.components, gpd.objects_sorted), env) is True, label
        assert set(fresh._cache) == {"strict"}, label


def test_identity_family_names_the_first_missing_entry_in_product_order():
    """A table that misses an entry takes the per-tuple line, whose error
    names the first tuple in product order at which a lookup misses."""
    dn = build_dual_numbers_2group(2, "sm")
    ring = build_strict_2ring(ring_dual_numbers(2), "ac")
    unit = (dn.unit, dn.carrier.identity[dn.unit])

    def error(structure, sym, dropped, make, *args, env=None):
        if env is None:
            env = structure.env()
            env = {**env, sym: ({k: v for k, v in env[sym][0].items() if k not in dropped}, env[sym][1])}
        with pytest.raises(MalformedTable) as exc:
            identity_family(make, structure.carrier, env, *args)
        return str(exc.value)

    for make, args in ((assoc_family, ()), (comm_family, ()), (acomm_family, ()), (lunit_family, unit)):
        assert error(dn, "+", [("0+0e", "1+0e")], make, *args) == "object table '+' undefined at ('0+0e', '1+0e')"
        if make is not lunit_family:
            assert error(dn, "+", [("1+1e", "0+1e")], make) == "object table '+' undefined at ('1+1e', '0+1e')"
            assert error(dn, "+", [("1+1e", "0+1e"), ("0+1e", "1+1e")], make) == \
                "object table '+' undefined at ('0+1e', '1+1e')"
    assert error(dn, "+", [], assoc_family, env={}) == "object table '+' undefined at '+'"
    for make in (dist_l_family, dist_r_family):
        assert error(ring, "*", [("1+0e", "1+1e")], make) == "object table '*' undefined at ('1+0e', '1+1e')"
    assert error(ring, "+", [("0+1e", "1+1e")], dist_l_family) == "object table '+' undefined at ('0+1e', '1+1e')"


def test_m5_fixtures_build_without_the_per_tuple_line(monkeypatch):
    """Every m=5 fixture and translation builds its identity families from
    columns: the per-tuple line is never taken."""
    def refuse(*args):
        raise AssertionError("identity_family took the per-tuple line")

    monkeypatch.setattr(ex, "evaluate", refuse)
    sm, ac = build_dual_numbers_2group.__wrapped__(5, "sm"), build_dual_numbers_2group.__wrapped__(5, "ac")
    to_ac(sm), to_sm(ac)
    rings = [build_strict_2ring(ring_dual_numbers(5), pres) for pres in ("sm", "ac")]
    quang_to_ac_ring(rings[0], validate=False), ac_ring_to_quang(rings[1], validate=False)
    build_derivation_2ring(5), build_strict_2ring(ring_zmod(5))


def test_invalid_modulus():
    with pytest.raises(InvalidModulus):
        build_dual_numbers_2group(1)
    with pytest.raises(InvalidModulus):
        build_mult_endofunctor(0, 1, 1)
    with pytest.raises(InvalidModulus):
        ring_zmod(1)


def test_mult_endofunctor_formulas_by_hand():
    fun = build_mult_endofunctor(5, 1, 2)
    # (1+2e)*(1+1e) = 1 + (1+2)e = 1+3e
    assert fun.base.obj_map["1+1e"] == "1+3e"
    # morphism labels multiply by a=1
    assert fun.base.mor_map["3|1+1e"] == "3|1+3e"
    # monoidality label is b(x+x') = 2*(1+2) = 6 = 1 mod 5 at F(3+1e) = 3+(1+6)e = 3+2e
    assert fun.fsum.components[("1+0e", "2+1e")] == "1|3+2e"
    assert validate_functor(fun.base).ok
    structure = build_dual_numbers_2group(5)
    assert check_fsum_naturality(fun, structure, structure).ok


def test_strict_multiplier_has_identity_monoidality():
    fun = build_mult_endofunctor(5, 1, 0)
    assert all(mid.startswith("0|") for mid in fun.fsum.components.values())


def test_af1_always_and_sf1_iff_slope_vanishes():
    # both directions of the separating property, exhaustively over all
    # multiplier pairs at small moduli
    for m in (2, 3):
        ac = build_dual_numbers_2group(m)
        sm = build_dual_numbers_2group(m, "sm")
        for a in range(m):
            for b in range(m):
                fun = build_mult_endofunctor(m, a, b, ac)
                assert validate_ac_functor(fun, ac, ac)["AF1"].status is Status.PASS
                sf1 = validate_sm_functor(fun, sm, sm)["SF1"].status
                assert (sf1 is Status.PASS) == (b % m == 0), (m, a, b)


def test_af1_and_sf1_spot_checks_m4_m5():
    for m, a, b in ((4, 2, 2), (4, 3, 0), (5, 1, 2), (5, 4, 0)):
        ac = build_dual_numbers_2group(m)
        sm = build_dual_numbers_2group(m, "sm")
        fun = build_mult_endofunctor(m, a, b, ac)
        assert validate_ac_functor(fun, ac, ac)["AF1"].status is Status.PASS
        sf1 = validate_sm_functor(fun, sm, sm)["SF1"].status
        assert (sf1 is Status.PASS) == (b % m == 0)


def test_multiplier_composition_invariant():
    ac = build_dual_numbers_2group(4)
    for a1 in range(4):
        for a2 in range(4):
            comp = compose_functors(
                build_mult_endofunctor(4, a1, 0, ac), build_mult_endofunctor(4, a2, 0, ac)
            )
            direct = build_mult_endofunctor(4, (a1 * a2) % 4, 0, ac)
            assert comp.base.obj_map == direct.base.obj_map
            assert comp.fsum == direct.fsum


def test_super_line_commutator_values():
    sl = build_super_line_2group()
    assert sl.comm.components[("1", "1")] == "1|0"  # the non-identity component
    assert sl.comm.components[("0", "0")] == "0|0"
    assert sl.comm.components[("0", "1")] == "0|1"
    assert sl.comm.components[("1", "0")] == "0|1"
    assert validate_2group(sl).ok


def test_ring_generators_satisfy_ring_laws():
    check_ring_table(ring_zmod(6))
    check_ring_table(ring_dual_numbers(3))


def test_strict_2ring_passes_all_three_suites():
    for table in (ring_zmod(6), ring_dual_numbers(2)):
        sm_ring = build_strict_2ring(table)
        assert validate_quang(sm_ring).ok
        assert validate_jp(sm_ring).ok
        ac_ring = build_strict_2ring(table, presentation="ac")
        assert validate_ac_ring(ac_ring).ok


def test_non_distributive_table_is_rejected_with_witness():
    base = ring_zmod(4)
    mul = dict(base.mul)
    mul[("2", "3")] = "1"  # 2*3 = 6 = 2 mod 4
    bad = RingTable(base.elements, base.add, mul, "0", "1")
    with pytest.raises(NotARing) as exc:
        build_strict_2ring(bad)
    assert (exc.value.law, exc.value.witness) == ("right-distributivity", ("1", "1", "3"))
    assert str(exc.value) == "not a ring: right-distributivity fails at ('1', '1', '3')"


def test_missing_additive_inverse_is_rejected():
    els = ("0", "1")
    add = {(x, y): "1" if (x, y) != ("0", "0") else "0" for x in els for y in els}
    mul = {(x, y): "1" if x == y == "1" else "0" for x in els for y in els}
    with pytest.raises(NotARing) as exc:
        build_strict_2ring(RingTable(els, add, mul, "0", "1"))
    assert (exc.value.law, exc.value.witness) == ("additive-inverse", ("1",))


def test_non_commutative_sum_is_rejected_at_the_first_pair():
    """Z/4 with 1+2 = 1 keeps its units and inverses; listed from 2, the
    first pair the check reaches that does not commute is (2, 1)."""
    base = ring_zmod(4)
    add = {**base.add, ("1", "2"): "1"}
    with pytest.raises(NotARing) as exc:
        check_ring_table(RingTable(("2", "1", "0", "3"), add, base.mul, "0", "1"))
    assert (exc.value.law, exc.value.witness) == ("additive-commutativity", ("2", "1"))


def test_a_ring_table_with_a_missing_entry_raises_the_bare_key_error():
    base = ring_zmod(3)
    mul = {k: v for k, v in base.mul.items() if k != ("2", "2")}
    with pytest.raises(KeyError) as exc:
        check_ring_table(RingTable(base.elements, base.add, mul, "0", "1"))
    assert exc.type is KeyError and exc.value.args == (("2", "2"),)
