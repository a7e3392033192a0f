"""Structured functors: SF/AF/T suites, composition, pointwise sum, zero
isomorphisms (closed form, brute-force enumeration, uniqueness)."""

import pytest

from twogrp import (
    MissingZeroIso,
    MonTransformation,
    PreconditionFailed,
    StructureMismatch,
    StructuredFunctor,
    boxplus,
    build_dual_numbers_2group,
    build_mult_endofunctor,
    build_super_line_2group,
    canonical_zero_iso,
    compose_functors,
    derive_sm_axioms_from_ac,
    enumerate_zero_isos,
    identity_structured,
    to_ac,
    validate_ac_functor,
    validate_sm_functor,
    validate_transformation,
    weak_inverse_candidates,
)
from twogrp.functors import tau_family
from twogrp.groupoid import compose_path
from twogrp.monoidal import basic_unitor
from twogrp.report import Status

from helpers import constant_zero_endofunctor, perturb_family, with_canonical_zero


def dn(m, presentation="ac"):
    return build_dual_numbers_2group(m, presentation)


def F(m, a, b):
    return build_mult_endofunctor(m, a, b, dn(m))


# -- symmetric suite --------------------------------------------------------


def test_identity_functor_passes_everything():
    sl = build_super_line_2group()
    rep = validate_sm_functor(identity_structured(sl), sl, sl)
    assert rep.ok
    assert rep["SF1"].status is Status.PASS
    assert rep["SF2"].status is Status.PASS
    assert rep["SF3/right"].status is Status.PASS


def test_mult_functor_sf1_fails_iff_label_slope_nonzero():
    src = dn(3, "sm")
    rep = validate_sm_functor(F(3, 1, 2), src, src)
    assert rep["SF1"].status is Status.FAIL
    assert rep["SF2"].status is Status.PASS
    assert rep["SF3"].status is Status.MISSING_DATA
    # witness oracle: the failing triple has b*(x1 - z1) != 0 mod 3
    x, _, z = rep["SF1"].witness.index
    x1, z1 = int(x.split("+")[0]), int(z.split("+")[0])
    assert (2 * (x1 - z1)) % 3 != 0


def test_spec_case_m4_a2_b2():
    src = dn(4, "sm")
    fun = F(4, 2, 2)
    rep = validate_sm_functor(fun, src, src)
    assert rep["SF1"].status is Status.FAIL
    ac = dn(4)
    assert validate_ac_functor(fun, ac, ac)["AF1"].status is Status.PASS
    assert enumerate_zero_isos(fun, ac, ac, "AF2") == []


def test_mult_functor_with_zero_passes_all():
    src = dn(3, "sm")
    fun = with_canonical_zero(F(3, 1, 0), src, src)
    assert fun.fzero == src.carrier.identity["0+0e"]
    rep = validate_sm_functor(fun, src, src, allow_strict_skip=False)
    assert rep.ok


# -- AC suite ---------------------------------------------------------------


def test_af1_passes_for_every_multiplier_pair():
    ac = dn(3)
    for a in range(3):
        for b in range(3):
            rep = validate_ac_functor(build_mult_endofunctor(3, a, b, ac), ac, ac)
            assert rep["AF1"].status is Status.PASS, (a, b)


def test_af2_fails_for_every_candidate_zero_when_slope_nonzero():
    ac = dn(3)
    fun = F(3, 1, 2)
    assert enumerate_zero_isos(fun, ac, ac, "AF2") == []
    for label in range(3):
        attached = fun.with_zero(f"{label}|0+0e")
        rep = validate_ac_functor(attached, ac, ac)
        assert rep["AF1"].status is Status.PASS
        assert Status.FAIL in (rep["AF2/right"].status, rep["AF2/left"].status)


def test_perturbed_fsum_breaks_af1():
    ac = dn(3)
    fun = F(3, 1, 2)
    bad = StructuredFunctor(fun.base, perturb_family(fun.fsum, ("1+0e", "1+0e"), "0|2+1e"))
    rep = validate_ac_functor(bad, ac, ac)
    assert rep["AF1"].status is Status.FAIL
    assert rep["AF1"].witness is not None


# -- zero isomorphisms ------------------------------------------------------


def test_enumeration_matches_paper_counterexample_m5():
    ac = dn(5)
    assert enumerate_zero_isos(F(5, 1, 2), ac, ac, "AF2") == []
    sols = enumerate_zero_isos(F(5, 1, 0), ac, ac, "AF2")
    assert sols == ["0|0+0e"]


def test_canonical_equals_unique_enumerated():
    sm = dn(5, "sm")
    fun = F(5, 1, 0)
    cz = canonical_zero_iso(fun, sm, sm)
    assert [cz] == enumerate_zero_isos(fun, sm, sm, "SF3")


def test_canonical_zero_iso_refuses_without_sf1():
    sm = dn(5, "sm")
    with pytest.raises(PreconditionFailed):
        canonical_zero_iso(F(5, 1, 2), sm, sm)


def test_the_zero_iso_route_binds_no_symbol_of_the_laws_beside_it():
    # the route's own constants (and the inverse table) are bound on top of a
    # functor's law environment, or of a ring's at x*- and -*x: none may
    # rebind a symbol the other laws read there (a unitor named d would
    # silently replace the distributor)
    from twogrp import build_strict_2ring, ring_zmod
    from twogrp.functors import ZERO_ISO, _law_env
    from twogrp.rings import _ABSORBERS, _law_env as ring_law_env

    own = {"bar", "eta", "unitor", "inv"}
    sm = dn(3, "sm")
    assert ZERO_ISO.symbols - _law_env(F(3, 1, 0), sm, sm).keys() == own
    ring_env = ring_law_env(build_strict_2ring(ring_zmod(4)))
    for _, route, _, _ in _ABSORBERS.values():
        assert route.symbols - ring_env.keys() == own | {"x"}


def test_canonical_zero_iso_choice_independent():
    # recompute the closed-form composite for every weak-inverse certificate
    sm = dn(5, "sm")
    fun = F(5, 2, 0)
    expected = canonical_zero_iso(fun, sm, sm)
    gpd = sm.carrier
    f0 = fun.base.obj_map[sm.unit]
    d = basic_unitor(sm)
    certs = weak_inverse_candidates(sm, f0)
    assert len(certs) == 5  # one inverse object, five candidate etas
    for cert in certs:
        ident = gpd.identity
        composite = compose_path(
            gpd,
            [
                sm.lunit.components[(f0,)],
                sm.sum_mor[(gpd.inv(cert.eta), ident[f0])],
                sm.assoc.components[(cert.inverse, f0, f0)],
                sm.sum_mor[(ident[cert.inverse], gpd.inv(fun.fsum.components[(sm.unit, sm.unit)]))],
                sm.sum_mor[(ident[cert.inverse], fun.base.mor_map[gpd.inv(d)])],
                cert.eta,
            ],
        )
        assert composite == expected


# -- transformations --------------------------------------------------------


def test_identity_transformation_passes():
    sl = build_super_line_2group()
    fun = identity_structured(sl)
    tau = tau_family({(x,): sl.carrier.identity[x] for x in sl.carrier.objects})
    rep = validate_transformation(MonTransformation(fun, fun, tau), sl, sl)
    assert rep.ok
    assert rep["T2"].status is Status.PASS


def test_linear_label_transformations_pass_t1_and_t2():
    sm = dn(3, "sm")
    fun = with_canonical_zero(F(3, 1, 0), sm, sm)
    for k in range(3):
        comps = {}
        for o in sm.carrier.objects:
            x1 = int(o.split("+")[0])
            comps[(o,)] = f"{(k * x1) % 3}|{o}"
        rep = validate_transformation(MonTransformation(fun, fun, tau_family(comps)), sm, sm)
        assert rep.ok, k
        assert rep["T1"].status is Status.PASS
        assert rep["T2"].status is Status.PASS


def test_transformation_naturality_names_the_partial_morphism_table():
    from dataclasses import replace

    sl = build_super_line_2group()
    fun = identity_structured(sl)
    partial = {f: g for f, g in fun.base.mor_map.items() if f != "0|0"}
    g = replace(fun, base=replace(fun.base, mor_map=partial, _cache={}))
    tau = tau_family({(x,): sl.carrier.identity[x] for x in sl.carrier.objects})
    row = validate_transformation(MonTransformation(fun, g, tau), sl, sl)["naturality(tau)"]
    assert row.status is Status.FAIL
    assert row.witness.index == ("0|0",)
    assert row.witness.note == "square does not typecheck: morphism table 'G' undefined at '0|0'"


def test_perturbed_transformation_fails_t1_with_witness():
    sm = dn(3, "sm")
    fun = with_canonical_zero(F(3, 1, 0), sm, sm)
    comps = {(o,): sm.carrier.identity[o] for o in sm.carrier.objects}
    comps[("1+0e",)] = "1|1+0e"
    rep = validate_transformation(MonTransformation(fun, fun, tau_family(comps)), sm, sm)
    assert rep["T1"].status is Status.FAIL
    assert rep["T1"].witness is not None


# -- composition ------------------------------------------------------------


def test_identity_composition_is_identity():
    sm = dn(3, "sm")
    fun = with_canonical_zero(F(3, 2, 0), sm, sm)
    ident = identity_structured(sm)
    left = compose_functors(ident, fun)
    assert left.base.obj_map == fun.base.obj_map
    assert left.base.mor_map == fun.base.mor_map
    assert left.fsum == fun.fsum
    assert left.fzero == fun.fzero


def test_composition_of_multipliers_matches_direct_construction():
    for m, a1, a2 in ((5, 1, 2), (5, 2, 3), (3, 2, 2)):
        ac = dn(m)
        comp = compose_functors(build_mult_endofunctor(m, a1, 0, ac),
                                build_mult_endofunctor(m, a2, 0, ac))
        direct = build_mult_endofunctor(m, (a1 * a2) % m, 0, ac)
        assert comp.base.obj_map == direct.base.obj_map
        assert comp.base.mor_map == direct.base.mor_map
        assert comp.fsum == direct.fsum


def test_composition_preserves_suite_status():
    ac = dn(3)
    sm = dn(3, "sm")
    good = with_canonical_zero(F(3, 2, 0), sm, sm)
    comp_good = compose_functors(good, good)
    assert validate_sm_functor(comp_good, sm, sm).ok
    bad = F(3, 1, 2)
    comp_bad = compose_functors(bad, bad)
    assert validate_ac_functor(comp_bad, ac, ac)["AF1"].status is Status.PASS
    assert validate_sm_functor(comp_bad, sm, sm)["SF1"].status is Status.FAIL


def test_composition_requires_matching_carriers():
    sl = build_super_line_2group()
    with pytest.raises(StructureMismatch):
        compose_functors(identity_structured(sl), F(3, 1, 0))


# -- pointwise sum ----------------------------------------------------------


def test_boxplus_of_multipliers_is_their_sum():
    sm = dn(5, "sm")
    f1 = with_canonical_zero(F(5, 1, 0), sm, sm)
    f2 = with_canonical_zero(F(5, 2, 0), sm, sm)
    total = boxplus(f1, f2, sm)
    direct = with_canonical_zero(F(5, 3, 0), sm, sm)
    assert total.base.obj_map == direct.base.obj_map
    assert total.base.mor_map == direct.base.mor_map
    assert total.fsum == direct.fsum
    assert total.fzero == direct.fzero
    assert validate_sm_functor(total, sm, sm).ok


def test_boxplus_with_constant_zero_is_exact_identity():
    sm = dn(3, "sm")
    fun = with_canonical_zero(F(3, 2, 0), sm, sm)
    zero = constant_zero_endofunctor(sm)
    assert validate_sm_functor(zero, sm, sm).ok
    total = boxplus(fun, zero, sm)
    assert total.base.obj_map == fun.base.obj_map
    assert total.base.mor_map == fun.base.mor_map
    assert total.fsum == fun.fsum
    assert total.fzero == fun.fzero


def test_boxplus_requires_zero_isos_and_matching_target():
    sm = dn(3, "sm")
    plain = F(3, 1, 0)
    with pytest.raises(MissingZeroIso):
        boxplus(plain, plain, sm)
    sl = build_super_line_2group()
    withz = with_canonical_zero(plain, sm, sm)
    with pytest.raises(StructureMismatch):
        boxplus(withz, withz, sl)


# -- AC -> symmetric derivation ---------------------------------------------


def test_derive_sm_axioms_from_ac_passes_on_valid_functors():
    ac = dn(3)
    sm = dn(3, "sm")
    fun = with_canonical_zero(F(3, 2, 0), sm, sm)
    rep = derive_sm_axioms_from_ac(fun, ac, ac)
    assert rep.ok
    for law in ("SF1", "SF2", "SF3/right", "SF3/left"):
        assert rep[law].status is Status.PASS


def test_derive_sm_axioms_identity_endo_of_super_line_ac():
    sl_ac = to_ac(build_super_line_2group())
    fun = identity_structured(sl_ac)
    rep = derive_sm_axioms_from_ac(fun, sl_ac, sl_ac)
    assert rep.ok


def test_derive_sm_axioms_refuses_separating_functor():
    ac = dn(3)
    with pytest.raises(PreconditionFailed):
        derive_sm_axioms_from_ac(F(3, 1, 2), ac, ac)  # no zero iso exists
