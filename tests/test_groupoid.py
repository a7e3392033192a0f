"""Carrier-level checks: groupoid laws, functors, families, path composition."""

import random

import pytest

from twogrp import (
    EndpointMismatch,
    FinGroupoid,
    GFunctor,
    MalformedTable,
    DomainMismatch,
    build_dual_numbers_2group,
    build_mult_endofunctor,
    build_super_line_2group,
    check_naturality,
    compose_path,
    identity_functor,
    validate_functor,
    validate_groupoid,
)
from twogrp.functors import check_fsum_naturality
from twogrp.groupoid import index_space
from twogrp.monoidal import check_structure_naturality

from helpers import SEED, cyclic_one_object, discrete, pair_groupoid_z2, perturb_family


def test_discrete_groupoid_passes():
    assert validate_groupoid(discrete(["a", "b", "c"])).ok


def test_cyclic_groupoid_passes_exhaustively():
    # independent oracle: addition mod 4 is a group, so all laws must hold
    rep = validate_groupoid(cyclic_one_object(4))
    assert rep.ok
    assert rep["associativity"].instances == 4 ** 3


def test_perturbed_compose_fails_associativity():
    gpd = cyclic_one_object(4)
    compose = dict(gpd.compose)
    compose[("1", "1")] = "3"  # oracle says 1+1=2
    bad = FinGroupoid.build(["*"], [(str(k), "*", "*") for k in range(4)],
                            compose, dict(gpd.identity), dict(gpd.inverse))
    rep = validate_groupoid(bad)
    assert not rep.ok
    fail = rep["associativity"]
    assert fail.witness is not None
    h, g, f = fail.witness.index
    # verify the witness against the raw tables
    assert bad.compose[(h, bad.compose[(g, f)])] != bad.compose[(bad.compose[(h, g)], f)]


def test_unknown_morphism_in_compose_is_malformed():
    gpd = cyclic_one_object(2)
    compose = dict(gpd.compose)
    compose[("0", "1")] = "7"
    bad = FinGroupoid.build(["*"], [("0", "*", "*"), ("1", "*", "*")],
                            compose, dict(gpd.identity), dict(gpd.inverse))
    with pytest.raises(MalformedTable):
        validate_groupoid(bad)


def test_inverse_table_names_its_first_unknown_id():
    # entries in sorted order: ("1", "x9") comes before ("y", "0")
    gpd = cyclic_one_object(3)
    inverse = {**gpd.inverse, "1": "x9", "y": "0"}
    bad = FinGroupoid.build(["*"], [(m, "*", "*") for m in "012"], dict(gpd.compose), dict(gpd.identity), inverse)
    with pytest.raises(MalformedTable, match=r"^inverse table references unknown morphism 'x9'$"):
        validate_groupoid(bad)
    del inverse["1"]
    inverse["1"] = "2"
    bad = FinGroupoid.build(["*"], [(m, "*", "*") for m in "012"], dict(gpd.compose), dict(gpd.identity), inverse)
    with pytest.raises(MalformedTable, match=r"^inverse table references unknown morphism 'y'$"):
        validate_groupoid(bad)


# -- compose_path -----------------------------------------------------------


def test_compose_path_singleton():
    gpd = cyclic_one_object(4)
    assert compose_path(gpd, ["3"]) == "3"


def test_compose_path_inverse_law():
    gpd = cyclic_one_object(4)
    # [inverse(f), f] composes to the identity of src(f)
    f = "3"
    assert compose_path(gpd, [gpd.inv(f), f]) == gpd.identity["*"]


def test_compose_path_five_chain_matches_addition_oracle():
    gpd = cyclic_one_object(4)
    chain = ["1", "2", "3", "0", "2"]
    assert sum(int(k) for k in chain) % 4 == 0  # the oracle
    assert compose_path(gpd, chain) == "0"


def test_compose_path_rejects_empty_and_reports_position():
    gpd = discrete(["a", "b"])
    with pytest.raises(ValueError):
        compose_path(gpd, [])
    with pytest.raises(EndpointMismatch) as exc:
        compose_path(gpd, ["0|a", "0|b"])
    assert exc.value.position == 0


def test_compose_path_invariant_under_reassociation():
    gpd = cyclic_one_object(6)
    rng = random.Random(SEED)
    for _ in range(50):
        chain = [str(rng.randrange(6)) for _ in range(rng.randrange(2, 8))]
        whole = compose_path(gpd, chain)
        cut = rng.randrange(1, len(chain))
        split = compose_path(gpd, [compose_path(gpd, chain[:cut]), compose_path(gpd, chain[cut:])])
        assert whole == split


def _outcome(fn, gpd, chain):
    try:
        return ("ok", fn(gpd, chain))
    except Exception as err:  # the type, message and position are compared
        return (type(err).__name__, str(err), getattr(err, "position", None))


def _table_walk(gpd, chain):
    """The walk ``diagram._scan`` inlines: one lookup per step in
    ``gpd.composable``; a miss raises ``KeyError``/``IndexError`` and hands
    the chain to ``compose_path``."""
    acc = chain[-1]
    if acc not in gpd.morphisms:
        raise KeyError(acc)
    for g in chain[-2::-1]:
        acc = gpd.composable[g, acc]
    return acc


def test_compose_path_fast_path_matches_checking_walk():
    rng = random.Random(SEED)
    for gpd in (cyclic_one_object(4), pair_groupoid_z2(), build_super_line_2group().carrier):
        mors = gpd.morphisms_sorted
        for length in range(1, 5):
            for _ in range(40):
                # a composable chain, built from its first-applied leg up
                chain = [rng.choice(mors)]
                while len(chain) < length:
                    chain.insert(0, rng.choice(gpd.by_src[gpd.dst(chain[0])]))
                assert _outcome(compose_path, gpd, chain) == ("ok", _table_walk(gpd, chain))


def test_compose_path_failures_match_checking_walk():
    pair = pair_groupoid_z2()
    cyc = cyclic_one_object(4)
    no_composite = FinGroupoid.build(
        ["*"], [("0", "*", "*"), ("1", "*", "*")],
        {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1"}, {"*": "0"}, {"0": "0", "1": "1"},
    )
    # never validated: compose holds an entry at a pair that does not compose,
    # so a bare compose[(g, f)] lookup would wrongly succeed
    stray = discrete(["a", "b"])
    stray.compose[("0|a", "0|b")] = "0|a"
    unknown = ("MalformedTable", "unknown morphism id '9' in chain", None)
    cases = [
        (cyc, [], ("ValueError", "cannot compose an empty chain", None)),
        (cyc, ["9"], unknown),
        (cyc, ["1", "9"], unknown),
        (cyc, ["9", "1", "2"], unknown),
        (pair, ["0|ab", "1|ab"],
         ("EndpointMismatch", "chain breaks at position 0: dst('1|ab')='b' but src('0|ab')='a'", 0)),
        (pair, ["0|aa", "0|ba", "1|ab", "0|ab"],
         ("EndpointMismatch", "chain breaks at position 2: dst('0|ab')='b' but src('1|ab')='a'", 2)),
        (no_composite, ["1", "0", "1"], ("MalformedTable", "composite '1' o '1' missing from table", None)),
        (stray, ["0|a", "0|b"],
         ("EndpointMismatch", "chain breaks at position 0: dst('0|b')='b' but src('0|a')='a'", 0)),
    ]
    for gpd, chain, want in cases:
        assert _outcome(compose_path, gpd, chain) == want, chain
        assert _outcome(_table_walk, gpd, chain)[0] in ("KeyError", "IndexError"), chain


def test_composable_table_keeps_only_composable_pairs():
    stray = discrete(["a", "b"])
    stray.compose[("0|a", "0|b")] = "0|a"
    stray.compose[("0|a", "nope")] = "0|a"
    assert stray.composable == {("0|a", "0|a"): "0|a", ("0|b", "0|b"): "0|b"}
    assert stray.composable is stray.composable


# -- functors ---------------------------------------------------------------


def test_identity_functor_passes():
    gpd = build_super_line_2group().carrier
    assert validate_functor(identity_functor(gpd)).ok


def test_multiplication_functor_passes():
    # functoriality is label linearity: a(n + n') = an + an' mod m
    fun = build_mult_endofunctor(5, 1, 2)
    assert validate_functor(fun.base).ok


def test_perturbed_mor_map_fails_with_witness():
    fun = build_mult_endofunctor(5, 1, 2)
    mor_map = dict(fun.base.mor_map)
    mor_map["1|1+0e"] = "2|1+2e"  # correct value is 1|1+2e
    bad = GFunctor(fun.base.source, fun.base.target, dict(fun.base.obj_map), mor_map)
    rep = validate_functor(bad)
    assert not rep.ok
    assert any(c.witness is not None for c in rep.failures())


def test_partial_map_raises_domain_mismatch():
    gpd = discrete(["a", "b"])
    fun = GFunctor(gpd, gpd, {"a": "a"}, {})
    with pytest.raises(DomainMismatch):
        validate_functor(fun)


# -- naturality -------------------------------------------------------------


def test_identity_unitor_naturality_in_strict_structure():
    m = build_dual_numbers_2group(3, "sm")
    rep = check_structure_naturality(m)
    assert rep.ok


def test_fsum_family_naturality_exhaustive():
    structure = build_dual_numbers_2group(5)
    fun = build_mult_endofunctor(5, 1, 2, structure)
    rep = check_fsum_naturality(fun, structure, structure)
    assert rep.ok
    assert rep.checks[0].instances == 125 ** 2


def test_component_flip_cannot_break_naturality_on_endo_only_carrier():
    # on an endomorphism-only carrier with abelian labels the component sits
    # on both sides of every square, so a flip leaves naturality intact (it
    # breaks the coherence axioms instead; see the functor tests)
    structure = build_dual_numbers_2group(3)
    fun = build_mult_endofunctor(3, 1, 2, structure)
    assert fun.fsum.components[("1+0e", "1+0e")] == "1|2+1e"
    bad_fsum = perturb_family(fun.fsum, ("1+0e", "1+0e"), "0|2+1e")
    bad = type(fun)(fun.base, bad_fsum)
    assert check_fsum_naturality(bad, structure, structure).ok


def test_component_flip_breaks_naturality_on_connected_carrier():
    from twogrp import NatFamily
    from twogrp import expr as ex

    gpd = pair_groupoid_z2()
    fam = NatFamily(1, {(o,): gpd.identity[o] for o in gpd.objects}, ex.var(0), ex.var(0))
    assert check_naturality(fam, {}, domain=gpd).ok
    flipped = perturb_family(fam, ("b",), "1|bb")
    rep = check_naturality(flipped, {}, domain=gpd)
    assert not rep.ok
    wit = rep.failures()[0].witness
    assert wit is not None
    # the failing test morphism must cross between the two objects
    f = wit.index[0]
    assert gpd.src(f) != gpd.dst(f)


def test_check_naturality_sampled_mode_is_deterministic():
    m = build_dual_numbers_2group(3, "sm")
    env = m.env()
    fam = m.assoc
    r1 = check_naturality(fam, env, domain=m.carrier, sample=500, seed=7)
    r2 = check_naturality(fam, env, domain=m.carrier, sample=500, seed=7)
    assert r1.checks[0].instances == r2.checks[0].instances == 500
    assert r1.checks[0].mode == "sampled(n=500,seed=7)"


@pytest.mark.parametrize("n", [2, 3, 5, 25, 36, 64])
def test_index_space_draws_what_random_choice_draws(n):
    objs = tuple(f"o{k:02d}" for k in range(n))
    for arity in range(1, 6):
        for seed in (0, 1, 7, SEED):
            sample = min(n ** arity - 1, 300)
            drawn, count, mode = index_space(objs, arity, sample, seed)
            rng = random.Random(seed)
            assert list(drawn) == [tuple(rng.choice(objs) for _ in range(arity)) for _ in range(sample)]
            assert (count, mode) == (sample, f"sampled(n={sample},seed={seed})")


@pytest.mark.parametrize("n", [2, 3, 5, 25, 36, 64])
def test_sampled_naturality_draws_what_random_choice_draws(n, monkeypatch):
    from twogrp import NatFamily
    from twogrp import expr as ex
    from twogrp import diagram

    seen = []

    def recording(*args):
        # the squares the row scans, in the order it scans them: the row is
        # a law the diagram engine runs
        drawn, count, mode = index_space(*args)
        return (seen.append(fs) or fs for fs in drawn), count, mode

    monkeypatch.setattr(diagram, "index_space", recording)
    gpd = cyclic_one_object(n)
    mors = gpd.morphisms_sorted
    for arity in (1, 2, 3, 5):
        fam = NatFamily(arity, {("*",) * arity: "0"}, ex.var(0), ex.var(0))
        sample = min(n ** arity - 1, 200)
        for seed in (0, 3, SEED):
            seen.clear()
            rep = check_naturality(fam, {}, domain=gpd, sample=sample, seed=seed)
            assert rep.ok and rep.checks[0].instances == sample
            assert rep.checks[0].mode == f"sampled(n={sample},seed={seed})"
            rng = random.Random(seed)
            assert seen == [tuple(rng.choice(mors) for _ in range(arity)) for _ in range(sample)]


def test_naturality_sample_covering_the_space_runs_exhaustively():
    # 27 morphisms: the sample equals the space of l (27) and exceeds those
    # of a (27^3) and c (27^2), so each row scans its squares in order
    m = build_dual_numbers_2group(3, "sm")
    for sample in (27, 27 ** 3, 1 << 16):
        rows = {row.law: row for row in check_structure_naturality(m, sample=sample).checks}
        for name, space in (("l", 27), ("r", 27), ("c", 27 ** 2), ("a", 27 ** 3)):
            row = rows[f"naturality({name})"]
            if sample >= space:
                assert (row.instances, row.mode) == (space, "exhaustive"), (sample, name)
            else:
                assert (row.instances, row.mode) == (sample, f"sampled(n={sample},seed=0)"), (sample, name)


# -- a total family held as its value column ------------------------------------


@pytest.fixture
def column(monkeypatch):
    """A ``Column`` over the triples of four objects, whose component is
    the identity of the last object, and the dict with its entries."""
    from itertools import product

    from twogrp import diagram
    from twogrp.groupoid import Column

    monkeypatch.setattr(diagram, "KERNEL_FLOOR", 0)  # every product table is a column
    gpd = discrete(["c", "a", "d", "b"])
    values = [gpd.identity[x] for x in gpd.objects_sorted] * 16
    col = gpd.product_table(3, values)
    assert isinstance(col, Column)
    return col, dict(zip(product(gpd.objects_sorted, repeat=3), values))


def family_error(fam, *idx) -> str:
    from twogrp.errors import StructureError

    with pytest.raises(StructureError) as err:
        fam.at(*idx)
    return f"{type(err.value).__name__}: {err.value}"


def test_a_column_family_reads_and_raises_as_the_dict_family(column):
    from twogrp import NatFamily
    from twogrp import expr as ex

    col, table = column
    by_col, by_dict = (NatFamily(3, t, ex.var(0), ex.var(0)) for t in (col, table))
    for idx in table:
        assert by_col.at(*idx) == by_dict.at(*idx) == table[idx]
    for idx in (("a", "b"), ("a", "b", "c", "d"), ("a", "b", "zz"), ("zz", "a", "b"), ()):
        assert family_error(by_col, *idx) == family_error(by_dict, *idx), idx
    assert family_error(by_col, "a", "b") == "ArityMismatch: family has arity 3, got index ('a', 'b')"
    assert family_error(by_col, "a", "b", "zz") == "MalformedTable: family has no component at ('a', 'b', 'zz')"
    for key in ("abc", "a", None, ("a", "b"), ("a", "b", 0)):
        assert key not in col and col.get(key) is None


def test_a_column_spread_into_a_dict_is_the_dict_with_one_entry_changed(column):
    col, table = column
    idx = ("b", "d", "a")
    changed = {**col, idx: "0|c"}
    assert type(changed) is dict
    assert changed == {**table, idx: "0|c"} and changed != table
    assert [k for k in changed if changed[k] != table[k]] == [idx]


def test_a_column_iterates_in_sorted_order(column):
    col, table = column
    assert list(col) == sorted(col) == sorted(table)
    assert list(col.items()) == sorted(table.items())
    assert list(col.values()) == [table[k] for k in sorted(table)]
    assert len(col) == len(table) == 4 ** 3


def test_a_column_equals_the_dict_with_its_entries_both_ways(column):
    from dataclasses import replace

    from twogrp import NatFamily
    from twogrp import expr as ex
    from twogrp.groupoid import Column

    col, table = column
    assert col == table and table == col and not col != table
    idx = sorted(table)[5]
    changed, dropped = {**table, idx: "0|c"}, {k: v for k, v in table.items() if k != idx}
    for other in (changed, dropped, {**table, ("a", "a", "zz"): "0|a"}, {}):
        assert col != other and other != col
    same, other = (Column(col.axis, col._positions, 3, values) for values in (col.column, ("0|c", *col.column[1:])))
    assert col == same and col != other
    assert col != list(table) and col != tuple(col.column)
    fam = NatFamily(3, col, ex.var(0), ex.var(0))
    assert fam == NatFamily(3, table, ex.var(0), ex.var(0)) == replace(fam, components=dict(col))
    assert fam != NatFamily(3, changed, ex.var(0), ex.var(0))


def test_the_reference_loop_reads_a_column_through_its_dict_of_read_entries(column, monkeypatch):
    from twogrp import NatFamily, diagram
    from twogrp import expr as ex
    from twogrp.groupoid import check_naturality

    col, table = column
    read = col.read()
    assert type(read) is not dict and isinstance(read, dict) and not read and col.read() is read
    idx = ("b", "a", "d")
    assert read[idx] == table[idx] and dict(read) == {idx: table[idx]}
    for key in (("a", "b"), ("a", "b", "zz")):
        with pytest.raises(KeyError):
            read[key]
    assert len(read) == 1
    monkeypatch.setattr(diagram, "KERNEL_FLOOR", float("inf"))  # the reference loop
    gpd = discrete(list(col.axis))
    fam = NatFamily(3, col, ex.var(2), ex.var(2))  # the identity of the last object
    assert check_naturality(fam, {}, domain=gpd).ok
    assert dict(read) == table
