"""The declared laws: the compiled legs against the reference interpreter of
``helpers``, and the strict-profile ingredients each law derives from its
terms.

The compiled legs (``Law.legs``) and the interpreted ones (``law_legs``)
must give the same leg lists at every compared index tuple, on strict and
non-strict fixtures and on seeded single-component flips of each, and the
same ``route does not evaluate`` witness with any single entry the routes
read dropped from its table."""

import random
from itertools import product

import pytest

from twogrp.ac import AC_LAWS
from twogrp.diagram import _scan
from twogrp.functors import AF1, SF1, SF2, T1, UNIT_SQUARES
from twogrp.groupoid import index_space
from twogrp.monoidal import SM_LAWS
from twogrp.rings import AC_RING_LAWS, COMMON_LAWS, JP_LAWS

from helpers import SEED, flipped_bindings, law_bindings, law_legs, tables, with_table

TUPLES = 300  # index tuples compared per law and binding (all of a smaller space)
DROPS = 40  # entries dropped per table the routes read
FLIPS = 2  # seeded single-component flips per binding


BINDINGS = law_bindings()
ALL = BINDINGS + flipped_bindings(BINDINGS, FLIPS)


def index_tuples(objs, arity):
    total = len(objs) ** arity
    if total <= TUPLES:
        return list(product(objs, repeat=arity))
    space, _, _ = index_space(objs, arity, TUPLES, SEED)
    return list(space)


def outcome(legs, idx):
    try:
        return legs(idx)
    except KeyError as exc:
        return ("KeyError", exc.args)


@pytest.mark.parametrize("binding", ALL, ids=[b[0] for b in ALL])
def test_compiled_legs_equal_the_interpreted_legs(binding):
    label, gpd, objs, env, laws = binding
    for law in laws:
        compiled, interpreted = law.legs(env, gpd.identity), law_legs(law, env, gpd.identity)
        idxs = index_tuples(objs, law.arity)
        for idx in idxs:
            assert outcome(compiled, idx) == outcome(interpreted, idx), (law.name, idx)
        assert _scan(gpd, compiled, idxs) == _scan(gpd, interpreted, idxs), law.name


class Recorder(dict):
    """A table that records, per key read, the first index tuple it was read
    at."""

    def __init__(self, table, first_read, where):
        super().__init__(table)
        self.first_read, self.where = first_read, where

    def __getitem__(self, key):
        self.first_read.setdefault(key, self.where[0])
        return super().__getitem__(key)


@pytest.mark.parametrize("binding", BINDINGS, ids=[b[0] for b in BINDINGS])
def test_a_dropped_entry_gives_the_same_witness(binding):
    label, gpd, objs, env, laws = binding
    rng = random.Random(SEED)
    hits = 0
    for law in laws:
        idxs = index_tuples(objs, law.arity)
        where = [None]
        reads = {}
        recorded_env, recorded_ident = env, Recorder(gpd.identity, reads.setdefault((None, "id"), {}), where)
        for key, table in tables(env).items():
            recorder = Recorder(table, reads.setdefault(key, {}), where)
            recorded_env, _ = with_table(recorded_env, None, key, recorder)
        legs = law_legs(law, recorded_env, recorded_ident)
        for idx in idxs:
            where[0] = idx
            outcome(legs, idx)
        for key, first_read in reads.items():
            table = gpd.identity if key[0] is None else tables(env)[key]
            for entry in rng.sample(sorted(first_read), min(DROPS, len(first_read))):
                dropped = dict(table)
                del dropped[entry]
                denv, dident = with_table(env, gpd.identity, key, dropped)
                at = [first_read[entry]]
                got = _scan(gpd, law.legs(denv, dident), at)
                assert got == _scan(gpd, law_legs(law, denv, dident), at), (law.name, key, entry)
                hits += got[1] is not None and got[1].note.startswith("route does not evaluate")
    assert hits


# What each law's strict profile tests, as (families, maps applied to
# morphisms, constants used as morphisms), written from the hand lists the
# suites passed before the profile was derived from the terms.  "narrower"
# marks an ingredient the hand list had and the terms do not read: a map
# the law applies only to objects, or a unitor of the other side.
INGREDIENTS = {
    "SC1": ("a", "+", ""),
    "SC2": ("a l r", "+", ""),
    "SC3": ("a c", "+", ""),
    "SC4": ("c", "", ""),  # narrower: + (applied to objects only)
    "AC1": ("b", "+", ""),
    "AC2/right-units": ("b l r", "+", ""),
    "AC2/left-units": ("b l r", "+", ""),
    "AC2/units-right": ("b l r", "+", ""),
    "AC2/units-left": ("b l r", "+", ""),
    "AC3": ("b", "", ""),  # narrower: + (applied to objects only)
    # the 2R1 rows bind these to the ring: F+ to d or e, F to *, +s/+t to +
    "SF1": ("F+ as at", "+t F", ""),
    "SF2": ("F+ cs ct", "F", ""),  # narrower: +t (2R1/*-comm: +)
    "AF1": ("F+ bs bt", "+t F", ""),
    "SF3/right": ("F+ rs rt", "+t F", "F0"),  # narrower: ls, lt
    "SF3/left": ("F+ ls lt", "+t F", "F0"),  # narrower: rs, rt
    "AF2/right": ("F+ rs rt", "+t F", "F0"),  # narrower: ls, lt
    "AF2/left": ("F+ ls lt", "+t F", "F0"),  # narrower: rs, rt
    "T1": ("F+ G+ tau", "+t", ""),  # the suite tests no profile for T1
    # b: the given family (AC), or the canonical one, which declares a, c,
    # + and inverses (symmetric)
    "2R2": ("b d e", "+", ""),  # narrower: * (applied to objects only)
    "2R3": ("a* d", "* +", ""),
    "2R4": ("a* d e", "* +", ""),
    "2R5": ("a* e", "* +", ""),
    "2R6/left": ("d l*", "+", ""),  # narrower: * (the unit 1 is an object)
    "2R6/right": ("e r*", "+", ""),  # narrower: *
    "2R1-prime/d": ("b d", "* +", ""),
    "2R1-prime/e": ("b e", "* +", ""),
    "2R1-dprime/d": ("b d", "* +", ""),
    "2R1-dprime/e": ("b e", "* +", ""),
    "2R1-dprime/m-left": ("d l m", "* +", ""),  # narrower: r
    "2R1-dprime/m-right": ("d m r", "* +", ""),  # narrower: l
    "2R1-dprime/n-left": ("e l n", "* +", ""),  # narrower: r
    "2R1-dprime/n-right": ("e n r", "* +", ""),  # narrower: l
}

DECLARED = (*SM_LAWS, *AC_LAWS, SF1, SF2, AF1, *UNIT_SQUARES["SF3"], *UNIT_SQUARES["AF2"], T1,
            *COMMON_LAWS, *JP_LAWS, *AC_RING_LAWS)


def test_every_law_derives_its_pinned_strict_ingredients():
    assert sorted(law.name for law in DECLARED) == sorted(INGREDIENTS)
    for law in DECLARED:
        derived = tuple(" ".join(sorted(part)) for part in law.ingredients)
        assert derived == INGREDIENTS[law.name], law.name
