"""Every structural family of every shipped fixture is natural."""

from twogrp import (
    build_dual_numbers_2group,
    build_strict_2ring,
    build_super_line_2group,
    ring_dual_numbers,
    ring_zmod,
)
from twogrp.groupoid import check_naturality
from twogrp.monoidal import check_structure_naturality


def test_structure_families_are_natural():
    fixtures = [
        build_super_line_2group(),
        build_dual_numbers_2group(2),
        build_dual_numbers_2group(2, "sm"),
        build_dual_numbers_2group(3),
        build_strict_2ring(ring_zmod(6)).add,
        build_strict_2ring(ring_zmod(6)).mul,
    ]
    for structure in fixtures:
        assert check_structure_naturality(structure).ok


def test_ring_families_are_natural():
    for ring in (
        build_strict_2ring(ring_zmod(6)),
        build_strict_2ring(ring_dual_numbers(2), presentation="ac"),
    ):
        env = ring.env()
        for name, fam in ring.families().items():
            rep = check_naturality(fam, env, domain=ring.carrier, label=f"naturality({name})")
            assert rep.ok, name
