"""Generic two-route diagram checking.

Every coherence axiom in this package is an equality of two composite
morphisms, quantified over a finite tuple space.  This module runs that loop:
exhaustively by default, over a fixed-seed random sample on request, and
optionally partitioned into chunks fanned out to worker threads (reports
merge associatively; the witness is always the first failure in canonical
index order, independent of scheduling).

Each leg composes with one lookup per step in the carrier's table of
composable pairs (``FinGroupoid.composable``).  An instance with a miss is
recomposed by ``compose_path``, whose checking walk names the id or endpoint
that breaks the chain.  A sample draws the same tuples ``Random.choice``
would at the same seed.

A check may also be discharged by a *strict profile*: when every leg of both
routes is drawn from pointwise-identity families combined by identity-
preserving tables and functors, each route composes to the identity of the
instance's start object, so all instances commute.  The profile conditions
are verified by cheap full-table scans, never assumed.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from itertools import islice, product

from .groupoid import FinGroupoid, GFunctor, NatFamily, _sample_tuples, compose_path
from .errors import StructureError
from .report import CheckResult, Status, Witness

LegsFn = Callable[[tuple[str, ...]], tuple[Sequence[str], Sequence[str]]]

_CHUNK = 8192


def index_space(
    objects: Sequence[str], arity: int, sample: int | None = None, seed: int = 0
) -> tuple[Iterable[tuple[str, ...]], int, str]:
    """Index tuples in canonical order, or a fixed-seed sample of them.

    Returns ``(iterable, count, mode)`` where ``count`` is the number of
    instances the iterable yields.
    """
    total = len(objects) ** arity
    if sample is None or sample >= total:
        return product(objects, repeat=arity), total, "exhaustive"
    drawn = _sample_tuples(objects, arity, sample, seed)
    return drawn, sample, f"sampled(n={sample},seed={seed})"


def tables_preserve_identities(gpd: FinGroupoid, obj_table: dict, mor_table: dict, cache: dict, key: str) -> bool:
    if key not in cache:
        ok = True
        ident = gpd.identity
        for (x, y), z in obj_table.items():
            if mor_table.get((ident[x], ident[y])) != ident[z]:
                ok = False
                break
        cache[key] = ok
    return cache[key]


def strict_profile(
    gpd: FinGroupoid,
    families: Sequence[tuple[NatFamily | None, dict]],
    id_tables: Sequence[tuple[dict, dict, dict, str]] = (),
    functors: Sequence[GFunctor] = (),
    uses_inverse: bool = False,
) -> bool:
    """True when the given ingredients can only produce identity legs at the
    objects the diagram expects, so every instance commutes.

    ``families`` pairs each family with the evaluation environment of the
    structure it belongs to (the endpoint check is what makes the shortcut
    sound); ``id_tables`` entries are ``(obj_table, mor_table, cache, key)``
    for each bifunctor the diagram sums/multiplies legs with.
    """
    for fam, env in families:
        if fam is not None and not fam.is_strict(gpd, env):
            return False
    for obj_table, mor_table, cache, key in id_tables:
        if not tables_preserve_identities(gpd, obj_table, mor_table, cache, key):
            return False
    for fun in functors:
        if not fun.preserves_identities():
            return False
    if uses_inverse and not gpd.identities_preserved_by_inverse():
        return False
    return True


def _scan(
    gpd: FinGroupoid, legs: LegsFn, idxs: Iterable[tuple[str, ...]]
) -> tuple[int, Witness | None]:
    pairs = gpd.composable
    mors = gpd.morphisms
    checked = 0
    for idx in idxs:
        checked += 1
        try:
            left_legs, right_legs = legs(idx)
            try:
                # compose_path's fast path, inlined: one lookup per step
                left = left_legs[-1]
                if left not in mors:
                    raise KeyError(left)
                for g in left_legs[-2::-1]:
                    left = pairs[g, left]
                right = right_legs[-1]
                if right not in mors:
                    raise KeyError(right)
                for g in right_legs[-2::-1]:
                    right = pairs[g, right]
            except (IndexError, KeyError):
                left = compose_path(gpd, left_legs)
                right = compose_path(gpd, right_legs)
        except StructureError as err:
            return checked, Witness(tuple(idx), note=f"route does not evaluate: {err}")
        if left != right:
            return checked, Witness(
                tuple(idx), left, right, tuple(left_legs), tuple(right_legs)
            )
    return checked, None


def _chunks(it: Iterator, size: int) -> Iterator[list]:
    while True:
        block = list(islice(it, size))
        if not block:
            return
        yield block


def check_diagram(
    law: str,
    gpd: FinGroupoid,
    objects: Sequence[str],
    arity: int,
    legs: LegsFn,
    *,
    sample: int | None = None,
    seed: int = 0,
    workers: int = 1,
    strict_skip: bool = False,
) -> CheckResult:
    """Check one two-route diagram over the full (or sampled) index space.

    ``strict_skip=True`` asserts the caller verified a strict profile for
    this law: the loop is skipped and the instance count records the space
    the profile covers.
    """
    started = time.perf_counter()
    if strict_skip:
        total = len(objects) ** arity if sample is None else sample
        return CheckResult(law, Status.PASS, None, total, "strict-profile", time.perf_counter() - started)

    space, total, mode = index_space(objects, arity, sample, seed)
    if workers <= 1:
        checked, witness = _scan(gpd, legs, space)
    else:
        checked, witness = 0, None
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for done, wit in pool.map(lambda block: _scan(gpd, legs, block), _chunks(iter(space), _CHUNK)):
                checked += done
                if wit is not None:
                    witness = wit
                    break
    status = Status.FAIL if witness is not None else Status.PASS
    instances = checked if witness is not None else total
    return CheckResult(law, status, witness, instances, mode, time.perf_counter() - started)
