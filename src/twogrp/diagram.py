"""Generic two-route diagram checking.

Every coherence axiom in this package is an equality of two composite
morphisms, quantified over a finite tuple space.  This module runs that loop:
exhaustively by default or over a fixed-seed random sample on request, in
one serial pass; the witness is always the first failure in canonical
index order.

The reference loop (``_scan``) composes each leg with one lookup per step
in the carrier's table of composable pairs (``FinGroupoid.composable``).
An instance with a miss is recomposed by ``compose_path``, whose checking
walk names the id or endpoint that breaks the chain.  A sample draws the
same tuples ``Random.choice`` would at the same seed.

A loop of at least ``KERNEL_FLOOR`` instances (exhaustive or sampled) runs
its first ``REFERENCE_HEAD`` instances in the reference loop and, when they
hold, the whole space in the numpy block kernel (``_kernel``): the law's
tables become integer arrays and each route term one gather over a block of
instances.  numpy is imported there, on the first loop that gets that far.
A sample there draws the same tuples from the same stream.  The kernel
finds the first failing instance, and the reference loop rescans that one
tuple for the witness, so rows and witnesses are the reference's.  Without
numpy (``pip install .[fast]`` adds it) every loop runs the reference.

A check may also be discharged by a *strict profile*, derived from the
law's terms (``Law.ingredients``): when every family the routes read is
strict (identities at their declared endpoints), every sum or functor they
apply to morphisms preserves identities and every constant they use as a
morphism is an identity, each route composes to the identity of the
instance's start object, so all instances commute.  ``check_diagram`` tests
the profile itself.  A family's strict bit comes from the scan that
validates its endpoints, or is set by ``groupoid.identity_family``, the one
constructor of strict families; either holds only for the carrier and the
tables it was established under.  A route that reads a missing table entry
is a witness, as one that does not compose is.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable, Iterable, Sequence
from itertools import islice, product

from .expr import Law
from .groupoid import FinGroupoid, _sample_tuples, _space_size, compose_path, index_space
from .errors import StructureError
from .report import CheckResult, Status, Witness

# loops of at least this many instances run in the kernel: far above the
# loops of small checks (AF1 on the 9-object dual numbers has 6,561), where
# importing numpy and encoding the tables would cost more than they save
KERNEL_FLOOR = 1 << 15
# such a loop first runs this many instances in the reference loop, a few
# milliseconds: a scan that fails there (a broken structure's usually does)
# neither imports numpy nor encodes a table
REFERENCE_HEAD = 1 << 10

LegsFn = Callable[[tuple[str, ...]], tuple[Sequence[str], Sequence[str]]]


def strict_profile(law: Law, gpd: FinGroupoid, env: dict) -> bool:
    """True when the ingredients ``law`` reads, bound in ``env``, can only
    produce identity legs at the objects the diagram expects, so every
    instance commutes.  A family counts under the environment it is bound
    with (the endpoint check is what makes the shortcut sound)."""
    fams, maps, consts = law.ingredients
    ident = gpd.identity
    return (
        all(env[s][0].is_strict(gpd, env[s][1]) for s in fams)
        and all(env[s][2]() for s in maps)
        and all(ident.get(env[s][0]) == env[s][1] for s in consts)
    )


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
                # one lookup per step; a miss takes compose_path, the checking walk
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
        except KeyError as err:  # a leg builder read a missing table entry
            return checked, Witness(tuple(idx), note=f"route does not evaluate: no entry at {err}")
        if left != right:
            return checked, Witness(
                tuple(idx), left, right, tuple(left_legs), tuple(right_legs)
            )
    return checked, None


def check_diagram(
    law: Law,
    gpd: FinGroupoid,
    objects: Sequence[str],
    env: dict,
    *,
    sample: int | None = None,
    seed: int = 0,
    strict: bool = False,
) -> CheckResult:
    """Check one law, bound in ``env``, over the full (or sampled) space of
    its index tuples.

    With ``strict`` the law's strict profile is tested first; when it holds,
    the loop is skipped and the instance count records the whole space it
    covers, sampled or not.  A loop of at least ``KERNEL_FLOOR`` instances
    that holds on its first ``REFERENCE_HEAD`` runs in the numpy kernel,
    when numpy imports.
    """
    started = time.perf_counter()
    total = len(objects) ** law.arity
    if strict and strict_profile(law, gpd, env):
        return CheckResult(law.name, Status.PASS, None, total, "strict-profile", time.perf_counter() - started)

    count, mode = _space_size(total, sample, seed)
    if count < KERNEL_FLOOR:
        space, _, _ = index_space(objects, law.arity, sample, seed)
        checked, witness = _scan(gpd, law.legs(env, gpd.identity), space)
    else:
        checked, witness = _long_scan(law, gpd, objects, env, sample if count < total else None, seed)
    status = Status.FAIL if witness is not None else Status.PASS
    instances = checked if witness is not None else count
    return CheckResult(law.name, status, witness, instances, mode, time.perf_counter() - started)


def _long_scan(law: Law, gpd: FinGroupoid, objects: Sequence[str], env: dict,
               sample: int | None, seed: int) -> tuple[int, Witness | None]:
    """``_scan`` over the full space (``sample`` ``None``) or the sample:
    the reference loop over the first ``REFERENCE_HEAD`` instances, then the
    kernel over the space, whose first failing tuple the reference rescans
    for the witness (or, without numpy, the reference over the rest)."""
    legs = law.legs(env, gpd.identity)
    if sample is None:
        space = product(objects, repeat=law.arity)
        head = islice(space, REFERENCE_HEAD)
    else:
        head = _sample_tuples(objects, law.arity, min(sample, REFERENCE_HEAD), seed)
    checked, witness = _scan(gpd, legs, head)
    if witness is not None:
        return checked, witness
    kernel = _load_kernel()
    if kernel is None:
        rest = space if sample is None else _sample_tuples(objects, law.arity, sample, seed)[checked:]
        more, witness = _scan(gpd, legs, rest)
        return checked + more, witness
    found = kernel.first_failure(law, gpd, objects, env, sample, seed)
    if found is None:
        return (len(objects) ** law.arity if sample is None else sample), None
    position, idx = found
    _, witness = _scan(gpd, legs, [idx])
    if witness is None:
        raise RuntimeError(f"{law.name}: the kernel fails the instance at {idx}, the reference loop does not")
    return position + 1, witness


@functools.cache
def _load_kernel():
    """The kernel module, or ``None`` when numpy does not import."""
    try:
        from . import _kernel
    except ImportError:
        return None
    return _kernel
