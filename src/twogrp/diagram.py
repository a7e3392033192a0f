"""Generic two-route diagram checking.

Every coherence axiom in this package is an equality of two composite
morphisms, quantified over a finite tuple space.  This module runs that loop
(``_check``), exhaustively or over a fixed-seed sample that draws the tuples
``Random.choice`` would; the witness is the first failure in canonical
order.  A route that reads a missing table entry, or does not compose, is a
witness too.

The reference loop (``_scan``) composes each route with one lookup per step
in ``FinGroupoid.composable``, in code generated per law
(``Law.routes``); an instance with a miss is recomposed from its legs by
``compose_path``, whose checking walk names the id or endpoint that breaks.
A loop of at least ``KERNEL_FLOOR`` instances runs its first
``REFERENCE_HEAD`` in the reference loop and, when they hold, the whole
space in the numpy block kernel (``_kernel``, imported on the first loop
that gets that far): the tables become integer arrays, each route term one
gather over a block of instances.  The reference rescans the kernel's
failing tuples, in order, for the witness, so rows are the reference's.
Without numpy (``pip install .[fast]`` adds it) every loop runs the
reference.

Three data rows are laws run through ``_check`` with a ``witness_at``: a
family's endpoints (over objects) and naturality squares (over morphisms),
and the sum's interchange (over pairs of composable pairs).  Where the law
fails, the row's one-index body writes the witness with the row's own note;
where it finds nothing (the carrier's tables, not the family or the sum,
break the law there) the scan goes on, in the reference loop and over the
kernel's failing tuples alike.

``check_diagram`` may discharge a law by its *strict profile*, derived from
its terms (``Law.ingredients``): when every family the routes read is strict
(identities at their declared endpoints), every sum or functor they apply to
morphisms preserves identities and every constant they use as a morphism is
an identity, each route composes to the identity of the instance's start
object.  A strict bit holds only for the carrier and tables it was set under
(by a family's endpoint row or ``groupoid.identity_family``).
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

LegsFn = Callable[[tuple[str, ...]], tuple[tuple[str, ...], tuple[str, ...]]]  # the two routes, as tuples of legs
CompositesFn = Callable[[tuple[str, ...]], tuple[str, str]]  # the two routes' composites


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


def _scan(gpd: FinGroupoid, legs: LegsFn, composites: CompositesFn, idxs: Iterable[tuple[str, ...]],
          witness_at=None) -> tuple[int, Witness | None]:
    """The reference loop: the instances scanned and the first witness, written
    by ``witness_at`` when given (the scan goes on where it gives ``None``).
    ``composites`` (from ``Law.routes``) composes both routes with one
    lookup per step; an instance where they differ takes its witness legs
    from ``legs``, and one where a lookup misses or raises is decided from
    its legs by ``compose_path``, the checking walk, whose error names what
    does not compose."""
    checked = 0
    for checked, idx in enumerate(idxs, 1):
        try:
            left, right = composites(idx)
            if left == right:
                continue
            left_legs, right_legs = legs(idx)
            witness = Witness(tuple(idx), left, right, tuple(left_legs), tuple(right_legs))
        except (KeyError, StructureError):  # a lookup misses (or a computed table raises)
            witness = _walk(gpd, legs, idx)
            if witness is None:
                continue
        if witness_at is None or (witness := witness_at(witness.index)) is not None:
            return checked, witness
    return checked, None


def _walk(gpd: FinGroupoid, legs: LegsFn, idx: tuple[str, ...]) -> Witness | None:
    """The instance at ``idx`` decided by the checking walk: the witness of a
    route that does not evaluate or compose, or of unequal composites."""
    try:
        left_legs, right_legs = legs(idx)
        left, right = compose_path(gpd, left_legs), compose_path(gpd, right_legs)
    except StructureError as err:
        return Witness(tuple(idx), note=f"route does not evaluate: {err}")
    except KeyError as err:  # a leg builder read a missing table entry
        return Witness(tuple(idx), note=f"route does not evaluate: no entry at {err}")
    return None if left == right else Witness(tuple(idx), left, right, tuple(left_legs), tuple(right_legs))


def check_diagram(law: Law, gpd: FinGroupoid, objects: Sequence[str], env: dict, *,
                  sample: int | None = None, seed: int = 0, strict: bool = False) -> CheckResult:
    """Check one law, bound in ``env``, over the full (or sampled) space of
    its index tuples.

    With ``strict`` the law's strict profile is tested first; when it holds,
    the loop is skipped and the instance count records the whole space it
    covers, sampled or not.  A loop of at least ``KERNEL_FLOOR`` instances
    that holds on its first ``REFERENCE_HEAD`` runs in the numpy kernel,
    when numpy imports.
    """
    started = time.perf_counter()
    if strict and strict_profile(law, gpd, env):
        total = len(objects) ** law.arity
        return CheckResult(law.name, Status.PASS, None, total, "strict-profile", time.perf_counter() - started)
    return _check(law.name, law, gpd, objects, env, sample, seed)


def _check(name: str, law: Law, gpd: FinGroupoid, values: Sequence[str], env: dict,
           sample: int | None = None, seed: int = 0, witness_at=None) -> CheckResult:
    """The engine core: the row ``name`` of ``law`` over every tuple of
    ``values`` (objects or morphisms, as its variables range) or a sample,
    composed in ``gpd``."""
    started = time.perf_counter()
    total = len(values) ** law.arity
    count, mode = _space_size(total, sample, seed)
    legs, composites = law.routes(env, gpd.identity, gpd.composable, gpd.morphisms)
    if count < KERNEL_FLOOR:
        space = index_space(values, law.arity, sample, seed)[0]
        checked, witness = _scan(gpd, legs, composites, space, witness_at)
    else:
        checked, witness = _long_scan(law, gpd, values, env, legs, composites, sample if count < total else None,
                                      seed, witness_at)
    if witness is None:
        return CheckResult(name, Status.PASS, None, count, mode, time.perf_counter() - started)
    return CheckResult(name, Status.FAIL, witness, checked, mode, time.perf_counter() - started)


def _long_scan(law: Law, gpd: FinGroupoid, values: Sequence[str], env: dict, legs: LegsFn, composites: CompositesFn,
               sample: int | None, seed: int, witness_at) -> tuple[int, Witness | None]:
    """``_scan`` over the full space (``sample`` ``None``) or the sample:
    the reference loop over the first ``REFERENCE_HEAD`` instances, then the
    kernel over the space, whose failing tuples the reference rescans in
    order until one gives the witness (or, without numpy, the reference over
    the rest)."""
    if sample is None:
        space = product(values, repeat=law.arity)
        head = islice(space, REFERENCE_HEAD)
    else:
        head = _sample_tuples(values, law.arity, min(sample, REFERENCE_HEAD), seed)
    checked, witness = _scan(gpd, legs, composites, head, witness_at)
    if witness is not None:
        return checked, witness
    kernel = _load_kernel()
    if kernel is None:
        rest = space if sample is None else _sample_tuples(values, law.arity, sample, seed)[checked:]
        more, witness = _scan(gpd, legs, composites, rest, witness_at)
        return checked + more, witness
    for position, idx in kernel.failures(law, gpd, values, env, sample, seed):
        _, witness = _scan(gpd, legs, composites, [idx], witness_at)
        if witness is not None:
            return position + 1, witness
        if witness_at is None:
            raise RuntimeError(f"{law.name}: the kernel fails the instance at {idx}, the reference loop does not")
    return (len(values) ** law.arity if sample is None else sample), None


@functools.cache
def _load_kernel():
    """The kernel module, or ``None`` when numpy does not import."""
    try:
        from . import _kernel
    except ImportError:
        return None
    return _kernel
