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
An exhaustive loop has one path: a candidate source yields, in order, the
instances whose composites may differ or miss, and the reference loop
rescans them until one gives the witness (``_first``), so rows are the
reference's.  The source is the nested-loop scan generated beside the
routes (``scan``: a loop per variable, each subterm computed once, in the
loop of the deepest variable it reads, a lookup whose leading components
an outer loop knows read from its table's curried view, ``_curried``).  A
loop of at least ``KERNEL_FLOOR`` (2^13) instances, the three-variable laws
at m=5 among them, runs a head in the scan and, when it holds, the whole
space in the numpy block kernel (``_kernel``, imported on the first loop
that gets that far): the tables become integer arrays, each route term one
gather over a block of instances; the sampled rows over one space share
one draw.  The head is ``REFERENCE_HEAD`` instances until numpy has been
looked for, then ``LOADED_HEAD``.  Without numpy (``pip install .[fast]``
adds it) the scan runs the rest.  A sampled loop below the floor, and an
exhaustive one of fewer than ``SCAN_FLOOR`` instances, runs in the
reference loop itself.

Three data rows are laws run through ``_check`` with a ``witness_at``: a
family's endpoints (over objects) and naturality squares (over morphisms),
and the sum's interchange (over pairs of composable pairs).  Where the law
fails, the row's one-index body writes the witness with the row's own note;
where it finds nothing (the carrier's tables, not the family or the sum,
break the law there) the scan goes on, in the reference loop and over the
candidates alike.

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

from .expr import Law
from .groupoid import _KEEP, FinGroupoid, _sample_tuples, _space_size, compose_path, index_space
from .errors import StructureError
from .report import CheckResult, Status, Witness

# loops of at least this many instances run in the kernel.  With numpy
# loaded, its encode and run beat the nested-loop scan from a few thousand
# instances on (SF1 at m=5, 15,625 instances: about 5 ms against 22 to
# 24 ms with the tables encoded and curried afresh, 1 against 12 ms with
# both kept); the floor stays above the loops of small checks (AF1 on the
# 9-object dual numbers has 6,561), where importing numpy would cost more
# than the kernel saves
KERNEL_FLOOR = 1 << 13
# such a loop first runs this many instances in the scan, about 0.8 ms
# (about 2 ms while it builds its tables' views): a scan that fails there
# (a broken structure's usually does) neither imports numpy (0.15 s) nor
# encodes a table.  Once numpy has been looked for, only the encode is
# left to spare, and the head drops to ``LOADED_HEAD``: enough to fail SF1
# of F_odd at m=5 (its 6th instance) without an encode
REFERENCE_HEAD = 1 << 10
LOADED_HEAD = 1 << 7
# an exhaustive loop of fewer instances runs in the reference loop: there
# a scan's set-up (a view per curried table, its generators) costs more
# than its loops save (with every loop in the scan, the sweep benchmark's
# set-up, mostly small endofunctor checks, took 0.028 against 0.019 to
# 0.022 s, and its median job 0.118 against 0.102 to 0.108 ms)
SCAN_FLOOR = 32

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
    that holds on its head runs in the numpy kernel, when numpy imports.
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
    composed in ``gpd``: a sample or a space below ``SCAN_FLOOR`` in the
    reference loop, any other space through its candidates."""
    started = time.perf_counter()
    total = len(values) ** law.arity
    count, mode = _space_size(total, sample, seed)
    routes = law.routes(env, gpd.identity, gpd.composable, gpd.morphisms, functools.partial(_curried, gpd))
    if count >= KERNEL_FLOOR:
        checked, witness = _long_scan(law, gpd, values, env, routes, sample if count < total else None, seed,
                                      witness_at)
    elif count < total or count < SCAN_FLOOR:
        checked, witness = _scan(gpd, *routes[:2], index_space(values, law.arity, sample, seed)[0], witness_at)
    else:
        space = _tuples(values, law.arity, routes[2](values, total))
        checked, witness = _first(law, gpd, routes, space, witness_at)
    if witness is None:
        return CheckResult(name, Status.PASS, None, count, mode, time.perf_counter() - started)
    return CheckResult(name, Status.FAIL, witness, checked, mode, time.perf_counter() - started)


def _long_scan(law: Law, gpd: FinGroupoid, values: Sequence[str], env: dict, routes: tuple,
               sample: int | None, seed: int, witness_at) -> tuple[int, Witness | None]:
    """The full space (``sample`` ``None``) or the sample: its head
    (``REFERENCE_HEAD`` instances, or ``LOADED_HEAD`` once numpy has been
    looked for) in the scan or, sampled, the reference loop, then the
    kernel's failing tuples over the space, rescanned in order until one
    gives the witness; without numpy, the rest in the scan (the head
    walked again, its candidates skipped) or the reference loop."""
    size = min(REFERENCE_HEAD, LOADED_HEAD) if _load_kernel.cache_info().currsize else REFERENCE_HEAD
    scan = routes[2]
    if sample is None:
        head = _tuples(values, law.arity, scan(values, size))
        checked, witness = _first(law, gpd, routes, head, witness_at)
    else:
        checked, witness = _scan(gpd, *routes[:2], _sample_tuples(values, law.arity, min(sample, size), seed),
                                 witness_at)
    if witness is not None:
        return checked, witness
    kernel = _load_kernel()
    if kernel is not None:
        return _first(law, gpd, routes, kernel.failures(law, gpd, values, env, sample, seed), witness_at)
    if sample is None:
        rest = (p for p in scan(values, len(values) ** law.arity) if p >= size)
        return _first(law, gpd, routes, _tuples(values, law.arity, rest), witness_at)
    more, witness = _scan(gpd, *routes[:2], _sample_tuples(values, law.arity, sample, seed)[checked:], witness_at)
    return checked + more, witness


def _first(law: Law, gpd: FinGroupoid, routes: tuple, candidates: Iterable[tuple[int, tuple[str, ...]]],
           witness_at) -> tuple[int, Witness | None]:
    """The first witness among ``candidates`` (the position and tuple of
    each instance a scan finds failing, in order), each rescanned in the
    reference loop, and its position + 1."""
    for position, idx in candidates:
        _, witness = _scan(gpd, *routes[:2], [idx], witness_at)
        if witness is not None:
            return position + 1, witness
        if witness_at is None:
            raise RuntimeError(f"{law.name}: a scan fails the instance at {idx}, the reference loop does not")
    return 0, None


def _tuples(values: Sequence[str], arity: int, positions: Iterable[int]) -> Iterable[tuple[int, tuple[str, ...]]]:
    """Each position in the product order of ``arity`` tuples of ``values``
    with its tuple."""
    n = len(values)
    for position in positions:
        idx, rest = [], position
        for _ in range(arity):
            rest, at = divmod(rest, n)
            idx.append(values[at])
        yield position, tuple(reversed(idx))


def _curried(gpd: FinGroupoid, table, arity: int, stop: int) -> dict:
    """``table`` read one key component at a time, ``view[a][b]`` for
    ``table[a, b]``, by a scan of at most ``stop`` tuples.  A plain dict
    of at most ``stop`` entries is curried whole: its view holds each key
    of ``arity`` components (another key is left out, as its tuple read
    misses).  Any other table (a larger dict, a column's reads, a
    computed table) is read by its tuple keys into rows made as they are
    read (:class:`_Rows`): a short scan of a long table pays for what it
    reads.  The views of the last ``_KEEP["curried"]`` tables read on
    ``gpd`` are kept there, by identity, each with its table, so no other
    table takes its id.  They are the one keeping cache outside
    ``groupoid._recorded``: records kept in such a dict cost the sweep
    benchmark 3.8 % of its wall time, 4.6 % with these views among them."""
    kept = gpd._cache.setdefault("curried", {})
    entry = kept[id(table), arity] = kept.pop((id(table), arity), None) or (table, _curry(table, arity, stop))
    if len(kept) > _KEEP["curried"]:  # the view read least recently goes
        del kept[next(iter(kept))]
    return entry[1]


def _curry(table, arity: int, stop: int) -> dict:
    if type(table) is not dict or len(table) > stop:
        return _Rows(table, (), arity)
    view: dict = {}
    for key, value in table.items():
        if type(key) is tuple and len(key) == arity:
            row = view
            for part in key[:-1]:
                row = row[part] if part in row else row.setdefault(part, {})
            row[key[-1]] = value
    return view


class _Rows(dict):
    """The rows of a table below the key components ``prefix``, ``more``
    components to go, each made when first read; the last component reads
    the table by the whole tuple key (a miss raises there)."""

    __slots__ = ("table", "prefix", "more")

    def __init__(self, table, prefix: tuple, more: int):
        super().__init__()
        self.table, self.prefix, self.more = table, prefix, more

    def __missing__(self, part):
        key = (*self.prefix, part)
        value = self[part] = _Rows(self.table, key, self.more - 1) if self.more > 1 else self.table[key]
        return value


@functools.cache
def _load_kernel():
    """The kernel module, or ``None`` when numpy does not import."""
    try:
        from . import _kernel
    except ImportError:
        return None
    return _kernel
