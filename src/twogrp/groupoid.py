"""Finite groupoids as explicit tables, functors between them, and
object-indexed morphism families.

Everything downstream reduces to this module: a structure is a groupoid plus
tables, an axiom is an equality of two ``compose_path`` results, and a failed
axiom is reported with the exact instance it fails at.

``compose_path`` is the checking walk: it tests every id and endpoint and
raises the precise error.  Only the diagram engine's reference loop
composes with one lookup per step in ``FinGroupoid.composable`` (in the
code ``Law.routes`` generates) and reruns ``compose_path`` on a miss.

A family's components map index tuples to morphisms.  A total family,
built or parsed from rows in product order of the sorted objects, is made
from its values by ``FinGroupoid.product_table``, which alone decides: a
:class:`Column` (values in product order, a key read at its position) at
``diagram.KERNEL_FLOOR`` (2^13) entries or more, the arity-3 families at
m=5 among them, else a dict, as is every partial family.  The reference
loop reads a column through a dict of its reads.

Morphism equality is identifier equality.  Canonical order (sorted ids)
drives every scan, so witnesses and search results are reproducible.  A
family's endpoint row and naturality squares are declared laws
(``_family_laws``) the diagram engine runs, as is the sum's interchange
(``monoidal.INTERCHANGE``); every other data row, the sum's table checks
included, is a generator of per-instance outcomes consumed by
``_first_failure``.

Every value kept on a carrier, structure, family or functor (a data row,
a verdict, the kernel's code columns, the canonical b) goes through
``_recorded``: a record sits on the object whose tables decide it, one
per row (a carrier keeps two bifunctor rows and the code columns of up to
16 tables), holds every table the value read, and is read back only while
that object still holds them by identity (an environment's tables match
by value).  Outside it: the carrier's own lookups (its tables immutable
by contract) and the scans' curried views (``diagram._curried``).
"""

from __future__ import annotations

import random
import time
from collections.abc import Iterable, ItemsView, Mapping, Sequence
from contextlib import suppress
from dataclasses import dataclass, field, replace
from functools import cache
from itertools import product, repeat
from operator import is_

from . import expr as ex
from .errors import ArityMismatch, DomainMismatch, EndpointMismatch, MalformedTable, StructureError
from .report import CheckResult, Report, Status, Witness


@dataclass(frozen=True)
class Morphism:
    mid: str
    src: str
    dst: str


@dataclass
class _Memo:
    """Base of the dataclasses that keep records on ``_cache``: every instance,
    a ``dataclasses.replace`` copy included, starts with an empty memo, since
    a copy may change the tables the memo was computed from."""

    _cache: dict = field(default_factory=dict, compare=False, repr=False, kw_only=True)

    def __post_init__(self) -> None:
        self._cache = {}


# the records a holder keeps per row: one, but two bifunctor rows, since a
# 2-ring's additive and multiplicative sums share their carrier, and the
# kernel's code columns and the scans' curried views of the 16 tables last
# read on a carrier (a 2-ring suite on the m=5 dual numbers reads 12
# distinct ones)
_KEEP = {"bifunctor": 2, "codes": 16, "curried": 16}


def _recorded(holder, row: str, held: tuple, env: ex.Env | None = None, run=None):
    """The value recorded for ``row`` on ``holder`` while ``holder`` still
    holds exactly the tables ``held`` by identity and ``env`` by value
    (identical tables at once); otherwise ``run()``, recorded in place of
    the oldest of the records ``holder`` keeps for ``row`` (``_KEEP``; a
    run that raises records nothing), or ``None`` without ``run``.  Callers
    hand out copies."""
    records = holder._cache.get(row, ())
    for record in records:
        if record[1] == env and len(record[0]) == len(held) and all(map(is_, record[0], held)):
            return record[2]
    if run is None:
        return None
    value = run()
    holder._cache[row] = ((held, None if env is None else dict(env), value),) + records[:_KEEP.get(row, 1) - 1]
    return value


@dataclass
class FinGroupoid(_Memo):
    """A finite groupoid: objects, morphisms, and composition/identity/inverse
    tables.  ``compose[(g, f)]`` is ``g∘f``, defined iff ``dst(f) == src(g)``.

    Instances are treated as immutable after construction; the ``inverse``
    table may be left partial for validate-only use, every other operation
    requires it total.
    """

    objects: tuple[str, ...]
    morphisms: dict[str, Morphism]
    compose: dict[tuple[str, str], str]
    identity: dict[str, str]
    inverse: dict[str, str]

    @classmethod
    def build(
        cls,
        objects: Iterable[str],
        morphisms: Iterable[tuple[str, str, str]],
        compose: dict[tuple[str, str], str],
        identity: dict[str, str],
        inverse: dict[str, str],
    ) -> "FinGroupoid":
        mors = {mid: Morphism(mid, src, dst) for mid, src, dst in morphisms}
        return cls(tuple(objects), mors, dict(compose), dict(identity), dict(inverse))

    # -- lookups ---------------------------------------------------------

    def src(self, mid: str) -> str:
        return self.morphisms[mid].src

    def dst(self, mid: str) -> str:
        return self.morphisms[mid].dst

    def inv(self, mid: str) -> str:
        try:
            return self.inverse[mid]
        except KeyError:
            raise MalformedTable(f"no inverse recorded for morphism {mid!r}") from None

    def comp(self, g: str, f: str) -> str:
        try:
            return self.compose[(g, f)]
        except KeyError:
            raise MalformedTable(f"composite {g!r} o {f!r} missing from table") from None

    # -- canonical orders and indexes -------------------------------------

    @property
    def objects_sorted(self) -> tuple[str, ...]:
        if "objs" not in self._cache:
            self._cache["objs"] = tuple(sorted(self.objects))
        return self._cache["objs"]

    @property
    def morphisms_sorted(self) -> tuple[str, ...]:
        if "mors" not in self._cache:
            self._cache["mors"] = tuple(sorted(self.morphisms))
        return self._cache["mors"]

    @property
    def by_src(self) -> dict[str, tuple[str, ...]]:
        if "by_src" not in self._cache:
            idx: dict[str, list[str]] = {x: [] for x in self.objects}
            for mid in self.morphisms_sorted:
                idx[self.morphisms[mid].src].append(mid)
            self._cache["by_src"] = {x: tuple(v) for x, v in idx.items()}
        return self._cache["by_src"]

    def hom(self, src: str, dst: str) -> tuple[str, ...]:
        """Morphisms src -> dst in canonical order."""
        if "hom" not in self._cache:
            idx: dict[tuple[str, str], list[str]] = {}
            for mid in self.morphisms_sorted:
                m = self.morphisms[mid]
                idx.setdefault((m.src, m.dst), []).append(mid)
            self._cache["hom"] = {k: tuple(v) for k, v in idx.items()}
        return self._cache["hom"].get((src, dst), ())

    @property
    def composable(self) -> dict[tuple[str, str], str]:
        """``compose`` restricted to pairs ``(g, f)`` of known morphisms with
        ``dst(f) == src(g)``: a hit is a step the checking walk accepts."""
        table = self._cache.get("composable")
        if table is None:
            mors = self.morphisms
            table = {}
            for (g, f), h in self.compose.items():
                mg, mf = mors.get(g), mors.get(f)
                if mg is not None and mf is not None and mf.dst == mg.src:
                    table[g, f] = h
            self._cache["composable"] = table
        return table

    def product_table(self, arity: int, values: Iterable[str]) -> "Column | dict":
        """The total table over the tuples of ``arity`` objects whose
        values, in product order, are ``values``: a :class:`Column` when it
        has at least ``diagram.KERNEL_FLOOR`` entries (a smaller one is read
        faster as a dict by the loops over it, which run in the scan, where
        a dict it may read whole is curried whole) and the carrier declares
        no object twice, otherwise a dict."""
        axis = self.objects_sorted
        if "positions" not in self._cache:
            self._cache["positions"] = {x: i for i, x in enumerate(axis)}
        positions = self._cache["positions"]
        if len(positions) < len(axis) or len(axis) ** arity < diagram.KERNEL_FLOOR:
            return dict(zip(product(axis, repeat=arity), values))
        return Column(axis, positions, arity, tuple(values))

    def identities_preserved_by_inverse(self) -> bool:
        return _recorded(self, "inv_id", (self.inverse, self.identity),
                         run=lambda: all(self.inverse.get(i) == i for i in self.identity.values()))


class Column(Mapping):
    """A read-only table keyed by exactly the tuples of ``arity`` ids of
    ``axis`` (a carrier's sorted objects), held as its values in product
    order, which is the order of its keys and of their sort.  A key is read
    at its position, computed from ``positions`` (each id's index in
    ``axis``, shared by the carrier's columns); any other key raises
    ``KeyError``, as a dict's missing key does.  A column equals any
    mapping with the same entries; two over one axis compare their values.
    The reference loop reads it through :meth:`read`."""

    __slots__ = ("axis", "arity", "column", "_positions", "_read")

    def __init__(self, axis: tuple[str, ...], positions: dict[str, int], arity: int, column: tuple[str, ...]):
        self.axis, self._positions, self.arity, self.column = axis, positions, arity, column
        self._read = None

    def read(self) -> dict:
        """The entries read through this dict so far, a miss read from the
        column: the reference loop reads a family through it, so that a
        repeated read is one dict lookup."""
        if self._read is None:
            self._read = _Read(self)
        return self._read

    def __getitem__(self, key):
        if type(key) is tuple and len(key) == self.arity:
            n, positions, at = len(self.axis), self._positions, 0
            try:
                for x in key:
                    at = at * n + positions[x]
            except KeyError:
                raise KeyError(key) from None
            return self.column[at]
        raise KeyError(key)

    def __iter__(self):
        return product(self.axis, repeat=self.arity)

    def __len__(self) -> int:
        return len(self.column)

    def values(self) -> tuple[str, ...]:
        return self.column

    def items(self) -> ItemsView:
        return _ColumnItems(self)

    def __eq__(self, other):
        if isinstance(other, Column) and (other.axis, other.arity) == (self.axis, self.arity):
            return self.column == other.column
        if not isinstance(other, Mapping):
            return NotImplemented
        absent = object()
        return len(other) == len(self) and all(other.get(k, absent) == v for k, v in self.items())

    def __repr__(self) -> str:
        return f"Column(arity={self.arity}, axis={self.axis!r}, {len(self.column)} values)"


class _Read(dict):
    def __init__(self, column: Column):
        super().__init__()
        self.column = column

    def __missing__(self, key):
        value = self[key] = self.column[key]
        return value


class _ColumnItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping.column)


def compose_path(gpd: FinGroupoid, chain: Sequence[str]) -> str:
    """Compose a chain of morphisms written in application order.

    ``compose_path(G, [h, g, f])`` is ``h∘g∘f`` (``f`` applies first), so a
    displayed composite transcribes literally.  A singleton chain returns its
    element; an empty chain is rejected.  Every id, then every endpoint, is
    tested step by step, so the error names exactly what does not compose.
    """
    if not chain:
        raise ValueError("cannot compose an empty chain")
    for mid in chain:
        if mid not in gpd.morphisms:
            raise MalformedTable(f"unknown morphism id {mid!r} in chain")
    acc = chain[-1]
    for pos in range(len(chain) - 2, -1, -1):
        nxt = chain[pos]
        if gpd.dst(acc) != gpd.src(nxt):
            raise EndpointMismatch(
                f"chain breaks at position {pos}: dst({acc!r})={gpd.dst(acc)!r} "
                f"but src({nxt!r})={gpd.src(nxt)!r}",
                position=pos,
            )
        acc = gpd.comp(nxt, acc)
    return acc


# ---------------------------------------------------------------------------
# groupoid validation
# ---------------------------------------------------------------------------


def _first_failure(report: Report, law: str, cases: Iterable[Witness | None]) -> None:
    """Add the timed exhaustive row for ``law``.  ``cases`` yields ``None``
    for each instance that holds and a :class:`Witness` for the first that
    fails; the scan stops there, so the instance count covers the cases
    examined up to and including the failing one."""
    started = time.perf_counter()
    n = 0
    witness = None
    for n, witness in enumerate(cases, 1):
        if witness is not None:
            break
    status = Status.FAIL if witness is not None else Status.PASS
    report.add(CheckResult(law, status, witness, n, "exhaustive", time.perf_counter() - started))


def validate_groupoid(gpd: FinGroupoid) -> Report:
    """Check the category and groupoid laws, with first-failure witnesses.

    Raises :class:`MalformedTable` when tables reference unknown ids or the
    compose table is not total over exactly the composable pairs.  Law
    violations (endpoints, associativity, identity, inverse) are reported,
    not raised; a missing inverse table entry is reported under "inverse".
    """
    objset = set(gpd.objects)
    for mid, m in gpd.morphisms.items():
        if m.src not in objset or m.dst not in objset:
            raise MalformedTable(f"morphism {mid!r} has undeclared endpoint")
    for (g, f), h in gpd.compose.items():
        for mid in (g, f, h):
            if mid not in gpd.morphisms:
                raise MalformedTable(f"compose table references unknown morphism {mid!r}")
        if gpd.dst(f) != gpd.src(g):
            raise MalformedTable(f"compose table defined at non-composable pair ({g!r}, {f!r})")
    for x in gpd.objects:
        if x not in gpd.identity or gpd.identity[x] not in gpd.morphisms:
            raise MalformedTable(f"identity table missing or unknown at object {x!r}")
    for f, i in sorted(gpd.inverse.items()):
        for mid in (f, i):
            if mid not in gpd.morphisms:
                raise MalformedTable(f"inverse table references unknown morphism {mid!r}")

    report = Report()
    mors = gpd.morphisms_sorted
    by_src = gpd.by_src

    def endpoints():
        # composability coverage + endpoint law of composites
        for f in mors:
            for g in by_src[gpd.dst(f)]:
                gf = gpd.compose.get((g, f))
                if gf is None:
                    yield Witness((g, f), note="composable pair missing from compose table")
                elif gpd.src(gf) != gpd.src(f) or gpd.dst(gf) != gpd.dst(g):
                    yield Witness((g, f), left=gf, note="composite has wrong endpoints")
                else:
                    yield None

    def associativity():
        # over composable triples
        if report.ok:
            for f in mors:
                for g in by_src[gpd.dst(f)]:
                    gf = gpd.compose[(g, f)]
                    for h in by_src[gpd.dst(g)]:
                        if gpd.compose[(h, gf)] != gpd.compose[(gpd.compose[(h, g)], f)]:
                            yield Witness(
                                (h, g, f),
                                left=gpd.compose[(h, gf)],
                                right=gpd.compose[(gpd.compose[(h, g)], f)],
                            )
                        else:
                            yield None

    def identity():
        # identities neutral with correct endpoints
        for x in gpd.objects_sorted:
            i = gpd.identity[x]
            if gpd.src(i) != x or gpd.dst(i) != x:
                yield Witness((x,), left=i, note="identity endpoints differ from object")
            else:
                yield None
        if report.ok:
            for f in mors:
                m = gpd.morphisms[f]
                if gpd.compose[(f, gpd.identity[m.src])] != f or gpd.compose[(gpd.identity[m.dst], f)] != f:
                    yield Witness((f,), note="identity is not neutral")
                else:
                    yield None

    def inverse():
        # every morphism invertible
        if report.ok:
            for f in mors:
                i = gpd.inverse.get(f)
                m = gpd.morphisms[f]
                if i is None or i not in gpd.morphisms:
                    yield Witness((f,), note="no inverse recorded")
                elif gpd.src(i) != m.dst or gpd.dst(i) != m.src:
                    yield Witness((f,), left=i, note="inverse endpoints wrong")
                elif gpd.compose[(i, f)] != gpd.identity[m.src] or gpd.compose[(f, i)] != gpd.identity[m.dst]:
                    yield Witness((f,), left=gpd.compose[(i, f)], right=gpd.compose[(f, i)], note="inverse law fails")
                else:
                    yield None

    _first_failure(report, "endpoints", endpoints())
    _first_failure(report, "associativity", associativity())
    _first_failure(report, "identity", identity())
    _first_failure(report, "inverse", inverse())
    return report


# ---------------------------------------------------------------------------
# functors
# ---------------------------------------------------------------------------


@dataclass
class GFunctor(_Memo):
    """A functor between finite groupoids, as explicit object/morphism maps."""

    source: FinGroupoid
    target: FinGroupoid
    obj_map: dict[str, str]
    mor_map: dict[str, str]

    def obj(self, x: str) -> str:
        try:
            return self.obj_map[x]
        except KeyError:
            raise DomainMismatch(f"object map undefined at {x!r}") from None

    def mor(self, f: str) -> str:
        try:
            return self.mor_map[f]
        except KeyError:
            raise DomainMismatch(f"morphism map undefined at {f!r}") from None

    def preserves_identities(self) -> bool:
        return _recorded(self, "id_pres", (self.source, self.target, self.obj_map, self.mor_map), run=lambda: all(
            self.mor_map.get(self.source.identity[x]) == self.target.identity.get(self.obj_map.get(x))
            for x in self.source.objects))


def identity_functor(gpd: FinGroupoid) -> GFunctor:
    return GFunctor(gpd, gpd, {x: x for x in gpd.objects}, {f: f for f in gpd.morphisms})


def compose_gfunctors(g2: GFunctor, g1: GFunctor) -> GFunctor:
    if g1.target is not g2.source and g1.target != g2.source:
        raise DomainMismatch("functors not composable: middle groupoids differ")
    return GFunctor(
        g1.source,
        g2.target,
        {x: g2.obj(y) for x, y in g1.obj_map.items()},
        {f: g2.mor(h) for f, h in g1.mor_map.items()},
    )


def validate_functor(fun: GFunctor) -> Report:
    """Check totality, endpoint/identity preservation and functoriality.

    Raises :class:`DomainMismatch` when a map is partial; law failures are
    reported with the offending object, morphism or pair.  The rows, pass
    or fail, are recorded (:func:`_recorded`) with both carriers and both
    maps: a later call returns copies of them with its own seconds, without
    a rescan.
    """
    started = time.perf_counter()
    held = (fun.source, fun.target, fun.obj_map, fun.mor_map)
    if (rows := _recorded(fun, "functor", held)) is not None:
        return Report([replace(c, seconds=time.perf_counter() - started) for c in rows])
    src, tgt = fun.source, fun.target
    targets = set(tgt.objects)
    for x in src.objects:
        if x not in fun.obj_map:
            raise DomainMismatch(f"object map undefined at {x!r}")
        if fun.obj_map[x] not in targets:
            raise DomainMismatch(f"object map sends {x!r} outside the target")
    for f in src.morphisms:
        if f not in fun.mor_map:
            raise DomainMismatch(f"morphism map undefined at {f!r}")
        if fun.mor_map[f] not in tgt.morphisms:
            raise DomainMismatch(f"morphism map sends {f!r} outside the target")

    report = Report()

    def endpoints():
        for f in src.morphisms_sorted:
            m = src.morphisms[f]
            ff = fun.mor_map[f]
            if tgt.src(ff) != fun.obj_map[m.src] or tgt.dst(ff) != fun.obj_map[m.dst]:
                yield Witness((f,), left=ff, note="image endpoints differ from mapped endpoints")
            else:
                yield None

    def identities():
        for x in src.objects_sorted:
            if fun.mor_map[src.identity[x]] != tgt.identity[fun.obj_map[x]]:
                yield Witness((x,), left=fun.mor_map[src.identity[x]], right=tgt.identity[fun.obj_map[x]])
            else:
                yield None

    def composition():
        if report.ok:
            for f in src.morphisms_sorted:
                for g in src.by_src[src.dst(f)]:
                    gf = src.compose.get((g, f))
                    if gf is None:
                        yield Witness((g, f), note="composable pair missing from compose table")
                        return
                    lhs = fun.mor_map[gf]
                    rhs = tgt.compose.get((fun.mor_map[g], fun.mor_map[f]))
                    if lhs != rhs:
                        yield Witness((g, f), left=lhs, right=rhs)
                    else:
                        yield None

    _first_failure(report, "endpoints", endpoints())
    _first_failure(report, "identities", identities())
    _first_failure(report, "composition", composition())
    _recorded(fun, "functor", held, run=lambda: [replace(c) for c in report.checks])
    return report


# ---------------------------------------------------------------------------
# object-indexed morphism families
# ---------------------------------------------------------------------------


@dataclass
class NatFamily(_Memo):
    """An object-indexed assignment of morphisms with declared endpoint
    expressions (one :class:`NatFamily` type houses associators, commutators,
    unitors, associo-commutators, distributors and absorbers alike)."""

    arity: int
    components: Mapping[tuple[str, ...], str]
    src_expr: ex.Expr
    tgt_expr: ex.Expr

    def at(self, *idx: str) -> str:
        try:
            return self.components[idx]
        except KeyError:
            if len(idx) != self.arity:
                raise ArityMismatch(f"family has arity {self.arity}, got index {idx}") from None
            raise MalformedTable(f"family has no component at {idx}") from None

    def is_strict(self, gpd: FinGroupoid, env: ex.Env) -> bool:
        """True when the component at every tuple of ``gpd``'s objects is
        the identity of its declared source object, which is also its
        declared target: the strict profile's condition.  The bit is the
        endpoint row's (:func:`_strict_bit`), or else recorded here by the
        endpoint law run without its row (a row that raises leaves it False)
        or by :func:`identity_family`, the one strict constructor."""

        def scan() -> bool:
            if set(gpd.identity.values()).issuperset(self.components.values()):
                with suppress(StructureError):
                    return _endpoint_row(gpd, self, env, gpd.objects_sorted)[1]
            return False

        return _strict_bit(self, gpd, env, scan)


def identity_family(make, gpd: FinGroupoid, env: ex.Env, *args) -> NatFamily:
    """The family ``make(components, *args)`` whose component at every index
    tuple is the identity of its declared source object evaluated under
    ``env``, with its strict bit recorded under ``env`` but no endpoint row,
    so its first validation scans.  The caller vouches that the declared
    target evaluates to the same object (the tables of ``env`` satisfy the
    law the family witnesses); the tests hold every such family to the
    endpoint row.  The sources are ``ex.column_obj``'s column, whose
    identities stream into ``product_table``; on a lookup that misses, the
    family is built again one :func:`ex.evaluate` call per index tuple, in
    product order, which raises the error naming the first miss."""
    fam = make({}, *args)
    axis = gpd.objects_sorted
    try:
        sources = ex.column_obj(fam.src_expr, env, axis, fam.arity)
        fam.components = gpd.product_table(fam.arity, map(gpd.identity.__getitem__, sources))
    except KeyError:
        sources = (ex.evaluate(fam.src_expr, env, 0, idx) for idx in product(axis, repeat=fam.arity))
        fam.components = gpd.product_table(fam.arity, map(gpd.identity.__getitem__, sources))
    _recorded(fam, "strict", (gpd, fam.components, axis), env, lambda: True)
    return fam


def _strict_bit(fam: NatFamily, gpd: FinGroupoid, env: ex.Env, scan=None) -> bool:
    """The strict bit of ``fam`` on ``gpd``, over the tuples of its objects,
    under the tables of ``env``: the endpoint row's when one is recorded,
    else the bit recorded without a row, else ``scan()`` recorded (False
    without ``scan``).  A family indexed by another carrier's objects (a
    functor's ``fsum``) is not strict here, so the strict profile does not
    skip a law between two carriers."""
    held = (gpd, fam.components, gpd.objects_sorted)
    if (done := _recorded(fam, "endpoints", held, env)) is not None:
        return done[1]
    return bool(_recorded(fam, "strict", held, env, scan))


_FAM = "φ"  # the family's symbol in its own laws


@cache
def _family_laws(arity: int, src: ex.Expr, tgt: ex.Expr) -> tuple[ex.Law, ex.Law]:
    """The endpoint law (over objects) and naturality law (over morphisms)
    of a family φ: S -> T.  The endpoint routes evaluate exactly when φ(v…)
    is a known morphism S(v…) -> T(v…), and then agree if identities do."""
    xs = [ex.var(i) for i in range(arity)]
    at = lambda end: ex.fam(_FAM, *[(end, x) for x in xs])
    return (ex.Law("endpoints", arity, [ex.fam(_FAM, *xs), ex.ident(src)], [ex.ident(tgt), ex.fam(_FAM, *xs)]),
            ex.Law("naturality", arity, [at("dst"), src], [tgt, at("src")]))


def _family_env(law: ex.Law, fam: NatFamily, env: ex.Env, domain: FinGroupoid) -> dict:
    """``law``'s tables: ``fam`` as φ, ``env`` (empty where it lacks a symbol), ``domain``'s ends."""
    law_env = {sym: env.get(sym, ({}, {})) for sym in law.symbols}
    law_env.update(ends=domain.morphisms, **{_FAM: (fam, env)})
    return law_env


def _endpoint_row(gpd: FinGroupoid, fam: NatFamily, env: ex.Env, objects: tuple[str, ...]) -> tuple[CheckResult, bool]:
    """The endpoint row of ``fam`` and its strict bit: the endpoint law run
    by the engine (kernel included) over the tuples of ``objects``, the
    family's index set, reading the components in ``gpd``, never the bit (φ
    is bound to a copy with no record).  Where the law fails, ``witness_at``
    writes the witness (a component missing or unknown, or its endpoints
    against the declared ones) or nothing.  The bit is False unless the row
    passes, then whether each distinct component is its source's
    identity."""
    comps, mors = fam.components, gpd.morphisms
    for x, i in gpd.identity.items():  # the law reads these as identities
        if (m := mors.get(i)) is not None and not m.src == m.dst == x:
            raise MalformedTable(f"identity table gives {i!r}, not an endomorphism, at object {x!r}")

    def witness_at(idx):
        mor = mors.get(mid := comps.get(idx))
        if mor is None:
            return Witness(idx, note="component missing or unknown")
        want_src, want_dst = ex.evaluate(fam.src_expr, env, 0, idx), ex.evaluate(fam.tgt_expr, env, 0, idx)
        if mor.src != want_src or mor.dst != want_dst:
            note = f"endpoints {mor.src}->{mor.dst} differ from declared {want_src}->{want_dst}"
            return Witness(idx, left=mid, note=note)
        return None  # the carrier's tables, not the family, fail the law here

    law = _family_laws(fam.arity, fam.src_expr, fam.tgt_expr)[0]
    bare = NatFamily(fam.arity, comps, fam.src_expr, fam.tgt_expr)
    row = diagram._check("endpoints", law, gpd, objects, _family_env(law, bare, env, gpd),
                         witness_at=witness_at)
    return row, (row.witness is None and (used := set(comps.values())) <= set(gpd.identity.values())
                 and all((m := mors.get(mid)) is not None and m.src == m.dst and gpd.identity.get(m.src) == mid
                         for mid in used))


def validate_family(gpd: FinGroupoid, fam: NatFamily, env: ex.Env, label: str = "family", *,
                    domain: FinGroupoid | None = None) -> Report:
    """Totality and endpoint correctness of a family over the full index
    space, the tuples of ``domain``'s objects (by default ``gpd``'s), its
    components read in ``gpd``.  The row, pass or fail, is recorded with the
    family's strict bit (:func:`_recorded`): validated again under the same
    carrier, domain, tables (or equal ones) and ``components`` object, the
    family gets a copy of it, with this ``label`` and this call's seconds,
    and no scan.  A
    :class:`Column` of the family's arity is keyed by arity-tuples by
    construction; any other table's keys are checked first."""
    started = time.perf_counter()
    objects = (domain or gpd).objects_sorted

    def scan() -> tuple[CheckResult, bool]:
        comps = fam.components
        if not (isinstance(comps, Column) and comps.arity == fam.arity) and set(map(len, comps)) - {fam.arity}:
            for idx in comps:  # the ordered walk names the first offender
                if len(idx) != fam.arity:
                    raise ArityMismatch(f"{label}: component keyed by {idx} but arity is {fam.arity}")
        return _endpoint_row(gpd, fam, env, objects)

    row = _recorded(fam, "endpoints", (gpd, fam.components, objects), env, scan)[0]
    return Report([replace(row, law=f"{label}-endpoints", seconds=time.perf_counter() - started)])


def check_naturality(fam: NatFamily, env: ex.Env, *, domain: FinGroupoid, codomain: FinGroupoid | None = None,
                     sample: int | None = None, seed: int = 0, label: str = "naturality") -> Report:
    """Check all naturality squares of ``fam`` (its declared endpoint
    expressions act under ``env``) over tuples of morphisms of ``domain``,
    or a fixed-seed sample of ``sample`` of them, composed in ``codomain``
    (by default ``domain``)."""
    codomain = codomain or domain
    mors = domain.morphisms

    def witness_at(fs):
        try:
            at_y = fam.at(*[mors[f].dst for f in fs])
            left = compose_path(codomain, [at_y, ex.evaluate(fam.src_expr, env, 1, fs)])
            image = ex.evaluate(fam.tgt_expr, env, 1, fs)
            right = compose_path(codomain, [image, fam.at(*[mors[f].src for f in fs])])
        except StructureError as err:
            return Witness(fs, note=f"square does not typecheck: {err}")
        return Witness(fs, left=left, right=right) if left != right else None

    law = _family_laws(fam.arity, fam.src_expr, fam.tgt_expr)[1]
    return Report([diagram._check(label, law, codomain, domain.morphisms_sorted, _family_env(law, fam, env, domain),
                                  sample, seed, witness_at)])


def index_space(
    seq: Sequence[str], arity: int, sample: int | None = None, seed: int = 0
) -> tuple[Iterable[tuple[str, ...]], int, str]:
    """Index tuples over ``seq`` in canonical order, or a fixed-seed sample
    of them when ``sample`` is below their number.

    Returns ``(iterable, count, mode)`` where ``count`` is the number of
    instances the iterable yields.
    """
    count, mode = _space_size(len(seq) ** arity, sample, seed)
    drawn = product(seq, repeat=arity) if mode == "exhaustive" else _sample_tuples(seq, arity, sample, seed)
    return drawn, count, mode


def _space_size(total: int, sample: int | None = None, seed: int = 0) -> tuple[int, str]:
    """``(count, mode)`` of :func:`index_space` over a space of ``total``
    tuples."""
    if sample is None or sample >= total:
        return total, "exhaustive"
    return sample, f"sampled(n={sample},seed={seed})"


def _sample_tuples(seq: Sequence[str], arity: int, count: int, seed: int) -> list[tuple[str, ...]]:
    """``count`` tuples drawn as ``tuple(rng.choice(seq) for _ in range(arity))``
    with ``rng = random.Random(seed)``, without a call per coordinate.

    ``Random.choice`` draws ``getrandbits(len(seq).bit_length())`` until the
    value is below ``len(seq)``; this runs the same rejection over the same
    stream, so every seed yields the tuples ``Random.choice`` would.
    """
    need = count * arity
    n = len(seq)
    if need > 0 and not n:
        raise IndexError("Cannot choose from an empty sequence")
    if not arity:
        return [()] * count
    getrandbits = random.Random(seed).getrandbits
    k = n.bit_length()
    picks: list[str] = []
    while len(picks) < need:
        picks += [seq[r] for r in map(getrandbits, repeat(k, need - len(picks))) if r < n]
    del picks[need:]
    return list(zip(*[iter(picks)] * arity))


from . import diagram  # noqa: E402  (diagram imports this module: bound once both exist)
