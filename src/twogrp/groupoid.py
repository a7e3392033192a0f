"""Finite groupoids as explicit tables, functors between them, and
object-indexed morphism families.

Everything downstream reduces to this module: a structure is a groupoid plus
tables, an axiom is an equality of two ``compose_path`` results, and a failed
axiom is reported with the exact instance it fails at.

``compose_path`` is the checking walk: it tests every id and endpoint and
raises the precise error.  The two hot loops (``diagram._scan`` and
``check_naturality``) compose inline with one lookup per step in the
carrier's table of composable pairs (``FinGroupoid.composable``: the
``compose`` entries whose two ids are known morphisms that meet end to
start) and rerun ``compose_path`` on any miss, so a chain that does not
compose fails with the same precise error.

Morphism equality is identifier equality.  Canonical order (sorted ids)
drives every scan, so witnesses and search results are reproducible.  Every
data row (the laws of a carrier or a functor, the bifunctor, family
endpoints, naturality squares, weak inverses, T2) is one generator of
per-instance outcomes consumed by ``_first_failure``.
"""

from __future__ import annotations

import random
import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import product, repeat

from . import expr as ex
from .errors import ArityMismatch, DomainMismatch, EndpointMismatch, MalformedTable, StructureError
from .report import CheckResult, Report, Status, Witness


@dataclass(frozen=True)
class Morphism:
    mid: str
    src: str
    dst: str


class _Memo:
    """Base of the dataclasses that memoize on ``_cache``: every instance,
    a ``dataclasses.replace`` copy included, starts with an empty memo, since
    a copy may change the tables the memo was computed from."""

    def __post_init__(self) -> None:
        self._cache = {}


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
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

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

    def identities_preserved_by_inverse(self) -> bool:
        if "inv_id" not in self._cache:
            self._cache["inv_id"] = all(
                self.inverse.get(i) == i for i in self.identity.values()
            )
        return self._cache["inv_id"]


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


def _first_failure(
    report: Report, law: str, cases: Iterable[Witness | None], mode: str = "exhaustive"
) -> None:
    """Add the timed row for ``law``.  ``cases`` yields ``None`` for each
    instance that holds and a :class:`Witness` for the first that fails; the
    scan stops there, so the instance count covers the cases examined up to
    and including the failing one.  Every data row is built here."""
    started = time.perf_counter()
    n = 0
    witness = None
    for n, witness in enumerate(cases, 1):
        if witness is not None:
            break
    status = Status.FAIL if witness is not None else Status.PASS
    report.add(CheckResult(law, status, witness, n, mode, time.perf_counter() - started))


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
    for f, i in gpd.inverse.items():
        if f not in gpd.morphisms or i not in gpd.morphisms:
            raise MalformedTable(f"inverse table references unknown morphism")

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
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

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
        if "id_pres" not in self._cache:
            self._cache["id_pres"] = all(
                self.mor_map.get(self.source.identity[x]) == self.target.identity.get(self.obj_map.get(x))
                for x in self.source.objects
            )
        return self._cache["id_pres"]


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
    reported with the offending object, morphism or pair.
    """
    src, tgt = fun.source, fun.target
    for x in src.objects:
        if x not in fun.obj_map:
            raise DomainMismatch(f"object map undefined at {x!r}")
        if fun.obj_map[x] not in set(tgt.objects):
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
    components: dict[tuple[str, ...], str]
    src_expr: ex.Expr
    tgt_expr: ex.Expr
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def at(self, *idx: str) -> str:
        try:
            return self.components[idx]
        except KeyError:
            if len(idx) != self.arity:
                raise ArityMismatch(f"family has arity {self.arity}, got index {idx}") from None
            raise MalformedTable(f"family has no component at {idx}") from None

    def is_strict(self, gpd: FinGroupoid, env: ex.Env) -> bool:
        """True when every component is the identity of its declared source
        object, which is also its declared target: the condition the strict
        profile relies on.  A bit holds only for the carrier and the tables
        (or equal ones) of the environment it was established under.  It
        comes from the endpoint scan of :func:`validate_family`, run here if
        neither a scan nor :func:`identity_family`, the one strict
        constructor, set it under ``env``."""
        bit = _strict_bit(self, gpd, env)
        if bit is None:
            _set_strict(self, gpd, env, False)
            if set(gpd.identity.values()).issuperset(self.components.values()):
                try:
                    any(_scan_endpoints(gpd, self, env))
                except StructureError:
                    pass  # a scan that raises leaves the bit False
            bit = _strict_bit(self, gpd, env)
        return bit


def identity_family(make, gpd: FinGroupoid, env: ex.Env, *args) -> NatFamily:
    """The family ``make(components, *args)`` whose component at every index
    tuple is the identity of its declared source object evaluated under
    ``env``, with its strict bit set under ``env``.  The caller vouches that
    the declared target evaluates to the same object (the tables of ``env``
    satisfy the law the family witnesses); the tests hold every such family
    to the endpoint scan."""
    fam = make({}, *args)
    src_at, ident = ex.compile_obj(fam.src_expr, env), gpd.identity
    fam.components = {
        idx: ident[src_at(idx)] for idx in product(gpd.objects_sorted, repeat=fam.arity)
    }
    _set_strict(fam, gpd, env, True)
    return fam


def _strict_bit(fam: NatFamily, gpd: FinGroupoid, env: ex.Env) -> bool | None:
    """The strict bit recorded for ``gpd`` under the tables of ``env``, or
    ``None``.  The tables are matched by value (identical ones at once), so
    another environment over equal tables shares the bit."""
    entry = fam._cache.get(("strict", id(gpd)))
    if entry is not None and entry[1] == env:
        return entry[2]
    return None


def _set_strict(fam: NatFamily, gpd: FinGroupoid, env: ex.Env, bit: bool) -> None:
    """Record the bit with the carrier and a copy of ``env``; holding the
    carrier keeps its id, the key, from being reused while the bit stands."""
    fam._cache[("strict", id(gpd))] = (gpd, dict(env), bit)


def _scan_endpoints(gpd: FinGroupoid, fam: NatFamily, env: ex.Env) -> Iterator[Witness | None]:
    """Compare each component's endpoints with the declared ones over the
    full index space, in canonical order: yields ``None`` per component that
    matches and a witness for the first that does not.  The family's strict
    bit reads False from the start of the scan (no consumer resumes a scan
    after a failure) and is set when the scan ends."""
    comps, mors = fam.components, gpd.morphisms
    src_at = ex.compile_obj(fam.src_expr, env)
    dst_at = ex.compile_obj(fam.tgt_expr, env)
    _set_strict(fam, gpd, env, False)
    for idx in product(gpd.objects_sorted, repeat=fam.arity):
        mid = comps.get(idx)
        mor = mors.get(mid)
        if mor is None:
            yield Witness(idx, note="component missing or unknown")
            return
        want_src, want_dst = src_at(idx), dst_at(idx)
        if mor.src != want_src or mor.dst != want_dst:
            yield Witness(
                idx,
                left=mid,
                note=f"endpoints {mor.src}->{mor.dst} differ from declared {want_src}->{want_dst}",
            )
            return
        yield None
    # strict once the endpoints are checked: each distinct id is the identity
    # of its own source.
    used = set(comps.values())
    strict = used <= set(gpd.identity.values()) and all(
        (mor := mors.get(mid)) is not None and mor.src == mor.dst and gpd.identity.get(mor.src) == mid
        for mid in used
    )
    _set_strict(fam, gpd, env, strict)


def validate_family(gpd: FinGroupoid, fam: NatFamily, env: ex.Env, label: str = "family") -> Report:
    """Totality and endpoint correctness of a family over the full index
    space; the scan also records the family's strict bit."""
    report = Report()
    if set(map(len, fam.components)) - {fam.arity}:
        for idx in fam.components:  # the ordered walk names the first offender
            if len(idx) != fam.arity:
                raise ArityMismatch(f"{label}: component keyed by {idx} but arity is {fam.arity}")
    _first_failure(report, f"{label}-endpoints", _scan_endpoints(gpd, fam, env))
    return report


def check_naturality(
    fam: NatFamily,
    env: ex.Env,
    *,
    domain: FinGroupoid,
    codomain: FinGroupoid | None = None,
    sample: int | None = None,
    seed: int = 0,
    label: str = "naturality",
) -> Report:
    """Check all naturality squares of ``fam``: its declared source and
    target expressions, compiled under ``env``, give the actions on tuples
    of test morphisms drawn from ``domain``; components live in
    ``codomain`` (defaults to ``domain``).  With ``sample`` set below the
    number of morphism tuples, a fixed-seed random subset of them is used
    instead of the full product."""
    codomain = codomain or domain
    lhs_action = ex.compile_mor(fam.src_expr, env)
    rhs_action = ex.compile_mor(fam.tgt_expr, env)
    space, _, mode = index_space(domain.morphisms_sorted, fam.arity, sample, seed)
    ends, comps, pairs = domain.morphisms, fam.components, codomain.composable

    def squares():
        for fs in space:
            xs = tuple([ends[f].src for f in fs])
            ys = tuple([ends[f].dst for f in fs])
            # one lookup per step; each miss takes compose_path, the checking walk
            try:
                at_y = comps.get(ys)
                if at_y is None:
                    at_y = fam.at(*ys)
                image = lhs_action(fs)
                left = pairs.get((at_y, image))
                if left is None:
                    left = compose_path(codomain, [at_y, image])
                image = rhs_action(fs)
                at_x = comps.get(xs)
                if at_x is None:
                    at_x = fam.at(*xs)
                right = pairs.get((image, at_x))
                if right is None:
                    right = compose_path(codomain, [image, at_x])
            except StructureError as err:
                yield Witness(fs, note=f"square does not typecheck: {err}")
                return
            if left != right:
                yield Witness(fs, left=left, right=right)
            else:
                yield None

    report = Report()
    _first_failure(report, label, squares(), mode)
    return report


def index_space(
    seq: Sequence[str], arity: int, sample: int | None = None, seed: int = 0
) -> tuple[Iterable[tuple[str, ...]], int, str]:
    """Index tuples over ``seq`` in canonical order, or a fixed-seed sample
    of them when ``sample`` is below their number.

    Returns ``(iterable, count, mode)`` where ``count`` is the number of
    instances the iterable yields.
    """
    count, mode = _space_size(len(seq) ** arity, sample, seed)
    if mode == "exhaustive":
        return product(seq, repeat=arity), count, mode
    return _sample_tuples(seq, arity, sample, seed), count, mode


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
