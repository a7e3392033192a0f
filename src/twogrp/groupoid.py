"""Finite groupoids as explicit tables, functors between them, and
object-indexed morphism families.

Everything downstream reduces to this module: a structure is a groupoid plus
tables, an axiom is an equality of two ``compose_path`` results, and a failed
axiom is reported with the exact instance it fails at.

Composition walks a chain with one lookup per step in the carrier's table of
composable pairs (``FinGroupoid.composable``: the ``compose`` entries whose
two ids are known morphisms that meet end to start).  Any miss reruns the
checking walk, which tests every id and endpoint and raises the precise
error, so a chain that does not compose fails exactly as it always did.

Morphism equality is identifier equality.  Canonical order (sorted ids)
drives every scan, so witnesses and search results are reproducible.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable, Iterable, Sequence
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


@dataclass
class FinGroupoid:
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

    def id_of(self, obj: str) -> str:
        return self.identity[obj]

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
    element; an empty chain is rejected.
    """
    try:
        acc = chain[-1]
        if acc in gpd.morphisms:
            pairs = gpd.composable
            for g in chain[-2::-1]:
                acc = pairs[g, acc]
            return acc
    except (IndexError, KeyError):
        pass
    return _compose_checked(gpd, chain)


def _compose_checked(gpd: FinGroupoid, chain: Sequence[str]) -> str:
    """The reference walk: test every id, then every endpoint, step by step.
    Raises the error that names exactly what does not compose."""
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


def _timed(report: Report, law: str, started: float, witness: Witness | None, instances: int) -> None:
    status = Status.FAIL if witness is not None else Status.PASS
    report.add(CheckResult(law, status, witness, instances, "exhaustive", time.perf_counter() - started))


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

    # composability coverage + endpoint law of composites
    started = time.perf_counter()
    witness = None
    n = 0
    for f in mors:
        for g in by_src[gpd.dst(f)]:
            n += 1
            gf = gpd.compose.get((g, f))
            if gf is None:
                witness = Witness((g, f), note="composable pair missing from compose table")
                break
            if gpd.src(gf) != gpd.src(f) or gpd.dst(gf) != gpd.dst(g):
                witness = Witness((g, f), left=gf, note="composite has wrong endpoints")
                break
        if witness:
            break
    _timed(report, "endpoints", started, witness, n)

    # associativity over composable triples
    started = time.perf_counter()
    witness = None
    n = 0
    if report.ok:
        for f in mors:
            for g in by_src[gpd.dst(f)]:
                gf = gpd.compose[(g, f)]
                for h in by_src[gpd.dst(g)]:
                    n += 1
                    if gpd.compose[(h, gf)] != gpd.compose[(gpd.compose[(h, g)], f)]:
                        witness = Witness(
                            (h, g, f),
                            left=gpd.compose[(h, gf)],
                            right=gpd.compose[(gpd.compose[(h, g)], f)],
                        )
                        break
                if witness:
                    break
            if witness:
                break
    _timed(report, "associativity", started, witness, n)

    # identities neutral with correct endpoints
    started = time.perf_counter()
    witness = None
    n = 0
    for x in gpd.objects_sorted:
        i = gpd.identity[x]
        n += 1
        if gpd.src(i) != x or gpd.dst(i) != x:
            witness = Witness((x,), left=i, note="identity endpoints differ from object")
            break
    if witness is None and report.ok:
        for f in mors:
            n += 1
            m = gpd.morphisms[f]
            if gpd.compose[(f, gpd.identity[m.src])] != f or gpd.compose[(gpd.identity[m.dst], f)] != f:
                witness = Witness((f,), note="identity is not neutral")
                break
    _timed(report, "identity", started, witness, n)

    # every morphism invertible
    started = time.perf_counter()
    witness = None
    n = 0
    if report.ok:
        for f in mors:
            n += 1
            i = gpd.inverse.get(f)
            m = gpd.morphisms[f]
            if i is None or i not in gpd.morphisms:
                witness = Witness((f,), note="no inverse recorded")
                break
            if gpd.src(i) != m.dst or gpd.dst(i) != m.src:
                witness = Witness((f,), left=i, note="inverse endpoints wrong")
                break
            if gpd.compose[(i, f)] != gpd.identity[m.src] or gpd.compose[(f, i)] != gpd.identity[m.dst]:
                witness = Witness((f,), left=gpd.compose[(i, f)], right=gpd.compose[(f, i)], note="inverse law fails")
                break
    _timed(report, "inverse", started, witness, n)
    return report


# ---------------------------------------------------------------------------
# functors
# ---------------------------------------------------------------------------


@dataclass
class GFunctor:
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

    started = time.perf_counter()
    witness = None
    n = 0
    for f in src.morphisms_sorted:
        n += 1
        m = src.morphisms[f]
        ff = fun.mor_map[f]
        if tgt.src(ff) != fun.obj_map[m.src] or tgt.dst(ff) != fun.obj_map[m.dst]:
            witness = Witness((f,), left=ff, note="image endpoints differ from mapped endpoints")
            break
    _timed(report, "endpoints", started, witness, n)

    started = time.perf_counter()
    witness = None
    n = 0
    for x in src.objects_sorted:
        n += 1
        if fun.mor_map[src.identity[x]] != tgt.identity[fun.obj_map[x]]:
            witness = Witness((x,), left=fun.mor_map[src.identity[x]], right=tgt.identity[fun.obj_map[x]])
            break
    _timed(report, "identities", started, witness, n)

    started = time.perf_counter()
    witness = None
    n = 0
    if report.ok:
        for f in src.morphisms_sorted:
            for g in src.by_src[src.dst(f)]:
                n += 1
                lhs = fun.mor_map[src.compose[(g, f)]]
                rhs = tgt.compose.get((fun.mor_map[g], fun.mor_map[f]))
                if lhs != rhs:
                    witness = Witness((g, f), left=lhs, right=rhs)
                    break
            if witness:
                break
    _timed(report, "composition", started, witness, n)
    return report


# ---------------------------------------------------------------------------
# object-indexed morphism families
# ---------------------------------------------------------------------------


@dataclass
class NatFamily:
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

    def is_pointwise_identity(self, gpd: FinGroupoid) -> bool:
        """True when every component is an identity morphism (of whatever
        object; see :meth:`is_strict` for the endpoint-aware condition)."""
        key = ("ptid", id(gpd))
        if key not in self._cache:
            ids = set(gpd.identity.values())
            self._cache[key] = all(mid in ids for mid in self.components.values())
        return self._cache[key]

    def is_strict(self, gpd: FinGroupoid, env: ex.Env) -> bool:
        """True when every component is the identity of its declared source
        object and the declared target coincides with it.  This is the
        condition the strict-profile shortcut is allowed to rely on: a
        component that is an identity at the wrong object fails it."""
        key = ("strict", id(gpd))
        if key not in self._cache:
            if not self.is_pointwise_identity(gpd):
                self._cache[key] = False
                return False
            ident = gpd.identity
            src_at = ex.compile_obj(self.src_expr, env)
            tgt_at = ex.compile_obj(self.tgt_expr, env)
            ok = True
            try:
                for idx, mid in self.components.items():
                    try:
                        src, tgt = src_at(idx), tgt_at(idx)
                    except KeyError:
                        src = ex.eval_obj(self.src_expr, env, idx)
                        tgt = ex.eval_obj(self.tgt_expr, env, idx)
                    if mid != ident.get(src) or tgt != src:
                        ok = False
                        break
            except StructureError:
                ok = False
            self._cache[key] = ok
        return self._cache[key]

    def mark_strict(self, gpd: FinGroupoid) -> "NatFamily":
        """Record that this family was constructed as identities at the
        evaluated source objects (constructors use this to avoid a rescan)."""
        self._cache[("strict", id(gpd))] = True
        self._cache[("ptid", id(gpd))] = True
        return self


def validate_family(gpd: FinGroupoid, fam: NatFamily, env: ex.Env, label: str = "family") -> Report:
    """Totality and endpoint correctness of a family over the full index space."""
    report = Report()
    started = time.perf_counter()
    witness = None
    n = 0
    for idx in fam.components:
        if len(idx) != fam.arity:
            raise ArityMismatch(f"{label}: component keyed by {idx} but arity is {fam.arity}")
    comps, mors = fam.components, gpd.morphisms
    src_at = ex.compile_obj(fam.src_expr, env)
    dst_at = ex.compile_obj(fam.tgt_expr, env)
    for idx in product(gpd.objects_sorted, repeat=fam.arity):
        n += 1
        mid = comps.get(idx)
        mor = mors.get(mid)
        if mor is None:
            witness = Witness(idx, note="component missing or unknown")
            break
        try:
            want_src, want_dst = src_at(idx), dst_at(idx)
        except KeyError:
            want_src = ex.eval_obj(fam.src_expr, env, idx)
            want_dst = ex.eval_obj(fam.tgt_expr, env, idx)
        if mor.src != want_src or mor.dst != want_dst:
            witness = Witness(
                idx,
                left=mid,
                note=f"endpoints {mor.src}->{mor.dst} differ from declared {want_src}->{want_dst}",
            )
            break
    _timed(report, f"{label}-endpoints", started, witness, n)
    return report


def check_naturality(
    fam: NatFamily,
    lhs_action: Callable[[Sequence[str]], str],
    rhs_action: Callable[[Sequence[str]], str],
    *,
    domain: FinGroupoid,
    codomain: FinGroupoid | None = None,
    sample: int | None = None,
    seed: int = 0,
    label: str = "naturality",
) -> Report:
    """Check all naturality squares of ``fam`` against two functorial actions.

    ``lhs_action``/``rhs_action`` map a tuple of test morphisms (drawn from
    ``domain``) to the source-side and target-side images; components live in
    ``codomain`` (defaults to ``domain``).  With ``sample`` set, a fixed-seed
    random subset of morphism tuples is used instead of the full product.
    """
    codomain = codomain or domain
    report = Report()
    started = time.perf_counter()
    witness = None
    n = 0
    k = fam.arity
    mors = domain.morphisms_sorted
    if sample is None:
        space: Iterable[tuple[str, ...]] = product(mors, repeat=k)
        mode = "exhaustive"
    else:
        space = _sample_tuples(mors, k, sample, seed)
        mode = f"sampled(n={sample},seed={seed})"
    ends, comps, pairs = domain.morphisms, fam.components, codomain.composable
    for fs in space:
        n += 1
        xs = tuple([ends[f].src for f in fs])
        ys = tuple([ends[f].dst for f in fs])
        # compose_path's fast path, inlined; each miss takes the checked route
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
            witness = Witness(fs, note=f"square does not typecheck: {err}")
            break
        if left != right:
            witness = Witness(fs, left=left, right=right)
            break
    status = Status.FAIL if witness is not None else Status.PASS
    report.add(CheckResult(label, status, witness, n, mode, time.perf_counter() - started))
    return report


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
