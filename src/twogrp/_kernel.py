"""The numpy block kernel of the diagram engine.

``first_failure`` decides, for every index tuple of a law's (full or
sampled) space, what the reference loop ``diagram._scan`` decides there:
the instance holds when every lookup of both routes hits, each route's
first leg is a morphism of the carrier, each composition step is a
composable pair and the two composites are equal.  It returns the position
of the first instance that does not hold, in the order the reference scans;
the engine then reruns the reference on that one tuple for the witness.

Values are dense integer codes: objects (level 0) and morphisms (level 1)
each get one code space, the carrier's declared ids first in sorted order,
then every other value the tables read or return.  Every table becomes an
int array with one extra slot per axis that holds -1, so the code -1 (a
missing entry) reads -1 and propagates to the composite.  The law's terms
are compiled to one instruction per distinct gather; variables are
broadcast axes, so a subterm is computed only over the variables it
mentions.  An exhaustive space runs in blocks over its leading coordinates,
and a subterm free of them is computed once.  A sample runs in blocks of
rows drawn as ``groupoid._sample_tuples`` draws them.

A family with a recorded strict bit is computed, not read: its component
at declared objects is the identity of its declared source object.  The
canonical associo-commutator of the symmetric presentation is computed from
its structure's tables, by the identity of ``(x+y)+(z+t)`` when its
ingredients are strict and by the upper border composite otherwise; its
string memo is never filled.
"""

from __future__ import annotations

import random

import numpy as np

from .ac import _CanonicalAcomm
from .groupoid import NatFamily, _strict_bit

BLOCK = 1 << 14  # instances evaluated at once
DRAW = 1 << 16  # generator outputs drawn at once


def sample_positions(n: int, arity: int, count: int, seed: int) -> np.ndarray:
    """The positions (a ``count`` x ``arity`` array) of the tuples
    ``_sample_tuples`` draws over ``n`` values: ``getrandbits(32 * N)`` holds
    the next N outputs of the generator, least significant first, and
    ``getrandbits(k)`` is one output shifted right by ``32 - k``.  The
    tuples are the first accepted outputs of the stream, however it is
    drawn."""
    need = count * arity
    out = np.empty(need, np.intp)
    getrandbits = random.Random(seed).getrandbits
    shift = 32 - n.bit_length()
    have = 0
    while have < need:
        want = min(need - have, DRAW)
        words = np.frombuffer(getrandbits(32 * want).to_bytes(4 * want, "little"), "<u4") >> shift
        words = words[words < n]
        out[have:have + len(words)] = words
        have += len(words)
    return out.reshape(count, arity)


class _Program:
    """A law's routes bound to its environment, as integer tables and one
    instruction list.  Encoding runs in two passes: every table is read
    into code columns first, so the code spaces are complete when the
    arrays (sized by them) are built."""

    def __init__(self, law, gpd, objects, env):
        self.codes = ({}, {})
        self.columns: dict = {}  # table key -> (table, key levels, value level, key columns, values)
        self.arrays: dict = {}
        self.instrs: list = []  # (kind, payload, argument slots)
        self.slot_of: dict = {}
        self.varies: list = []  # per slot, the law variables it depends on
        self.env = env
        self.gpd = gpd
        for level, ids in ((0, gpd.objects_sorted), (1, gpd.morphisms_sorted)):
            self._code_all(level, ids)
        self.objects = self._code_all(0, objects)
        self.vars = [self._instr("var", i, (), frozenset((i,))) for i in range(law.arity)]
        self.routes = [self._route(gpd, [self._term(t, 1, self.vars) for t in route])
                       for route in (law.left, law.right)]
        for key, (_, key_levels, value_level, cols, vals) in self.columns.items():
            # at least two slots per axis, so an index with -1 digits stays
            # in range (it wraps onto a sentinel slot)
            shape = tuple(max(len(self.codes[lv]), 1) + 1 for lv in key_levels)
            table = np.full(shape, -1, np.intp)
            table[tuple(np.array(c, np.intp) for c in cols)] = vals
            self.arrays[key] = (table.ravel(), shape[1:])
        self.columns.clear()

    # -- codes and tables --------------------------------------------------

    def _code_all(self, level: int, values) -> list[int]:
        codes = self.codes[level]
        setdefault = codes.setdefault
        return [setdefault(v, len(codes)) for v in values]

    def _code(self, level: int, value) -> int:
        codes = self.codes[level]
        return codes.setdefault(value, len(codes))

    def _table(self, table, key_levels: tuple, value_level: int, tuple_keys: bool = True, key=None) -> tuple:
        """Register ``table`` (keyed by tuples of ``len(key_levels)`` values
        or, without ``tuple_keys``, by bare values) under ``key`` (by
        default its id and shape) and return the key."""
        key = key or (id(table), key_levels, value_level)
        if key not in self.columns:
            items = table.items()
            if tuple_keys:
                arity = len(key_levels)
                items = [(k, v) for k, v in items if type(k) is tuple and len(k) == arity]
                keys = list(zip(*[k for k, _ in items])) or [()] * arity
            else:
                keys = [[k for k, _ in items]]
            cols = [self._code_all(lv, col) for lv, col in zip(key_levels, keys)]
            # the entry holds the table, so no other table takes its id
            self.columns[key] = (table, key_levels, value_level, cols,
                                 self._code_all(value_level, [v for _, v in items]))
        return key

    def _mask(self, level: int, declared) -> tuple:
        """A table sending the code of each value in ``declared`` to itself
        and every other code to -1."""
        return self._table({v: v for v in declared}, (level,), level, False, ("mask", id(declared)))

    # -- instructions ------------------------------------------------------

    def _instr(self, kind: str, payload, args: tuple, varies=None) -> int:
        key = (kind, payload, args)
        slot = self.slot_of.get(key)
        if slot is None:
            slot = self.slot_of[key] = len(self.instrs)
            self.instrs.append(key)
            self.varies.append(varies if varies is not None else
                               frozenset().union(*(self.varies[a] for a in args)))
        return slot

    def _gather(self, table_key: tuple, *args: int) -> int:
        return self._instr("gather", table_key, args)

    def _const(self, level: int, value) -> int:
        return self._instr("const", self._code(level, value), (), frozenset())

    def _route(self, gpd, legs: list[int]) -> int:
        """The composite of ``legs`` (application order) in ``gpd``: the
        first leg must be one of its morphisms, each step a composable
        pair."""
        acc = self._gather(self._mask(1, gpd.morphisms), legs[-1])
        comp = self._table(gpd.composable, (1, 1), 1)
        for g in legs[-2::-1]:
            acc = self._gather(comp, g, acc)
        return acc

    def _term(self, term, level: int, args: list[int], env=None) -> int:
        """The slot of ``term`` at ``level``: law terms are bound in the
        law's environment, a family's endpoint expression in its own
        (``env``), with ``args`` the slots of its variables."""
        env = self.env if env is None else env
        tag = term[0]
        if tag == "v":
            return args[term[1]]
        if tag == "k":
            return self._const(level, term[1 + level])
        if tag == "c":
            return self._const(level, env[term[1]][level])
        if tag == "id" and level:
            return self._gather(self._table(self.gpd.identity, (0,), 1, False), self._term(term[1], 0, args))
        if tag == "fam" and level:
            return self._family(env[term[1]], [self._term(a, 0, args) for a in term[2:]])
        if tag in ("op", "ap"):
            sub = [self._term(a, level, args, env) for a in term[2:]]
            table = self._table(env[term[1]][level], (level,) * len(sub), level, tag == "op")
            return self._gather(table, *sub)
        raise ValueError(f"no {('object', 'morphism')[level]} node {term!r}")

    def _family(self, binding, args: list[int]) -> int:
        fam, fenv = binding[0], binding[1]
        if isinstance(fam, _CanonicalAcomm):
            return self._canonical_acomm(fam, *args)
        gpd = self.gpd
        if (isinstance(fam, NatFamily) and fam.arity == len(args)
                and len(fam.components) == len(gpd.objects) ** fam.arity
                and _strict_bit(fam, gpd, fenv)):
            # the components are exactly the identities of the declared
            # sources at the declared objects
            declared = self._mask(0, gpd.objects)
            src = self._term(fam.src_expr, 0, [self._gather(declared, a) for a in args], fenv)
            return self._gather(self._table(gpd.identity, (0,), 1, False), src)
        return self._gather(self._table(fam.components, (0,) * len(args), 1), *args)

    def _canonical_acomm(self, fam: _CanonicalAcomm, x: int, y: int, z: int, t: int) -> int:
        """``ac._CanonicalAcomm`` at (x, y, z, t), read from its structure's
        tables as ``__missing__`` reads them."""
        m = fam.m
        gpd = m.carrier
        so = self._table(m.sum_obj, (0, 0), 0)
        ident = self._table(gpd.identity, (0,), 1, False)
        if fam.is_strict():
            return self._gather(ident, self._gather(so, self._gather(so, x, y), self._gather(so, z, t)))
        sm = self._table(m.sum_mor, (1, 1), 1)
        a = self._table(m.assoc.components, (0, 0, 0), 1)
        c = self._table(m.comm.components, (0, 0), 1)
        inv = self._table(gpd.inverse, (1,), 1, False)
        g = self._gather
        ix = g(ident, x)
        return self._route(gpd, [
            g(a, x, z, g(so, y, t)),
            g(sm, ix, g(inv, g(a, z, y, t))),
            g(sm, ix, g(sm, g(c, y, z), g(ident, t))),
            g(sm, ix, g(a, y, z, t)),
            g(inv, g(a, x, y, g(so, z, t))),
        ])

    # -- evaluation ----------------------------------------------------------

    def _run(self, values: list, bound: list, frees: list) -> np.ndarray:
        """Fill the slots of ``values`` still ``None`` (the variables from
        ``bound``), dropping each slot in ``frees`` after its last read, and
        return the per-instance failure flags."""
        arrays = self.arrays
        for slot, (kind, payload, args) in enumerate(self.instrs):
            if values[slot] is not None:
                continue
            if kind == "gather":
                # one flat take: a -1 digit borrows from the digit above
                # it and leaves the sentinel slot in its own place
                flat, sizes = arrays[payload]
                index = values[args[0]]
                for a, size in zip(args[1:], sizes):
                    index = index * size + values[a]
                out = flat.take(index)
            elif kind == "var":
                out = bound[payload]
            else:  # const
                out = np.full((1,) * bound[0].ndim, payload, np.intp)
            values[slot] = out
            for dead in frees[slot]:
                values[dead] = None
        left, right = values[self.routes[0]], values[self.routes[1]]
        return (left != right) | (left < 0)

    def _blocks(self, bound_blocks, leading: frozenset):
        """The failure flags of each block, in order; the slots that depend
        on no ``leading`` variable are computed once."""
        keep = [not (v & leading) for v in self.varies]
        last_read = {}
        for slot, (_, _, args) in enumerate(self.instrs):
            last_read.update((a, slot) for a in args)
        frees = [[] for _ in self.instrs]
        for a, slot in last_read.items():
            if not keep[a] and a not in self.routes:
                frees[slot].append(a)
        fixed = None
        for bound in bound_blocks:
            values = list(fixed) if fixed is not None else [None] * len(self.instrs)
            yield self._run(values, bound, frees)
            if fixed is None:
                fixed = [v if k else None for v, k in zip(values, keep)]

    def first_exhaustive(self) -> int | None:
        n, arity = len(self.objects), len(self.vars)
        codes = np.array(self.objects, np.intp)
        lead = 0
        while lead < arity - 1 and n ** (arity - lead) > BLOCK:
            lead += 1
        ndim = arity - lead
        shape = (n,) * ndim
        trailing = [codes.reshape((1,) * i + (n,) + (1,) * (ndim - i - 1)) for i in range(ndim)]

        def bound_blocks():
            for prefix in np.ndindex(*(n,) * lead):
                yield [np.full((1,) * ndim, codes[p], np.intp) for p in prefix] + trailing

        for block, bad in enumerate(self._blocks(bound_blocks(), frozenset(range(lead)))):
            bad = np.broadcast_to(bad, shape)
            first = int(np.argmax(bad))
            if bad.flat[first]:
                return block * n ** ndim + first
        return None

    def first_sampled(self, positions: np.ndarray) -> int | None:
        codes = np.array(self.objects, np.intp)
        count, arity = positions.shape
        starts = range(0, count, BLOCK)
        blocks = ([codes[positions[s:s + BLOCK, i]] for i in range(arity)] for s in starts)
        for start, bad in zip(starts, self._blocks(blocks, frozenset(range(arity)))):
            bad = np.broadcast_to(bad, (min(BLOCK, count - start),))
            first = int(np.argmax(bad))
            if bad[first]:
                return start + first
        return None


def first_failure(law, gpd, objects, env, sample: int | None, seed: int):
    """``(position, index tuple)`` of the first instance of ``law`` that
    does not hold, over the full space (``sample`` ``None``) or the sample of
    that size, or ``None`` when every instance holds."""
    program = _Program(law, gpd, objects, env)
    n, arity = len(objects), law.arity
    if sample is None:
        pos = program.first_exhaustive()
        return None if pos is None else (pos, tuple(objects[p] for p in np.unravel_index(pos, (n,) * arity)))
    positions = sample_positions(n, arity, sample, seed)
    pos = program.first_sampled(positions)
    return None if pos is None else (pos, tuple(objects[p] for p in positions[pos]))
