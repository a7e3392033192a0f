"""The numpy block kernel of the diagram engine.

``failures`` decides, for every index tuple of a law's (full or sampled)
space, what the reference loop ``diagram._scan`` decides there (every
lookup of both routes hits, each route's first leg is a carrier morphism,
each step a composable pair, and the composites agree) and yields the
tuples that fail, in the reference's order; the engine rescans them in
the reference, in order, until one gives the witness.

Values are dense integer codes, one code space per level (objects 0,
morphisms 1, composable pairs 2): the carrier's ids in sorted order (the
pairs the law ranges over, for pairs), then every other value the tables
read or return; a law's variables take the codes of the level they range
over, and a pair's projections are gathers.  Every table becomes an int
array with one extra slot per axis that holds -1, so a missing entry reads
-1 and propagates to the composite; an array of more than ``BLOCK`` slots
is held in the narrowest signed type of its value codes and -1 (int8 for a
family of arity 3 or 4 at m=5), each gather casting what it reads to
``np.intp``.  A table keyed by exactly the tuples of the carrier's ids (a
total family, a total sum) is read densely: its values in product order
(a ``groupoid.Column``'s values as they are), sliced into the array; any
other table, with a missing key or one outside the carrier, is encoded key
by key.  A law's table read at levels 0 and 1 whose every key and value
is a carrier id (the carrier declaring no id twice) codes to the ids'
positions in any program, so its code columns, read-only arrays of the
narrowest unsigned type, are kept on the carrier under the one record
rule (``groupoid._recorded``: by identity, at most ``_KEEP["codes"]`` of
them) and every later program over that carrier reads them instead of
encoding the table again; its own code spaces, array shapes and sentinel
slots stay its own.
The terms compile to one instruction per distinct gather; variables are
broadcast axes, so a subterm is computed only over the variables it
mentions.  An exhaustive space runs in blocks over its leading coordinates
(the last of them a chunk of values when the rest are few), and a subterm
free of them is computed once.  A sample runs in blocks of
rows drawn as ``groupoid._sample_tuples`` draws them (``sample_positions``,
one byte per coordinate over at most 255 values, each its value's code
when the values are the carrier's ids), from numpy's MT19937 put
in the state of ``random.Random(seed)``, whose raw words are the stdlib's
(about 2.7 against 7.3 ms per 640k words).  One stream per ``(n, seed)``
is kept, the last: a row takes a read-only prefix of its accepted
outputs, and a longer one extends it, so the rows over one space, the
2-ring laws of every arity among them, draw it once.

Every family is read, whatever its strict bit: one gather of its
component table.  The canonical associo-commutator of the symmetric
presentation is computed from its structure's tables, by the identity of
``(x+y)+(z+t)`` when its ingredients are strict and otherwise by
compiling the declared upper border route (``ac.ACOMM_UPPER``) like a
law's; its string memo is never filled.
"""

from __future__ import annotations

import random
from itertools import product
from math import prod

import numpy as np

from .ac import ACOMM_UPPER, _CanonicalAcomm, _route_env
from .groupoid import Column, _recorded

BLOCK = 1 << 14  # instances evaluated at once
DRAW = 1 << 16  # generator outputs drawn at once


_kept: tuple = (None, None, None)  # the last stream: (n, seed), its generator, the positions it accepted


def _generator(seed: int) -> np.random.MT19937:
    """A generator in the state of ``random.Random(seed)``: its raw words
    are the outputs ``getrandbits(32)`` gives."""
    words = random.Random(seed).getstate()[1]
    bitgen = np.random.MT19937()
    bitgen.state = {"bit_generator": "MT19937", "state": {"key": np.array(words[:-1], np.uint32), "pos": words[-1]}}
    return bitgen


def sample_positions(n: int, arity: int, count: int, seed: int) -> np.ndarray:
    """The positions (a read-only ``count`` x ``arity`` array of the
    narrowest unsigned type that holds ``n``) of the tuples
    ``_sample_tuples`` draws over ``n`` values: ``getrandbits(k)`` is one
    output of the generator shifted right by ``32 - k``, and the tuples are
    the first accepted outputs of the stream, whatever their arity.  The
    stream of the last ``(n, seed)`` is kept and extended on demand, so the
    rows over one space (the 2-ring laws of every arity) draw it once."""
    global _kept
    need = count * arity
    key, bitgen, kept = _kept
    if key != (n, seed):
        bitgen, kept = _generator(seed), np.empty(0, np.min_scalar_type(n))
    shift = 32 - n.bit_length()
    parts = [kept]
    while (have := sum(map(len, parts))) < need:
        words = bitgen.random_raw(min(need - have, DRAW)) >> shift
        parts.append(words[words < n].astype(kept.dtype))
    if len(parts) > 1:
        kept = np.concatenate(parts)
        kept.flags.writeable = False
    _kept = (n, seed), bitgen, kept
    return kept[:need].reshape(count, arity)


def _frozen(codes: list[int], n: int) -> np.ndarray:
    """``codes`` (each below ``n``) as a read-only array of the narrowest
    unsigned type that holds ``n``."""
    out = np.array(codes, np.min_scalar_type(n))
    out.flags.writeable = False
    return out


class _Program:
    """A law's routes bound to its environment, as integer tables and one
    instruction list.  Encoding runs in two passes: every table is read
    into code columns first, so the code spaces are complete when the
    arrays (sized by them) are built."""

    def __init__(self, law, gpd, values, env):
        self.codes = ({}, {}, {})
        self.columns: dict = {}  # table key -> (table, key levels, value level, key columns, values)
        self.arrays: dict = {}
        self.instrs: list = []  # (kind, payload, argument slots)
        self.slot_of: dict = {}
        self.varies: list = []  # per slot, the law variables it depends on
        self.env = env
        self.gpd = gpd
        # per level, the ids whose codes are their positions (none when
        # the carrier declares an id twice): the axes of a dense table
        self.ids = tuple(ids if self._code_all(level, ids) == list(range(len(ids))) else None
                         for level, ids in ((0, gpd.objects_sorted), (1, gpd.morphisms_sorted)))
        self.values = self._code_all(law.var_level, values)
        self.vars = [self._instr("var", i, (), frozenset((i,))) for i in range(law.arity)]
        self.routes = [self._route(gpd, [self._term(t, 1, self.vars) for t in route])
                       for route in (law.left, law.right)]
        for key, (_, key_levels, value_level, cols, vals) in self.columns.items():
            # at least two slots per axis, so an index with -1 digits stays
            # in range (it wraps onto a sentinel slot)
            shape = tuple(max(len(self.codes[lv]), 1) + 1 for lv in key_levels)
            # one larger than a block in the narrowest type of its codes and -1
            dtype = np.intp if prod(shape) <= BLOCK else np.min_scalar_type(-len(self.codes[value_level]) - 1)
            table = np.full(shape, -1, dtype)
            if cols is None:  # read densely
                dims = [len(self.ids[lv]) for lv in key_levels]
                table[tuple(map(slice, dims))] = np.reshape(vals, dims)
            else:
                table[tuple(np.array(c, np.intp) for c in cols)] = vals
            self.arrays[key] = (table.ravel(), shape[1:])
        self.columns.clear()

    # -- codes and tables --------------------------------------------------

    def _code_all(self, level: int, values: list) -> list[int]:
        codes = self.codes[level]
        try:  # most values are coded already
            return list(map(codes.__getitem__, values))
        except KeyError:
            setdefault = codes.setdefault
            return [setdefault(v, len(codes)) for v in values]

    def _code(self, level: int, value) -> int:
        codes = self.codes[level]
        return codes.setdefault(value, len(codes))

    def _table(self, table, key_levels: tuple, value_level: int, tuple_keys: bool = True, key=None) -> tuple:
        """Register ``table`` (keyed by tuples of ``len(key_levels)`` values
        or, without ``tuple_keys``, by bare values) under ``key`` (by
        default its id and shape) and return the key.  The code columns of
        a table the law reads (one built for this program comes with its
        ``key``) at levels 0 and 1, over carrier ids only, are kept on the
        carrier and read by every later program over it."""
        own = key is None
        key = key or (id(table), key_levels, value_level)
        if key in self.columns:
            return key
        levels = (*key_levels, value_level)
        at = {"levels": levels} if own and all(lv < 2 and self.ids[lv] is not None for lv in levels) else None
        kept = at and _recorded(self.gpd, "codes", (table,), at)
        if kept is None:
            cols, vals = kept = self._encode(table, key_levels, value_level, tuple_keys)
            columns = [*zip(cols or (), key_levels), (vals, value_level)]
            # kept when no key was dropped and every code is a carrier id's
            if at and len(vals) == len(table) and all(max(c, default=-1) < len(self.ids[lv]) for c, lv in columns):
                frozen = [_frozen(c, len(self.ids[lv])) for c, lv in columns]
                kept = (None if cols is None else tuple(frozen[:-1]), frozen[-1])
                _recorded(self.gpd, "codes", (table,), at, lambda: kept)
        # the entry holds the table, so no other table takes its id
        self.columns[key] = (table, key_levels, value_level, *kept)
        return key

    def _encode(self, table, key_levels: tuple, value_level: int, tuple_keys: bool) -> tuple:
        """``table``'s key code columns (``None`` when its keys are the
        carrier's tuples, read densely) and value codes."""
        dense = self._dense(table, key_levels) if tuple_keys else None
        if dense is not None:
            return None, self._code_all(value_level, dense)
        items = table.items()
        if tuple_keys:
            arity = len(key_levels)
            items = [(k, v) for k, v in items if type(k) is tuple and len(k) == arity]
            keys = list(zip(*[k for k, _ in items])) or [()] * arity
        else:
            keys = [[k for k, _ in items]]
        return ([self._code_all(lv, col) for lv, col in zip(key_levels, keys)],
                self._code_all(value_level, [v for _, v in items]))

    def _dense(self, table, key_levels: tuple) -> list | None:
        """``table``'s values at the tuples of the carrier's ids at
        ``key_levels``, in product order, or ``None`` unless those tuples
        are exactly its keys."""
        axes = [self.ids[lv] if lv < 2 else None for lv in key_levels]
        if not axes or None in axes or len(table) != prod(map(len, axes)):
            return None
        if isinstance(table, Column):  # its values are in that order already
            return table.column if table.arity == len(axes) and all(a == table.axis for a in axes) else None
        values = list(map(table.get, product(*axes)))
        return None if None in values else values

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
        if tag in ("fst", "snd") and level == 1:
            i = tag == "snd"
            proj = self._table({p: p[i] for p in self.codes[2]}, (2,), 1, False, (tag,))
            return self._gather(proj, self._term(term[1], 2, args, env))
        if tag in ("src", "dst") and not level:
            ends = self._table({f: getattr(m, tag) for f, m in env["ends"].items()}, (1,), 0, False,
                               (tag, id(env["ends"])))
            return self._gather(ends, self._term(term[1], 1, args, env))
        if tag == "id" and level:
            return self._gather(self._table(self.gpd.identity, (0,), 1, False), self._term(term[1], 0, args, env))
        if tag == "fam" and level:
            return self._family(env[term[1]], [self._term(a, 0, args, env) for a in term[2:]])
        if tag in ("op", "ap"):
            sub = [self._term(a, level, args, env) for a in term[2:]]
            table = self._table(env[term[1]][level], (level,) * len(sub), level, tag == "op")
            return self._gather(table, *sub)
        raise ValueError(f"no {('object', 'morphism')[level]} node {term!r}")

    def _family(self, binding, args: list[int]) -> int:
        fam = binding[0]
        if isinstance(fam, _CanonicalAcomm):
            return self._canonical_acomm(fam, *args)
        return self._gather(self._table(fam.components, (0,) * len(args), 1), *args)

    def _canonical_acomm(self, fam: _CanonicalAcomm, x: int, y: int, z: int, t: int) -> int:
        """``ac._CanonicalAcomm`` at (x, y, z, t), read from its structure's
        tables as ``__missing__`` reads them: the declared border route,
        compiled like a law's, when its ingredients are not strict."""
        m = fam.m
        gpd = m.carrier
        so = self._table(m.sum_obj, (0, 0), 0)
        ident = self._table(gpd.identity, (0,), 1, False)
        if fam.is_strict():
            return self._gather(ident, self._gather(so, self._gather(so, x, y), self._gather(so, z, t)))
        args, env = [x, y, z, t], _route_env(m)
        return self._route(gpd, [self._term(leg, 1, args, env) for leg in ACOMM_UPPER.left])

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
                out = flat.take(index).astype(np.intp, copy=False)
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

    def exhaustive(self):
        n, arity = len(self.values), len(self.vars)
        if not n:
            return
        codes = np.array(self.values, np.intp)
        # a block fixes the coordinates before ``fixed`` and runs a chunk of
        # values of that one with every tail of the rest (at most BLOCK
        # instances, unless one tail is larger)
        fixed = 0
        while n ** (arity - fixed - 1) > BLOCK:
            fixed += 1
        ndim = arity - fixed
        tail = (n,) * (ndim - 1)
        chunk = min(n, max(BLOCK // n ** (ndim - 1), 1))
        starts = range(0, n, chunk)
        trailing = [codes.reshape((1,) * (i + 1) + (n,) + (1,) * (ndim - i - 2)) for i in range(ndim - 1)]

        def bound_blocks():
            for prefix in np.ndindex(*(n,) * fixed):
                head = [np.full((1,) * ndim, codes[p], np.intp) for p in prefix]
                for start in starts:
                    yield head + [codes[start:start + chunk].reshape((-1,) + (1,) * (ndim - 1))] + trailing

        for block, bad in enumerate(self._blocks(bound_blocks(), frozenset(range(fixed + 1)))):
            prefix, start = divmod(block, len(starts))
            start = starts[start]
            for first in np.flatnonzero(np.broadcast_to(bad, (min(chunk, n - start), *tail))):
                yield (prefix * n + start) * n ** (ndim - 1) + int(first)

    def sampled(self, positions: np.ndarray):
        # the values coded first (the carrier's ids): a position is a code
        codes = None if self.values == list(range(len(self.values))) else np.array(self.values, np.intp)
        count, arity = positions.shape
        starts = range(0, count, BLOCK)
        blocks = ([positions[s:s + BLOCK, i].astype(np.intp) if codes is None else codes[positions[s:s + BLOCK, i]]
                   for i in range(arity)] for s in starts)
        for start, bad in zip(starts, self._blocks(blocks, frozenset(range(arity)))):
            for first in np.flatnonzero(np.broadcast_to(bad, (min(BLOCK, count - start),))):
                yield start + int(first)


def failures(law, gpd, values, env, sample: int | None, seed: int):
    """``(position, index tuple)`` of each instance of ``law`` that does not
    hold, in order, over the full space of tuples of ``values`` (``sample``
    ``None``) or the sample of that size."""
    program = _Program(law, gpd, values, env)
    n, arity = len(values), law.arity
    if sample is None:
        return ((pos, tuple(values[p] for p in np.unravel_index(pos, (n,) * arity))) for pos in program.exhaustive())
    positions = sample_positions(n, arity, sample, seed)
    return ((pos, tuple(values[p] for p in positions[pos])) for pos in program.sampled(positions))
