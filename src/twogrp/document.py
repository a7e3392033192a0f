"""The structure-document file format.

A document is canonical JSON describing exactly one structure graph: one
carrier groupoid (sections ``objects``, ``morphisms``, ``compose``,
``identities``, ``inverses``) plus zero or more named structure blocks
(``kind``: sm | ac | mul | functor | transformation | tworing) whose tables
are nested key/value arrays.  Blocks reference one another by name (functors
name their endpoint structures, 2-rings their additive and multiplicative
halves), so one file answers every cross-reference.

Serialization is canonical: sorted keys, sorted table rows, blocks sorted by
name, two-space indent, trailing newline (the text of
``json.dumps(payload, sort_keys=True, indent=2)``).  ``parse`` then
``serialize`` then ``parse`` reproduces an identical document, and canonical
serialization of equal graphs is byte-identical.

Tables are handled in bulk, since a document at m=5 holds millions of ids.
Every table cell that names a declared object or morphism is stored as the
carrier's own string for that id, so a parsed table holds one string per
distinct id, not one per cell.  One reader (``_table``) reads every table
chunk by chunk: a cut table's chunks (below), or a whole-loaded table's rows
as one chunk.  A chunk is read by one lookup per cell in the map from each
declared id to that string, once its rows are lists of the expected width; a
string cell naming no declared id is kept as read.  A family table whose
keys are the tuples of the product of the carrier's sorted objects, compared
row by row with one walk of that product carried from chunk to chunk, is
kept as its value column, and ``FinGroupoid.product_table`` alone decides
whether that is a ``groupoid.Column`` or a dict; any other table is a dict.
So a family's representation depends on its rows, not on the text's layout.
A whole-loaded table whose read raises is walked row by row, so the error
names its first bad row.  Every family field is read by that reader (its
table, then its ids) and written from the structure's ``families()``, whose
names are the field names.  Id checks accept by one set difference before an
ordered walk names the first undeclared id.  Each raw table is taken out of
the loaded data as it is read, so it is freed while the parse goes on.  The
cyclic garbage collector is paused for the duration of a parse (it would
otherwise rescan the millions of fresh lists and tuples a parse allocates),
and its previous state is restored on the way out.

A canonical text's long tables are never loaded whole.  Each table whose
rows take more than ``_CHUNK`` characters is cut out of the text (its
extent and its row separators are fixed strings of the layout, and no id
can hold their raw newlines), the rest is loaded with a ``NaN`` in its
place, and the table is read in row-aligned chunks, each chunk's rows
built into the table before the next is read; a bad row raises.  A cut
family table's chunks are first matched against the writer's text of a
column: split at the row separator, each row must be the key text of the
next tuple of the product (built by ``_column_keys``, as the writer builds
it) followed by the literal of a declared id, which is looked up in a map
from literal to the carrier's string.  The first chunk that is anything
else, and every chunk after it, is loaded as JSON.  The text is held until
the parse is done.  Any other text, and any text on which that read raises
or leaves a cut unread, is loaded whole, and the whole-text read decides
every error, so each message is the same either way.

The serializer writes the same text as ``json.dumps`` with ``indent=2`` and
sorted keys, without that call's pure-Python encoder: a table's rows are
joined from precomputed cell texts, with no per-row formatting.  Each
distinct id of a table is encoded once as a key cell (its literal, comma
and the next cell's pad) and once as a value cell (its literal and the
text that closes its row and opens the next).  A column's keys, already
in product order, take at most n² strings for n ids (``_column_keys``):
one head per prefix of its leading key columns and one string per pair of
its last two, the pairs cycled against its value column, so a row is the
join of a head, a pair and a value cell.  A dict's rows join the cells of
its sorted key columns and values; a dict whose keys mix shapes is written
as its rows sorted as lists.  The text goes out in pieces, a table's rows
joined ``_ROWS`` at a time: ``write_document`` passes them to a stream,
and ``serialize_document`` joins them.
"""

from __future__ import annotations

import gc
import json
import re
from dataclasses import dataclass, field
from itertools import chain, cycle, islice, product, repeat
from json.encoder import encode_basestring_ascii
from operator import add, eq, itemgetter

from .ac import ACStructure, acomm_family
from .errors import DocumentError
from .functors import MonTransformation, StructuredFunctor, fsum_family, tau_family
from .groupoid import Column, FinGroupoid, GFunctor, NatFamily
from .monoidal import MonStructure, assoc_family, comm_family, lunit_family, runit_family
from .rings import TwoRingData, absorb_l_family, absorb_r_family, dist_l_family, dist_r_family

FORMAT = "twogrp/1"
# a canonical table whose rows take more than this many characters is read
# in row-aligned chunks of about this size
_CHUNK = 1 << 20
# rows the writer joins into one piece
_ROWS = 1 << 12

_STRUCT_KINDS = ("sm", "ac", "mul")
_ALL_KINDS = _STRUCT_KINDS + ("functor", "transformation", "tworing")
# a 2-ring's optional families, the absorbers of the AC presentation: read
# when present and not null, written null when the ring lacks them
_ABSORBERS = {"m": absorb_l_family, "n": absorb_r_family}


@dataclass
class Block:
    kind: str
    name: str
    obj: object
    refs: dict[str, str] = field(default_factory=dict)


@dataclass
class StructureDocument:
    groupoid: FinGroupoid
    blocks: list[Block]

    def block(self, name: str) -> Block:
        for b in self.blocks:
            if b.name == name:
                return b
        raise DocumentError(f"no block named {name!r}")

    def of_kind(self, *kinds: str) -> list[Block]:
        return [b for b in self.blocks if b.kind in kinds]

    def unique(self, *kinds: str) -> Block:
        found = self.of_kind(*kinds)
        if len(found) != 1:
            raise DocumentError(
                f"expected exactly one block of kind {'/'.join(kinds)}, found {len(found)}"
            )
        return found[0]


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _rows(raw, name: str, width: int) -> None:
    """Raise naming the first row of ``raw`` that is not ``width`` strings,
    if there is one: the error of a whole-loaded table whose read raised."""
    if not isinstance(raw, list):
        raise DocumentError(f"section {name!r} must be an array")
    for row in raw:
        if not isinstance(row, list) or len(row) != width or not all(isinstance(v, str) for v in row):
            raise DocumentError(f"section {name!r}: expected rows of {width} strings, got {row!r}")


def _chunk(rows, width: int, ids: dict, first: int = 0) -> list[list]:
    """Columns ``first`` on of ``rows``, each cell looked up in ``ids``: a
    string naming no declared id is kept as read, and rows that are not
    lists of ``width`` strings raise TypeError."""
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}):
        raise TypeError("not rows of the expected width")
    cells = lambda i: map(itemgetter(i), rows)
    try:
        return [list(map(ids.__getitem__, cells(i))) for i in range(first, width)]
    except KeyError:
        if not set(map(type, chain.from_iterable(rows))) <= {str}:
            raise TypeError("a cell is not a string") from None
        return [list(map(ids.get, cells(i), cells(i))) for i in range(first, width)]


def _in_product(rows, keys, arity: int) -> bool:
    """Whether the keys of ``rows`` are the next tuples of ``keys``, an
    iterator over ``product(axis, repeat=arity)`` that the caller has
    checked holds at least ``len(rows)`` more, compared row by row."""
    cells = map(itemgetter(*range(arity)), rows)
    return all(map(eq, zip(cells) if arity == 1 else cells, keys))


def _table(raw: dict, name: str, arity: int | None, ids: dict, gpd: FinGroupoid | None = None):
    """The table ``name``, taken out of ``raw``: ``{tuple(row[:arity]):
    row[arity]}``, or ``{row[0]: row[1]}`` when ``arity`` is None, with every
    cell that names a declared id stored as the carrier's own string (``ids``
    maps each declared id to it) and any other cell as read.

    A cut table's chunks, or a whole-loaded table's rows as one chunk, are
    read in turn.  A family's (``gpd`` given) whose keys are the tuples of
    the carrier's sorted objects in product order, compared row by row with
    one walk of the product, is ``gpd.product_table`` of its value column;
    any other table is a dict, the values read into a column so far
    included.  A cut family's leading chunks that hold the writer's text of
    such a column are matched against that text (``_Cut.take``) before the
    rest is parsed.  A bad row of a cut table raises, and the whole text
    decides; one of a whole-loaded table raises the error that names it."""
    width = 2 if arity is None else arity + 1
    rows = raw.pop(name)
    cut = isinstance(rows, _Cut)
    axis = gpd.objects_sorted if gpd is not None else None
    column, table = ([] if axis else None), {}
    spans = rows.take(column, axis, arity, ids) if cut and axis else None
    if axis:
        keys, total = islice(product(axis, repeat=arity), len(column), None), len(axis) ** arity
    try:
        for chunk in rows.chunks(spans) if cut else [rows]:
            if column is not None and len(column) + len(chunk) <= total and _in_product(chunk, keys, arity):
                column += _chunk(chunk, width, ids, arity)[0]
                continue
            if column is not None:
                table, column = dict(zip(product(axis, repeat=arity), column)), None
            *keys, values = _chunk(chunk, width, ids)
            table.update(zip(keys[0] if arity is None else zip(*keys), values))
    except Exception:  # of any type: a short row or an object raises in the key comparison
        if not cut:
            _rows(rows, name, width)
        raise
    if column is None:
        return table
    if len(column) == total:
        return gpd.product_table(arity, column)
    return dict(zip(product(axis, repeat=arity), column))


def _check_ids(doc_gpd: FinGroupoid, names, kind: str) -> None:
    if set(names).difference(doc_gpd.morphisms):
        for n in names:
            if n not in doc_gpd.morphisms:
                raise DocumentError(f"{kind} references undeclared morphism {n!r}")


def _family(gpd: FinGroupoid, ids: dict, raw: dict, name: str, make, *args) -> NatFamily:
    """The family ``make(components, *args)`` read from the field ``name``:
    rows of the family's arity in ids (learnt from ``make({}, *args)``, as
    ``groupoid.identity_family`` learns it) then a declared morphism."""
    fam = make({}, *args)
    fam.components = _table(raw, name, fam.arity, ids, gpd)
    _check_ids(gpd, fam.components.values(), name)
    return fam


def _parse_groupoid(data: dict) -> tuple[FinGroupoid, dict]:
    """The carrier, and the map from each declared object and morphism id
    to the carrier's own string for it."""
    for section in ("objects", "morphisms", "compose", "identities", "inverses"):
        if section not in data:
            raise DocumentError(f"missing section {section!r}")
    objects = data["objects"]
    if not isinstance(objects, list) or not all(isinstance(o, str) for o in objects):
        raise DocumentError("section 'objects' must be an array of strings")
    if len(set(objects)) != len(objects):
        raise DocumentError("duplicate object ids")
    ids = dict(zip(objects, objects))
    morrows = data.pop("morphisms")
    if not isinstance(morrows, list):
        raise DocumentError("section 'morphisms' must be an array")
    mors = []
    for row in morrows:
        if not isinstance(row, dict) or set(row) != {"id", "src", "dst"}:
            raise DocumentError(f"morphism rows are objects with id/src/dst, got {row!r}")
        if not all(isinstance(v, str) for v in row.values()):
            raise DocumentError(f"morphism rows hold string ids, got {row!r}")
        mors.append((ids.setdefault(row["id"], row["id"]), ids.get(row["src"], row["src"]),
                     ids.get(row["dst"], row["dst"])))
    if len({m[0] for m in mors}) != len(mors):
        raise DocumentError("duplicate morphism ids")
    objset = set(objects)
    for mid, src, dst in mors:
        if src not in objset or dst not in objset:
            raise DocumentError(f"morphism {mid!r} references undeclared object")
    gpd = FinGroupoid.build(
        objects,
        mors,
        _table(data, "compose", 2, ids),
        _table(data, "identities", None, ids),
        _table(data, "inverses", None, ids),
    )
    known = set(gpd.morphisms)
    for (g, f), h in gpd.compose.items():
        if not {g, f, h} <= known:
            raise DocumentError("compose table references undeclared morphism")
    for o, m in gpd.identity.items():
        if o not in objset or m not in known:
            raise DocumentError("identities table references undeclared id")
    for f, i in gpd.inverse.items():
        if f not in known or i not in known:
            raise DocumentError("inverses table references undeclared morphism")
    return gpd, ids


def _parse_sum_block(gpd: FinGroupoid, ids: dict, raw: dict, kind: str):
    op_obj = _table(raw, "op_obj", 2, ids)
    op_mor = _table(raw, "op_mor", 2, ids)
    unit = raw["unit"]
    if not isinstance(unit, str) or unit not in set(gpd.objects):
        raise DocumentError(f"unit {unit!r} is not a declared object")
    unit_id = gpd.identity.get(unit)
    if unit_id is None:
        raise DocumentError(f"unit {unit!r} has no identity morphism")
    _check_ids(gpd, op_mor.values(), "op_mor")
    l = _family(gpd, ids, raw, "l", lunit_family, unit, unit_id)
    r = _family(gpd, ids, raw, "r", runit_family, unit, unit_id)
    if kind == "ac":
        return ACStructure(gpd, op_obj, op_mor, unit, _family(gpd, ids, raw, "b", acomm_family), l, r)
    a = _family(gpd, ids, raw, "a", assoc_family)
    c = None
    if kind == "sm":
        if raw.get("c") is None:
            raise DocumentError("sm blocks carry a commutator; use kind 'mul' without one")
        c = _family(gpd, ids, raw, "c", comm_family)
    return MonStructure(gpd, op_obj, op_mor, unit, a, c, l, r)


def _require(raw: dict, keys: tuple[str, ...], kind: str) -> None:
    missing = [k for k in keys if k not in raw]
    if missing:
        raise DocumentError(f"{kind} block is missing fields {missing}")


class _Cut:
    """A long table of a canonical text: its rows run from ``start`` (the
    first row's ``[``) to ``end``, each row's brackets on lines of their own
    at the indent ``pad``."""

    def __init__(self, text: str, start: int, end: int, pad: str):
        self.text, self.start, self.end, self.pad = text, start, end, pad
        self.sep = "],\n" + pad + "["
        self.read = False

    def spans(self):
        """The extents of the rows' row-aligned runs of about ``_CHUNK``
        characters."""
        self.read = True
        text, at, end, sep = self.text, self.start, self.end, self.sep
        while (stop := text.find(sep, at + _CHUNK, end)) >= 0:
            yield at, stop + 1
            at = stop + len(sep) - 1
        yield at, end

    def chunks(self, spans=None):
        """The rows of each run of ``spans`` (by default every run), as
        lists parsed as JSON."""
        for at, stop in self.spans() if spans is None else spans:
            yield json.loads("[" + self.text[at:stop] + "]")

    def take(self, column: list, axis: tuple, arity: int, ids: dict):
        """Read into ``column`` each leading run that is the writer's text
        of the next rows of a column over ``axis``, and return the runs
        left.  Each row of such a run is the key text of the next tuple of
        the product, then the literal of a declared id, which a map from
        each declared id's literal gives as the carrier's string.  A row is
        stripped of its cell pad and key text at once, and one that does not
        open with them is left whole; a literal holds no newline and each of
        the key text's arity + 1 cells opens with one, so the run's count of
        newlines tells a row left whole from a stripped one."""
        row_pad = "\n" + self.pad
        cell_pad = row_pad + "  "
        heads, pairs = _column_keys(axis, arity, cell_pad)
        keys = chain.from_iterable(map(add, repeat(cell_pad + head), pairs) for head in heads)
        literals = dict(zip(map(encode_basestring_ascii, ids), ids.values()))
        text, sep, closing, spans = self.text, row_pad + "]," + row_pad + "[", row_pad + "]", self.spans()
        for at, stop in spans:
            if not text.endswith(closing, at, stop):
                break
            run = text[at + 1:stop - len(closing)]
            rows = run.split(sep)
            try:
                values = list(map(literals.__getitem__, map(str.removeprefix, rows, keys)))
            except KeyError:
                break
            # rows past the product's last tuple, or a row that is only a literal
            if len(values) < len(rows) or run.count("\n") != len(rows) * (arity + 3) - 2:
                break
            column += values
        else:
            return spans
        return chain([(at, stop)], spans)


_ARRAY = '": [\n'
_ROWS_OPEN = re.compile(r"( *)\[\n")


def _cut(text: str) -> tuple[str, list[_Cut]]:
    """``text`` with each table whose rows take more than ``_CHUNK``
    characters replaced by ``NaN``, and those tables in document order.
    Only the layout the serializer writes is searched: a table is an array
    whose first row opens a line with ``[``, and it ends at the first ``]``
    at its key's indent that another key follows (no canonical block ends
    with a table)."""
    kept, cuts, pos = [], [], 0
    at = text.find(_ARRAY) if text.startswith('{\n  "') else -1
    while at >= 0:
        start = at + len(_ARRAY)
        rows = _ROWS_OPEN.match(text, start)
        if rows is None:  # objects, morphisms, structures: search inside
            at = text.find(_ARRAY, start)
            continue
        pad = rows.group(1)
        end = text.find("\n" + pad[2:] + "],\n" + pad[2:] + '"', start)
        if end < 0:
            break
        if end - start > _CHUNK:
            kept += (text[pos:start - 2], "NaN")
            cuts.append(_Cut(text, rows.end() - 2, end, pad))
            pos = end + len(pad)
        at = text.find(_ARRAY, end)
    kept.append(text[pos:])
    return "".join(kept), cuts


def _parse_cut(text: str) -> StructureDocument | None:
    """The document with its long tables read chunk by chunk from ``text``,
    or None when it has none.  Anything else raises: a constant in the text
    besides the cuts' ``NaN`` runs ``next`` past the cuts, and a cut that no
    table read could hide a fault the whole text would show."""
    rest, cuts = _cut(text)
    if not cuts:
        return None
    found = iter(cuts)
    doc = _parse(json.loads(rest, parse_constant=lambda _: next(found)))
    if not all(cut.read for cut in cuts):
        raise DocumentError("a long table was not read")
    return doc


def parse_document(text: str) -> StructureDocument:
    """Parse a document, verifying every reference; raises
    :class:`DocumentError` with position info on syntax errors.  A canonical
    text's long tables are read in chunks; any other text, and any text on
    which that read fails, is read whole, so every error comes from the
    whole-text read."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            doc = _parse_cut(text)
        except Exception:  # of any type: the whole-text read below reports it, or parses
            doc = None
        if doc is not None:
            return doc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise DocumentError(f"invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}") from err
        del text
        return _parse(data)
    except RecursionError as err:  # from json.loads, or from the repr of a bad row
        raise DocumentError("JSON nests too deeply") from err
    finally:
        if collecting:
            gc.enable()


def _parse(data) -> StructureDocument:
    if not isinstance(data, dict):
        raise DocumentError("document root must be an object")
    if data.get("format") != FORMAT:
        raise DocumentError(f"unknown format {data.get('format')!r}; expected {FORMAT!r}")
    gpd, ids = _parse_groupoid(data)

    raw_blocks = data.get("structures", [])
    if not isinstance(raw_blocks, list):
        raise DocumentError("section 'structures' must be an array")
    for raw in raw_blocks:
        if not isinstance(raw, dict) or not isinstance(raw.get("name"), str):
            raise DocumentError("structure blocks are objects with a 'name'")
        if raw.get("kind") not in _ALL_KINDS:
            raise DocumentError(f"unknown block kind {raw.get('kind')!r}")
    names = [raw["name"] for raw in raw_blocks]
    if len(set(names)) != len(names):
        raise DocumentError("duplicate block names")

    doc = StructureDocument(gpd, [])
    # carrier-level structures first, then functors, then the rest
    order = {"sm": 0, "ac": 0, "mul": 0, "functor": 1, "transformation": 2, "tworing": 2}
    for raw in sorted(raw_blocks, key=lambda r: order[r["kind"]]):
        kind, name = raw["kind"], raw["name"]
        if kind in _STRUCT_KINDS:
            keys = ("op_obj", "op_mor", "unit", "l", "r") + (("b",) if kind == "ac" else ("a",))
            _require(raw, keys, kind)
            doc.blocks.append(Block(kind, name, _parse_sum_block(gpd, ids, raw, kind)))
        elif kind == "functor":
            _require(raw, ("source", "target", "obj_map", "mor_map", "fsum"), kind)
            for ref in (raw["source"], raw["target"]):
                if doc.block(ref).kind not in _STRUCT_KINDS:
                    raise DocumentError(f"functor {name!r} endpoint {ref!r} is not a structure block")
            obj_map = _table(raw, "obj_map", None, ids)
            mor_map = _table(raw, "mor_map", None, ids)
            _check_ids(gpd, mor_map.values(), "mor_map")
            fsum = _family(gpd, ids, raw, "fsum", fsum_family)
            fzero = raw.get("fzero")
            if fzero is not None and (not isinstance(fzero, str) or fzero not in gpd.morphisms):
                raise DocumentError(f"fzero {fzero!r} is not a declared morphism")
            fun = StructuredFunctor(GFunctor(gpd, gpd, obj_map, mor_map), fsum, fzero)
            doc.blocks.append(Block(kind, name, fun, {"source": raw["source"], "target": raw["target"]}))
        elif kind == "transformation":
            _require(raw, ("source", "target", "components"), kind)
            fsrc = doc.block(raw["source"])
            ftgt = doc.block(raw["target"])
            if fsrc.kind != "functor" or ftgt.kind != "functor":
                raise DocumentError(f"transformation {name!r} endpoints must be functor blocks")
            tr = MonTransformation(fsrc.obj, ftgt.obj, _family(gpd, ids, raw, "components", tau_family))
            doc.blocks.append(Block(kind, name, tr, {"source": raw["source"], "target": raw["target"]}))
        else:  # tworing
            _require(raw, ("add", "mul", "d", "e"), kind)
            add_blk = doc.block(raw["add"])
            mul_blk = doc.block(raw["mul"])
            if add_blk.kind not in ("sm", "ac") or mul_blk.kind != "mul":
                raise DocumentError(f"tworing {name!r} needs an sm/ac 'add' and a mul 'mul'")
            zero = add_blk.obj.unit
            d = _family(gpd, ids, raw, "d", dist_l_family)
            e = _family(gpd, ids, raw, "e", dist_r_family)
            m, n = (_family(gpd, ids, raw, f, make, zero, gpd.identity[zero]) if raw.get(f) is not None else None
                    for f, make in _ABSORBERS.items())
            ring = TwoRingData(gpd, add_blk.obj, mul_blk.obj, d, e, m, n)
            doc.blocks.append(Block(kind, name, ring, {"add": raw["add"], "mul": raw["mul"]}))
    doc.blocks.sort(key=lambda b: (order[b.kind], b.name))
    return doc


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Table:
    """A key/value table, emitted as its rows ``[*key, value]`` in sorted
    order (a string key is a key of one id)."""

    entries: dict


class _Codes(dict):
    """JSON string literals by value, each encoded once and followed by
    ``tail``."""

    def __init__(self, tail: str = ""):
        super().__init__()
        self.tail = tail

    def __missing__(self, value: str) -> str:
        code = self[value] = encode_basestring_ascii(value) + self.tail
        return code


def _emit(value, level: int, write, codes: _Codes) -> None:
    """Pass the ``json.dumps(value, sort_keys=True, indent=2)`` text of
    ``value`` nested ``level`` deep to ``write``, in pieces."""
    if isinstance(value, str):
        write(codes[value])
    elif value is None:
        write("null")
    elif isinstance(value, _Table):
        _emit_table(value.entries, level, write, codes)
    elif isinstance(value, (dict, list)):
        is_dict = isinstance(value, dict)
        opening, closing = "{}" if is_dict else "[]"
        items = sorted(value.items()) if is_dict else [(None, item) for item in value]
        if not items:
            write(opening + closing)
            return
        pad = "\n" + "  " * (level + 1)
        write(opening)
        for pos, (key, item) in enumerate(items):
            write("," + pad if pos else pad)
            if is_dict:
                write(codes[key] + ": ")
            _emit(item, level + 1, write, codes)
        write("\n" + "  " * level + closing)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _column_keys(axis, arity: int, cell_pad: str):
    """The key text of the rows of a column over ``axis`` in product order,
    each key cell a literal, a comma and ``cell_pad``: the heads, one per
    prefix of all but the last two key columns, and the list of pairs, one
    per pair of the last two.  A row's key text is its head then its pair."""
    key = _Codes("," + cell_pad)
    codes = list(map(key.__getitem__, axis))
    last = min(arity, 2)
    return map("".join, product(codes, repeat=arity - last)), list(map("".join, product(codes, repeat=last)))


def _emit_table(entries, level: int, write, codes: _Codes) -> None:
    if not entries:
        write("[]")
        return
    row_pad = "\n" + "  " * (level + 1)
    cell_pad = row_pad + "  "
    # a row is its key cells, each ending in its comma and the next cell's
    # pad, then its value cell, which ends in the opening of the next row
    key, value = _Codes("," + cell_pad), _Codes(row_pad + "]," + row_pad + "[" + cell_pad)
    if isinstance(entries, Column):
        # its keys in order, the product of the sorted ids: each head once
        # per pair of the last two ids
        heads, pairs = _column_keys(entries.axis, entries.arity, cell_pad)
        cells = [chain.from_iterable(map(repeat, heads, repeat(len(pairs)))), cycle(pairs),
                 map(value.__getitem__, entries.column)]
    else:
        kinds = set(map(type, entries))
        widths = set(map(len, entries)) if kinds == {tuple} else set()
        if kinds != {str} and len(widths) != 1:  # mixed key shapes: sort the rows themselves, as lists
            rows = sorted([*k, v] if isinstance(k, tuple) else [k, v] for k, v in entries.items())
            _emit(rows, level, write, codes)
            return
        keys = sorted(entries)
        columns = [keys] if kinds == {str} else [map(itemgetter(i), keys) for i in range(widths.pop())]
        cells = [*(map(key.__getitem__, column) for column in columns),
                 map(value.__getitem__, map(entries.__getitem__, keys))]
    rows = zip(*cells)
    write("[" + row_pad + "[" + cell_pad)
    for _ in range(_ROWS, len(entries), _ROWS):  # rows joined in blocks, not all at once
        write("".join(chain.from_iterable(islice(rows, _ROWS))))
    last_rows = "".join(chain.from_iterable(rows))
    write(last_rows[:len(last_rows) - len(value.tail)] + row_pad + "]\n" + "  " * level + "]")


def _tables(families: dict) -> dict:
    """Each family's components as a table under the family's name, which
    is its field name in the document."""
    return {name: _Table(fam.components) for name, fam in families.items()}


def _block_payload(doc: StructureDocument, blk: Block) -> dict:
    if blk.kind in _STRUCT_KINDS:
        s = blk.obj
        return {
            "kind": blk.kind,
            "name": blk.name,
            "op_obj": _Table(s.sum_obj),
            "op_mor": _Table(s.sum_mor),
            "unit": s.unit,
            **_tables(s.families()),
        }
    if blk.kind == "functor":
        fun: StructuredFunctor = blk.obj
        return {
            "kind": "functor",
            "name": blk.name,
            "source": blk.refs["source"],
            "target": blk.refs["target"],
            "obj_map": _Table(fun.base.obj_map),
            "mor_map": _Table(fun.base.mor_map),
            "fsum": _Table(fun.fsum.components),
            "fzero": fun.fzero,
        }
    if blk.kind == "transformation":
        tr: MonTransformation = blk.obj
        return {
            "kind": "transformation",
            "name": blk.name,
            "source": blk.refs["source"],
            "target": blk.refs["target"],
            "components": _Table(tr.tau.components),
        }
    ring: TwoRingData = blk.obj
    return {
        "kind": "tworing",
        "name": blk.name,
        "add": blk.refs["add"],
        "mul": blk.refs["mul"],
        **dict.fromkeys(_ABSORBERS),
        **_tables(ring.families()),
    }


def _write(doc: StructureDocument, write) -> None:
    gpd = doc.groupoid
    payload = {
        "format": FORMAT,
        "objects": sorted(gpd.objects),
        "morphisms": [
            {"id": mid, "src": gpd.morphisms[mid].src, "dst": gpd.morphisms[mid].dst}
            for mid in sorted(gpd.morphisms)
        ],
        "compose": _Table(gpd.compose),
        "identities": _Table(gpd.identity),
        "inverses": _Table(gpd.inverse),
        "structures": [
            _block_payload(doc, blk) for blk in sorted(doc.blocks, key=lambda b: b.name)
        ],
    }
    _emit(payload, 0, write, _Codes())
    write("\n")


def write_document(doc: StructureDocument, fh) -> None:
    """Write the canonical serialization of ``doc`` to the text stream
    ``fh`` in pieces, so that its whole text is never held at once."""
    _write(doc, fh.write)


def serialize_document(doc: StructureDocument) -> str:
    """Canonical serialization: stable ordering everywhere, sorted keys."""
    out: list[str] = []
    _write(doc, out.append)
    return "".join(out)
