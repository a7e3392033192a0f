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
distinct id, not one per cell.  A table is read by one lookup per cell in
the map from each declared id to that string, once its rows are lists of
the expected width; a table that fails this (a bad row, or a cell naming no
declared id) is checked by three set-valued passes (row types, row widths,
cell types) and, when they fail, walked row by row, so the error names its
first bad row; a cell that is a string but no declared id is kept as read.
Every family field is read by one reader (its table, then its ids) and
written from the structure's ``families()``, whose names are the field
names.  Id checks accept by one set difference before an ordered walk
names the first undeclared id.  Each raw table is taken out of the loaded
data as it is read, so it is freed while the parse goes on.  The cyclic
garbage collector is paused for the duration of a parse (it would
otherwise rescan the millions of fresh lists and tuples a parse
allocates), and its previous state is restored on the way out.

A canonical text's long tables are never loaded whole.  Each table whose
rows take more than ``_CHUNK`` characters is cut out of the text (its
extent and its row separators are fixed strings of the layout, and no id
can hold their raw newlines), the rest is loaded with a ``NaN`` in its
place, and the table is loaded in row-aligned chunks, each chunk's rows
built into the table before the next is read.  A cut family table whose
key columns equal those of the product of the carrier's sorted objects,
compared chunk by chunk without building a key, is kept as its value column
(``FinGroupoid.product_table``: a ``groupoid.Column`` at ``KERNEL_FLOOR``
entries or more, a dict below); any other table is a dict, and a string
cell naming no declared id is kept as read, as the whole-text read keeps
it.  The text is held until the parse is done.  Any other text, and any
text on which that read raises or leaves a cut unread, is loaded whole, and
the whole-text read decides every error, so each message is the same
either way.

The serializer writes the same text as ``json.dumps`` with ``indent=2`` and
sorted keys, without that call's pure-Python encoder: each table is emitted
as one row template filled from the sorted keys (a column's from the
product of its encoded ids, already in order), with every distinct id
encoded once.  The text goes out in pieces, a table's rows joined
``_ROWS`` at a time: ``write_document`` passes them to a stream, and
``serialize_document`` joins them.
"""

from __future__ import annotations

import gc
import json
import re
from dataclasses import dataclass, field
from itertools import chain, islice, product
from json.encoder import encode_basestring_ascii
from operator import itemgetter

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


def _rows(raw, name: str, width: int) -> list[list[str]]:
    if not isinstance(raw, list):
        raise DocumentError(f"section {name!r} must be an array")
    if (set(map(type, raw)) <= {list} and set(map(len, raw)) <= {width}
            and set(map(type, chain.from_iterable(raw))) <= {str}):
        return raw
    for row in raw:  # the row-by-row walk names the first bad row
        if not isinstance(row, list) or len(row) != width or not all(isinstance(v, str) for v in row):
            raise DocumentError(f"section {name!r}: expected rows of {width} strings, got {row!r}")
    return raw


def _pairs(columns: list, arity: int | None):
    """``(key, value)`` pairs from a table's columns, the last being the
    values."""
    values = columns.pop()
    return zip(columns[0] if arity is None else zip(*columns), values)


def _declared(rows, width: int, ids: dict, first: int = 0, kept: bool = False) -> list:
    """Columns ``first`` on of ``rows``, each cell looked up in ``ids``;
    reading them raises KeyError or TypeError unless the rows are lists of
    ``width`` declared ids.  With ``kept``, a cell naming no declared id is
    kept as read."""
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}):
        raise TypeError("not rows of the expected width")
    cells = lambda i: map(itemgetter(i), rows)
    return [map(ids.get, cells(i), cells(i)) if kept else map(ids.__getitem__, cells(i)) for i in range(first, width)]


def _chunk(rows, width: int, ids: dict, first: int = 0) -> list[list]:
    """``_declared`` of a chunk of a cut table, read: a string naming no
    declared id is kept as read, as the whole-text read keeps it, and any
    other cell raises TypeError."""
    try:
        return list(map(list, _declared(rows, width, ids, first)))
    except KeyError:
        if not set(map(type, chain.from_iterable(rows))) <= {str}:
            raise TypeError("a cell is not a string") from None
        return list(map(list, _declared(rows, width, ids, first, kept=True)))


def _product_column(axis: tuple, arity: int, j: int, start: int, stop: int) -> list:
    """Coordinate ``j`` of the tuples at positions ``start`` to ``stop`` of
    ``product(axis, repeat=arity)``: each id repeated ``run`` times, over and
    over, built from whole runs or, when they are short, whole periods."""
    n, run = len(axis), len(axis) ** (arity - 1 - j)
    cells: list = []
    if run < n:
        period = [x for x in axis for _ in range(run)]
        skip = start % len(period)
        cells = period * -(-(skip + stop - start) // len(period))
    else:
        skip = start % run
        for q in range(start // run, -(-stop // run)):
            cells += [axis[q % n]] * run
    return cells[skip:skip + stop - start]


def _in_product(rows, axis: tuple, arity: int, start: int) -> bool:
    """Whether the keys of ``rows`` are the tuples at positions ``start``
    on of ``product(axis, repeat=arity)``, compared column by column."""
    stop = start + len(rows)
    return stop <= len(axis) ** arity and all(
        _product_column(axis, arity, j, start, stop) == list(map(itemgetter(j), rows)) for j in range(arity))


def _read_cut(cut: "_Cut", width: int, arity: int | None, ids: dict, gpd: FinGroupoid | None):
    """A cut table, read chunk by chunk.  A family's (``gpd`` given) whose
    keys are the tuples of the carrier's sorted objects in product order,
    compared chunk by chunk and never built, is its value column when
    ``gpd.keeps_columns``; any other table is a dict, the values read into
    a column so far included."""
    axis = gpd.objects_sorted if gpd is not None and gpd.keeps_columns(arity) else None
    column, table = ([] if axis else None), {}
    for chunk in cut.chunks():
        if column is not None and _in_product(chunk, axis, arity, len(column)):
            column += _chunk(chunk, width, ids, arity)[0]
            continue
        if column is not None:
            table, column = dict(zip(product(axis, repeat=arity), column)), None
        table.update(_pairs(_chunk(chunk, width, ids), arity))
    if column is not None and len(column) == len(axis) ** arity:
        return gpd.product_table(arity, column)
    return table if column is None else dict(zip(product(axis, repeat=arity), column))


def _table(raw: dict, name: str, arity: int | None, ids: dict, gpd: FinGroupoid | None = None):
    """The table ``name``, taken out of ``raw``: ``{tuple(row[:arity]):
    row[arity]}``, or ``{row[0]: row[1]}`` when ``arity`` is None, with every
    cell that names a declared id stored as the carrier's own string (``ids``
    maps each declared id to it) and any other cell as read.  A cut table
    of a family over ``gpd`` may be a column (``_read_cut``)."""
    width = 2 if arity is None else arity + 1
    rows = raw.pop(name)
    if isinstance(rows, _Cut):  # a row that is not strings of the width raises: the whole text decides
        return _read_cut(rows, width, arity, ids, gpd)
    try:  # rows of declared ids: one lookup per cell
        return dict(_pairs(_declared(rows, width, ids), arity))
    except (KeyError, TypeError):
        pass
    rows = _rows(rows, name, width)
    return dict(_pairs(_declared(rows, width, ids, kept=True), arity))


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
    first row's ``[``) to ``end``, separated by ``sep``."""

    def __init__(self, text: str, start: int, end: int, sep: str):
        self.text, self.start, self.end, self.sep = text, start, end, sep
        self.read = False

    def chunks(self):
        """The rows, as lists parsed from row-aligned runs of about
        ``_CHUNK`` characters."""
        self.read = True
        text, at, end, sep = self.text, self.start, self.end, self.sep
        while (stop := text.find(sep, at + _CHUNK, end)) >= 0:
            yield json.loads("[" + text[at:stop + 1] + "]")
            at = stop + len(sep) - 1
        yield json.loads("[" + text[at:end] + "]")


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
            cuts.append(_Cut(text, rows.end() - 2, end, "],\n" + pad + "["))
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
    """JSON string literals by value, each encoded once."""

    def __missing__(self, value: str) -> str:
        code = self[value] = encode_basestring_ascii(value)
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


def _emit_table(entries, level: int, write, codes: _Codes) -> None:
    if isinstance(entries, Column) and entries:  # its keys in order: the product of the sorted ids
        width = entries.arity + 1
        keys = product(list(map(codes.__getitem__, entries.axis)), repeat=entries.arity)
        cells = map(tuple.__add__, keys, zip(map(codes.__getitem__, entries.column)))
    else:
        keys = sorted(entries)
        kinds = set(map(type, keys))
        widths = set(map(len, keys)) if kinds == {tuple} else set()
        if kinds == {str}:
            columns = [keys]
        elif len(widths) == 1:
            columns = [map(itemgetter(i), keys) for i in range(widths.pop())]
        else:  # no rows, or mixed key shapes: sort the rows themselves, as lists
            rows = sorted([*k, v] if isinstance(k, tuple) else [k, v] for k, v in entries.items())
            _emit(rows, level, write, codes)
            return
        columns.append(map(entries.__getitem__, keys))
        width = len(columns)
        cells = zip(*[map(codes.__getitem__, column) for column in columns])
    row_pad = "\n" + "  " * (level + 1)
    cell_pad = row_pad + "  "
    row = "[" + cell_pad + ("%s," + cell_pad) * (width - 1) + "%s" + row_pad + "]"
    rows = map(row.__mod__, cells)
    joint = "," + row_pad
    write("[" + row_pad)
    for start in range(0, len(entries), _ROWS):  # rows joined in blocks, not all at once
        write((joint if start else "") + joint.join(islice(rows, _ROWS)))
    write("\n" + "  " * level + "]")


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
