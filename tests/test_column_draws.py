"""Drawn family tables: the column read, cut or whole, against the dict read.

A seeded hypothesis search draws small documents in the canonical layout
over object ids from an alphabet of a quote, a backslash, non-ASCII letters
and control characters.  The one drawn family table is total, misses a row,
has two rows swapped, has a row past the last key of the product, or holds
a key or value the carrier does not declare; or one of its rows is short,
has an extra cell, has a number for its value, writes a declared id with
another valid escape, or follows its ``[`` on one line (all its cells, or
its value only).  With ``_CHUNK`` and
``KERNEL_FLOOR`` lowered, the drawn table is a column exactly when it is
total, cut or loaded whole, and the parse gives the same document, or the
same error text, as the whole-text read at the real floor: the defects that
the text read of a cut table does not take are read as JSON.
"""

import json
from itertools import product

import pytest
from test_chunked_read import outcome, whole
from test_table_draws import ALPHABET, PHASES

from twogrp import diagram, document
from twogrp.document import serialize_document
from twogrp.groupoid import Column

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# object ids: a morphism's id is "1|" and its object's, so no object id holds "|"
OBJECT_IDS = st.text(ALPHABET.replace("|", ""), min_size=1, max_size=4)
# a declared id whose row is written with another escape holds this until the text is written
HELD = "zz held"
# defects of one row that the whole-text read reports as a row that is not ``arity + 1`` strings
ROW_DEFECTS = ("short row", "extra cell", "number value", "one-line short row")
KINDS = ("total", "missing", "swapped", "row past the product", "key outside", "value outside", *ROW_DEFECTS,
         "other escape", "one-line row")
# the kinds whose table is total, and whose document the canonical text writes
TOTAL = ("total", "other escape", "one-line row")


def other_escape(value: str) -> str:
    """A JSON literal of ``value`` with every UTF-16 code unit written as a
    ``\\u`` escape in upper-case hex."""
    units = value.encode("utf-16-be")
    return '"' + "".join(f"\\u{int.from_bytes(units[i:i + 2], 'big'):04X}" for i in range(0, len(units), 2)) + '"'


@st.composite
def drawn_documents(draw) -> tuple[str, str, str, str]:
    """``(kind, field, text, canonical)``: a canonical document over 1 to 3
    objects (identities only) with one symmetric structure, one family table
    of which is drawn (``kind``, one of ``KINDS``), and the canonical text
    of that document (``text`` itself unless a declared id is written with
    another escape or a row on one line)."""
    objects = sorted(draw(st.sets(OBJECT_IDS, min_size=1, max_size=3)))
    ids = [f"1|{x}" for x in objects]
    ident = dict(zip(objects, ids))
    field, arity = draw(st.sampled_from([("a", 3), ("c", 2), ("l", 1), ("r", 1)]))

    def identity_rows(k, at=lambda key: ident[key[0]]):
        return [[*key, at(key)] for key in product(objects, repeat=k)]

    block = {"kind": "sm", "name": "add", "unit": objects[0], "op_obj": identity_rows(2, lambda key: key[0]),
             "op_mor": [[f, f, f] for f in ids], "a": identity_rows(3), "c": identity_rows(2),
             "l": identity_rows(1), "r": identity_rows(1)}
    rows = [[*key, draw(st.sampled_from(ids))] for key in product(objects, repeat=arity)]
    kind = draw(st.sampled_from(KINDS))
    at = draw(st.integers(0, len(rows) - 1))
    cell = draw(st.integers(0, arity))
    held = None
    if kind == "missing":
        del rows[at]
    elif kind == "swapped" and len(rows) > 1:
        other = draw(st.integers(0, len(rows) - 1).filter(lambda i: i != at))
        rows[at], rows[other] = rows[other], rows[at]
    elif kind == "swapped":
        kind = "total"
    elif kind == "row past the product":
        rows.append([*rows[at][:arity], draw(st.sampled_from(ids))])
    elif kind in ("key outside", "value outside"):
        rows[at][draw(st.integers(0, arity - 1)) if kind == "key outside" else arity] = "zz"
    elif kind == "short row":
        del rows[at][cell]
    elif kind == "extra cell":
        rows[at].append(draw(st.sampled_from(ids)))
    elif kind == "number value":
        rows[at][arity] = 7
    elif kind == "other escape":
        if other_escape(rows[at][cell]) == json.dumps(rows[at][cell]):  # an id of characters escaped by digits
            cell = arity
        held, rows[at][cell] = rows[at][cell], HELD
    block[field] = rows
    data = {"compose": [[f, f, f] for f in ids], "format": document.FORMAT,
            "identities": [[x, ident[x]] for x in objects], "inverses": [[f, f] for f in ids],
            "morphisms": [{"dst": x, "id": ident[x], "src": x} for x in objects],
            "objects": objects, "structures": [block]}
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    if kind in ("one-line row", "one-line short row"):
        written = json.dumps(rows[at], indent=2).replace("\n", "\n" + " " * 8)
        row_at = text.index(written, text.index(f'      "{field}": [\n'))
        cells = rows[at] if kind == "one-line row" else rows[at][arity:]
        inline = "[" + ", ".join(map(json.dumps, cells)) + "\n" + " " * 8 + "]"
        return kind, field, text[:row_at] + inline + text[row_at + len(written):], text
    if held is None:
        return kind, field, text, text
    literal = json.dumps(HELD)
    return kind, field, text.replace(literal, other_escape(held)), text.replace(literal, json.dumps(held))


@hypothesis.seed(20261020)
@hypothesis.settings(derandomize=True, database=None, max_examples=400, deadline=None, phases=PHASES)
@hypothesis.given(drawn_documents(), st.sampled_from([0, 1, 40, 200]))
def test_a_drawn_family_table_reads_as_the_whole_text_does(drawn, chunk):
    kind, field, text, canonical = drawn
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(document, "_CHUNK", chunk)
        mp.setattr(diagram, "KERNEL_FLOOR", 0)
        got = outcome(text)
    assert got == whole(text)
    if kind == "value outside":
        assert got == f"DocumentError: {field} references undeclared morphism 'zz'"
        return
    if kind in ROW_DEFECTS:
        assert got.startswith(f"DocumentError: section {field!r}: expected rows of ")
        return
    column = isinstance(got.block("add").obj.families()[field].components, Column)
    assert column is (kind in TOTAL)
    if kind in ("missing", *TOTAL):
        assert serialize_document(got) == canonical
