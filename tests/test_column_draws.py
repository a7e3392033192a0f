"""Drawn family tables: the column read, cut or whole, against the dict read.

A seeded hypothesis search draws small documents in the canonical layout
whose one drawn family table is total, misses a row, has two rows swapped,
or holds a key or value the carrier does not declare.  With ``_CHUNK`` and
``KERNEL_FLOOR`` lowered, the drawn table is a column exactly when it is
total, cut or loaded whole, and the parse gives the same document, or the
same error text, as the whole-text read at the real floor.
"""

import json
from itertools import product

import pytest
from test_chunked_read import outcome, whole

from twogrp import diagram, document
from twogrp.document import serialize_document
from twogrp.groupoid import Column

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def drawn_documents(draw) -> tuple[str, str, str]:
    """``(kind, field, text)``: a canonical document over 1 to 3 objects
    (identities only) with one symmetric structure, one family table of
    which is drawn (``kind``): total, with a row missing, two rows swapped,
    or a key or value that the carrier does not declare."""
    objects = [f"x{i}" for i in range(draw(st.integers(1, 3)))]
    ids = [f"1|{x}" for x in objects]
    ident = dict(zip(objects, ids))
    field, arity = draw(st.sampled_from([("a", 3), ("c", 2), ("l", 1), ("r", 1)]))

    def identity_rows(k, at=lambda key: ident[key[0]]):
        return [[*key, at(key)] for key in product(objects, repeat=k)]

    block = {"kind": "sm", "name": "add", "unit": objects[0], "op_obj": identity_rows(2, lambda key: key[0]),
             "op_mor": [[f, f, f] for f in ids], "a": identity_rows(3), "c": identity_rows(2),
             "l": identity_rows(1), "r": identity_rows(1)}
    rows = [[*key, draw(st.sampled_from(ids))] for key in product(objects, repeat=arity)]
    kind = draw(st.sampled_from(["total", "missing", "swapped", "key outside", "value outside"]))
    at = draw(st.integers(0, len(rows) - 1))
    if kind == "missing":
        del rows[at]
    elif kind == "swapped" and len(rows) > 1:
        other = draw(st.integers(0, len(rows) - 1).filter(lambda i: i != at))
        rows[at], rows[other] = rows[other], rows[at]
    elif kind == "swapped":
        kind = "total"
    elif kind in ("key outside", "value outside"):
        rows[at][draw(st.integers(0, arity - 1)) if kind == "key outside" else arity] = "zz"
    block[field] = rows
    data = {"compose": [[f, f, f] for f in ids], "format": document.FORMAT,
            "identities": [[x, ident[x]] for x in objects], "inverses": [[f, f] for f in ids],
            "morphisms": [{"dst": x, "id": ident[x], "src": x} for x in objects],
            "objects": objects, "structures": [block]}
    return kind, field, json.dumps(data, sort_keys=True, indent=2) + "\n"


@hypothesis.seed(20261020)
@hypothesis.settings(derandomize=True, database=None, max_examples=200, deadline=None)
@hypothesis.given(drawn_documents(), st.sampled_from([0, 1, 40, 200]))
def test_a_drawn_family_table_reads_as_the_whole_text_does(drawn, chunk):
    kind, field, text = drawn
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(document, "_CHUNK", chunk)
        mp.setattr(diagram, "KERNEL_FLOOR", 0)
        got = outcome(text)
    assert got == whole(text)
    if kind == "value outside":
        assert got == f"DocumentError: {field} references undeclared morphism 'zz'"
        return
    assert isinstance(got.block("add").obj.families()[field].components, Column) is (kind == "total")
    if kind in ("total", "missing"):
        assert serialize_document(got) == text
