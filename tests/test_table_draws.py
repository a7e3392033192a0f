"""Drawn tables: the writer against the json module.

A seeded hypothesis search draws one table, a ``groupoid.Column`` or a
dict, and puts it in place of a transformation's components in a small
document (the writer reads the block's tables only): columns of arity 0 to 4 over 1 to 3 sorted ids, and dicts whose
keys are strings, tuples of one width (0 to 4), tuples of several widths or
a mix of strings and tuples, empty ones included.  Ids are drawn from an
alphabet of a quote, a backslash, non-ASCII letters and control
characters.  ``serialize_document`` gives the text of ``json.dumps`` with
sorted keys and a two-space indent over the same rows, and the pieces
``write_document`` writes join to that text, with any number of rows
joined into a piece.
"""

import json
from itertools import product

import pytest

from twogrp import MonTransformation, document
from twogrp.document import Block, StructureDocument, serialize_document, write_document
from twogrp.functors import tau_family
from twogrp.groupoid import Column, FinGroupoid

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

IDS = st.text('"\\é\U0001d53d\x07\x1fab|', min_size=1, max_size=4)


@st.composite
def columns(draw) -> tuple[Column, list]:
    """A column of arity 0 to 4 over 1 to 3 sorted ids, and its rows."""
    axis = tuple(sorted(draw(st.sets(IDS, min_size=1, max_size=3))))
    arity = draw(st.integers(0, 4))
    keys = list(product(axis, repeat=arity))
    values = draw(st.lists(IDS, min_size=len(keys), max_size=len(keys)))
    column = Column(axis, {x: i for i, x in enumerate(axis)}, arity, tuple(values))
    return column, [[*k, v] for k, v in zip(keys, values)]


@st.composite
def dicts(draw) -> tuple[dict, list]:
    """A dict keyed by strings, tuples of one width, tuples of several
    widths or both strings and tuples, possibly empty, and its rows."""
    shape = draw(st.sampled_from(["strings", "one width", "ragged", "mixed"]))
    width = draw(st.integers(0, 4))
    tuples = st.tuples(*[IDS] * width) if shape == "one width" else st.lists(IDS, max_size=4).map(tuple)
    keys = {"strings": IDS, "one width": tuples, "ragged": tuples, "mixed": st.one_of(IDS, tuples)}[shape]
    table = draw(st.dictionaries(keys, IDS, max_size=12))
    return table, sorted([*k, v] if isinstance(k, tuple) else [k, v] for k, v in table.items())


def _document() -> StructureDocument:
    """A one-object carrier and a transformation block, whose components
    the drawn table replaces (the writer reads a block's tables only)."""
    gpd = FinGroupoid.build(["*"], [("0", "*", "*")], {("0", "0"): "0"}, {"*": "0"}, {"0": "0"})
    tr = MonTransformation(None, None, tau_family({}))
    return StructureDocument(gpd, [Block("transformation", "T", tr, {"source": "F", "target": "F"})])


DOC = _document()
DATA = json.loads(serialize_document(DOC))
TAU = DATA["structures"][0]


class _Pieces(list):
    write = list.append


@hypothesis.seed(20261020)
@hypothesis.settings(derandomize=True, database=None, max_examples=300, deadline=None)
@hypothesis.given(st.one_of(columns(), dicts()), st.sampled_from([1, 2, 5, document._ROWS]))
def test_a_drawn_table_is_written_as_the_json_module_writes_it(drawn, rows):
    table, table_rows = drawn
    DOC.block("T").obj.tau.components = table
    TAU["components"] = table_rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(document, "_ROWS", rows)
        text = serialize_document(DOC)
        pieces = _Pieces()
        write_document(DOC, pieces)
    assert text == json.dumps(DATA, sort_keys=True, indent=2) + "\n"
    assert "".join(pieces) == text
