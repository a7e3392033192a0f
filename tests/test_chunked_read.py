"""The chunked read of long tables against the whole-text read.

``parse_document`` cuts each table whose rows take more than
``document._CHUNK`` characters out of a canonical text and reads it in
row-aligned chunks; any other text, and any text on which that read fails,
is read whole.  The tests lower ``_CHUNK`` so that the small pinned
documents have long tables and multi-chunk reads, and hold the chunked read
to the whole-text read: the same documents, the same bytes written back and
the same error text.  The writer tests hold every way the CLI writes a
document to ``serialize_document``.
"""

import contextlib
import io
import json
from itertools import chain, product

import pytest
from test_document_digests import written_documents
from test_parse_mutations import PINNED as MUTATIONS_PINNED
from test_parse_mutations import pinned_mutation_outcomes

from twogrp import diagram, document
from twogrp.cli import main
from twogrp.document import parse_document, serialize_document
from twogrp.errors import DocumentError
from twogrp.groupoid import Column

CHUNK = 300  # a few rows: most tables of the pinned documents are long, the shortest are not


@pytest.fixture(scope="module")
def texts(tmp_path_factory) -> dict[str, str]:
    """The canonical text of every pinned document, by name."""
    return {name: path.read_text(encoding="utf-8")
            for name, path in written_documents(tmp_path_factory.mktemp("docs"))}


def canonical(data) -> str:
    """The canonical layout of ``data`` read from a canonical text: its
    keys are sorted already, and a key added since stays last."""
    return json.dumps(data, indent=2) + "\n"


def outcome(text: str):
    """The parsed document, or the text of the error the parse raised."""
    try:
        return parse_document(text)
    except DocumentError as err:
        return f"DocumentError: {err}"


def whole(text: str):
    """``outcome`` with no table long enough to be cut."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(document, "_CHUNK", len(text))
        return outcome(text)


@pytest.fixture
def reads(monkeypatch) -> list:
    """With ``_CHUNK`` lowered, the read each parse took, in order: the
    cuts of a chunked read, ``"whole"`` for a text with none, or
    ``"fallback"`` when the chunked read raised."""
    monkeypatch.setattr(document, "_CHUNK", CHUNK)
    taken, cut, parse_cut = [], document._cut, document._parse_cut

    def spy_cut(text):
        rest, cuts = cut(text)
        taken.append(cuts)
        return rest, cuts

    def spy_parse_cut(text):
        try:
            doc = parse_cut(text)
        except Exception:
            taken[-1] = "fallback"
            raise
        if doc is None:
            taken[-1] = "whole"
        return doc

    monkeypatch.setattr(document, "_cut", spy_cut)
    monkeypatch.setattr(document, "_parse_cut", spy_parse_cut)
    return taken


def long_tables(text: str, chunk: int) -> list[list]:
    """The rows of every table of ``text`` whose rows take more than
    ``chunk`` characters in the canonical layout, in document order: the
    carrier's tables at one level of indent, each block's at three."""
    data = json.loads(text)
    tables = [(1, data[key]) for key in ("compose", "identities", "inverses")]
    tables += [(3, rows) for blk in data["structures"] for _, rows in sorted(blk.items())
               if isinstance(rows, list) and rows and isinstance(rows[0], list)]
    out = []
    for level, rows in tables:
        lines = json.dumps(rows, indent=2)[2:-2].split("\n")  # the rows, without the brackets
        if sum(map(len, lines)) + (len(lines) - 1) + 2 * level * len(lines) > chunk:
            out.append(rows)
    return out


def families(doc):
    """``((block, field), family)`` for every family of ``doc``."""
    for blk in doc.blocks:
        if blk.kind == "functor":
            fams = {"fsum": blk.obj.fsum}
        elif blk.kind == "transformation":
            fams = {"components": blk.obj.tau}
        else:
            fams = blk.obj.families()
        yield from (((blk.name, field), fam) for field, fam in fams.items())


# -- parity ---------------------------------------------------------------------


def test_every_pinned_document_has_long_tables_and_some_have_short_ones(texts):
    assert all(long_tables(text, CHUNK) for text in texts.values())
    assert any(len(long_tables(text, CHUNK)) < len(long_tables(text, 0)) for text in texts.values())


def test_the_chunked_read_gives_the_whole_text_document_and_bytes(texts, reads):
    for name, text in texts.items():
        doc = parse_document(text)
        assert reads[-1] not in ("whole", "fallback"), name
        assert serialize_document(doc) == text, name
        assert doc == whole(text), name


@pytest.mark.parametrize("chunk", [0, CHUNK, 10 * CHUNK])
def test_every_long_table_of_a_canonical_document_is_read_in_chunks(texts, reads, monkeypatch, chunk):
    """The layout pin: a serializer change that moves a table out of the
    chunked read fails here."""
    monkeypatch.setattr(document, "_CHUNK", chunk)
    for name, text in texts.items():
        parse_document(text)
        assert reads[-1] != "fallback", name
        cuts = [] if reads[-1] == "whole" else reads[-1]
        assert [list(chain(*cut.chunks())) for cut in cuts] == long_tables(text, chunk), name


@pytest.mark.parametrize("indent", [4, None])
def test_a_reindented_document_is_read_whole_to_the_same_structures(texts, reads, monkeypatch, indent):
    """The layout does not decide a family's representation: with the
    kernel floor lowered, each long total family of a re-indented text,
    read whole, is a column equal to the canonical read's."""
    monkeypatch.setattr(diagram, "KERNEL_FLOOR", 100)
    columns = 0
    for name, text in texts.items():
        doc = parse_document(json.dumps(json.loads(text), sort_keys=True, indent=indent))
        assert reads[-1] == "whole", name
        ref = parse_document(text)
        assert doc == ref, name
        for (where, fam), (_, ref_fam) in zip(families(doc), families(ref), strict=True):
            total = fam.components.keys() == set(product(doc.groupoid.objects_sorted, repeat=fam.arity))
            long = total and len(fam.components) >= diagram.KERNEL_FLOOR
            assert isinstance(fam.components, Column) is isinstance(ref_fam.components, Column) is long, (name, where)
            columns += long
    assert columns


def test_canonical_mutants_give_the_pinned_outcomes(tmp_path, reads):
    got = pinned_mutation_outcomes(tmp_path, dump=canonical)
    assert got == MUTATIONS_PINNED.read_text(encoding="utf-8")
    assert "fallback" in reads and any(isinstance(r, list) for r in reads)


# -- defects the chunked read hands to the whole-text read --------------------


def _b_rows(data: dict) -> list:
    return next(blk for blk in data["structures"] if blk["name"] == "add")["b"]


def _edit_row(text: str, edit) -> str:
    data = json.loads(text)
    rows = _b_rows(data)
    rows[len(rows) // 2] = edit(rows[len(rows) // 2])
    return canonical(data)


def _b_span(text: str) -> tuple[int, int]:
    start = text.index('      "b": [\n')
    return start, text.index("\n      ],\n", start) + len("\n      ],\n")


def _unterminated_cell(text: str) -> str:
    at = text.index('",\n', _b_span(text)[0] + 2000)
    return text[:at] + text[at + 1:]


def _duplicated_b(text: str) -> str:
    """``b`` written twice, the first copy holding invalid JSON: JSON keeps
    the last copy, but the whole text does not parse."""
    bad = _unterminated_cell(text)
    start, end = _b_span(bad)
    return text[:start] + bad[start:end] + text[start:]


DEFECTS = {
    "row of the wrong width": lambda text: _edit_row(text, lambda row: row + row[-1:]),
    "undeclared id": lambda text: _edit_row(text, lambda row: row[:-1] + ["undeclared"]),
    "non-string cell": lambda text: _edit_row(text, lambda row: row[:-1] + [7]),
    "duplicated block key": _duplicated_b,
    "invalid JSON": _unterminated_cell,
    "constant outside the table": lambda text: text.replace('"fzero": null', '"fzero": NaN', 1),
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_a_defect_reads_as_the_whole_text_does(texts, reads, defect):
    text = DEFECTS[defect](texts["dn3-mult"])
    assert text != texts["dn3-mult"]
    got = outcome(text)
    assert reads[-1] == "fallback"
    assert got == whole(text)
    assert got.startswith("DocumentError: invalid JSON at line " if "JSON" in defect or "key" in defect
                          else "DocumentError: ")


def test_a_key_naming_no_declared_id_is_read_in_chunks_and_kept_as_read(texts, reads):
    text = _edit_row(texts["dn3-mult"], lambda row: ["undeclared", *row[1:]])
    doc = parse_document(text)
    assert isinstance(reads[-1], list)
    assert doc == whole(text)
    b = doc.block("add").obj.acomm.components
    assert sum(key[0] == "undeclared" for key in b) == 1


def test_a_row_past_the_product_reads_as_a_dict_whose_last_row_wins(texts, reads):
    # the key comparison walks the product alongside the rows: a table
    # longer than the product is a dict, read through to its last row
    data = json.loads(texts["dn3-mult"])
    rows = _b_rows(data)
    rows.append([*rows[0][:-1], rows[1][-1]])
    text = canonical(data)
    doc = parse_document(text)
    assert isinstance(reads[-1], list)
    assert doc == whole(text)
    b = doc.block("add").obj.acomm.components
    assert type(b) is dict and len(b) == len(rows) - 1 and b[tuple(rows[0][:-1])] == rows[1][-1]


# -- the writer -----------------------------------------------------------------


@pytest.mark.parametrize("rows", [1, 3, document._ROWS])
def test_fixture_and_convert_write_the_serialized_document(tmp_path, monkeypatch, rows):
    monkeypatch.setattr(document, "_ROWS", rows)
    path, converted = tmp_path / "dn2.json", tmp_path / "dn2-sm.json"
    for argv, out in ((["fixture", "dual-numbers", "--mod", "2", "--mult", "1,1"], path),
                      (["convert", str(path), "--to", "sm"], converted)):
        assert main([*argv, "--out", str(out)]) == 0
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0
        text = out.read_bytes().decode("utf-8")
        assert stdout.getvalue() == text
        assert text == serialize_document(parse_document(text))
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
