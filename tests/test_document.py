"""Document format: canonical serialization, round-trips, reference checks."""

import json
import random
from itertools import product

import pytest

from twogrp import (
    MonTransformation,
    build_dual_numbers_2group,
    build_mult_endofunctor,
    build_strict_2ring,
    build_super_line_2group,
    ring_dual_numbers,
    ring_zmod,
    to_ac,
)
from twogrp import diagram, document
from twogrp.document import (
    Block,
    StructureDocument,
    parse_document,
    serialize_document,
    write_document,
)
from twogrp.errors import DocumentError
from twogrp.functors import tau_family
from twogrp.groupoid import Column
from twogrp.report import Report


def super_line_doc(presentation="sm") -> StructureDocument:
    sl = build_super_line_2group()
    s = sl if presentation == "sm" else to_ac(sl)
    return StructureDocument(sl.carrier, [Block(presentation, "add", s)])


def dual_doc(m=2, mult=None, presentation="ac") -> StructureDocument:
    structure = build_dual_numbers_2group(m, presentation)
    blocks = [Block(presentation, "add", structure)]
    if mult:
        fun = build_mult_endofunctor(m, *mult, structure)
        blocks.append(Block("functor", "F", fun, {"source": "add", "target": "add"}))
    return StructureDocument(structure.carrier, blocks)


def ring_doc(table=None, presentation="sm") -> StructureDocument:
    ring = build_strict_2ring(table or ring_zmod(6), presentation)
    return StructureDocument(
        ring.carrier,
        [
            Block(presentation, "add", ring.add),
            Block("mul", "mul", ring.mul),
            Block("tworing", "ring", ring, {"add": "add", "mul": "mul"}),
        ],
    )


@pytest.mark.parametrize("make", [super_line_doc, dual_doc, lambda: dual_doc(2, (1, 1)), ring_doc])
def test_parse_serialize_roundtrip_is_identity(make):
    doc = make()
    text = serialize_document(doc)
    again = parse_document(text)
    assert serialize_document(again) == text
    assert parse_document(serialize_document(again)) == again


def test_parsed_structures_equal_their_sources():
    doc = parse_document(serialize_document(dual_doc(2, (1, 1))))
    assert doc.block("add").obj == build_dual_numbers_2group(2)
    fun = doc.block("F").obj
    direct = build_mult_endofunctor(2, 1, 1)
    assert fun.base.obj_map == direct.base.obj_map
    assert fun.fsum == direct.fsum
    assert fun.fzero is None


def test_ring_document_preserves_presentation_and_absorbers():
    from twogrp import quang_to_ac_ring

    ring = build_strict_2ring(ring_zmod(6))
    ac_ring = quang_to_ac_ring(ring)
    doc = StructureDocument(
        ring.carrier,
        [
            Block("ac", "add", ac_ring.add),
            Block("mul", "mul", ac_ring.mul),
            Block("tworing", "ring", ac_ring, {"add": "add", "mul": "mul"}),
        ],
    )
    again = parse_document(serialize_document(doc))
    parsed = again.block("ring").obj
    assert parsed.presentation == "ac"
    assert parsed == ac_ring


def test_syntax_error_carries_position():
    with pytest.raises(DocumentError) as exc:
        parse_document('{"format": "twogrp/1",')
    assert "line" in str(exc.value)


def test_unknown_format_rejected():
    with pytest.raises(DocumentError):
        parse_document('{"format": "nope"}')


def test_dangling_references_rejected():
    text = serialize_document(dual_doc(2, (1, 1)))
    broken = text.replace('"source": "add"', '"source": "nothere"')
    with pytest.raises(DocumentError):
        parse_document(broken)


def test_undeclared_morphism_rejected():
    text = serialize_document(super_line_doc())
    broken = text.replace('"0|0",\n      "0|0",\n      "0|0"', '"0|0",\n      "0|0",\n      "9|9"', 1)
    with pytest.raises(DocumentError):
        parse_document(broken)


def test_duplicate_block_names_rejected():
    doc = dual_doc(2)
    doc.blocks.append(Block("ac", "add", doc.blocks[0].obj))
    with pytest.raises(DocumentError):
        parse_document(serialize_document(doc))


# -- the serializer against the json module ----------------------------------


def json_oracle(text: str) -> str:
    """Canonical text by definition: ``json.dumps`` with sorted keys and a
    two-space indent, plus the trailing newline."""
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def transformation_doc() -> StructureDocument:
    s = build_dual_numbers_2group(2)
    gpd = s.carrier
    fun = build_mult_endofunctor(2, 1, 0, s).with_zero(gpd.identity[s.unit])
    tau = tau_family({(x,): gpd.identity[fun.base.obj_map[x]] for x in gpd.objects})
    return StructureDocument(gpd, [
        Block("ac", "add", s),
        Block("functor", "F", fun, {"source": "add", "target": "add"}),
        Block("transformation", "T", MonTransformation(fun, fun, tau), {"source": "F", "target": "F"}),
    ])


ORACLE_DOCS = {
    "super-line sm": super_line_doc,
    "super-line ac": lambda: super_line_doc("ac"),
    "dual m=3 ac": lambda: dual_doc(3),
    "dual m=3 sm": lambda: dual_doc(3, presentation="sm"),
    "dual m=3 F(1,2) ac": lambda: dual_doc(3, (1, 2)),
    "dual m=3 F(1,2) sm": lambda: dual_doc(3, (1, 2), "sm"),
    "transformation": transformation_doc,
    "z4 sm (m, n null)": lambda: ring_doc(ring_zmod(4)),
    "z4 ac": lambda: ring_doc(ring_zmod(4), "ac"),
    "z2e sm": lambda: ring_doc(ring_dual_numbers(2)),
    "z2e ac": lambda: ring_doc(ring_dual_numbers(2), "ac"),
}


@pytest.mark.parametrize("name", sorted(ORACLE_DOCS))
def test_serializer_writes_the_json_module_text(name):
    text = serialize_document(ORACLE_DOCS[name]())
    assert text == json_oracle(text)
    assert serialize_document(parse_document(text)) == text


def test_serializer_writes_empty_and_ragged_tables_as_the_json_module_does():
    from dataclasses import replace

    sl = build_super_line_2group()
    ragged = {("1",): "1|0", ("0", "1"): "0|0", ("0",): "0|1"}
    broken = replace(sl, lunit=replace(sl.lunit, components={}), runit=replace(sl.runit, components=ragged))
    text = serialize_document(StructureDocument(sl.carrier, [Block("sm", "add", broken)]))
    assert text == json_oracle(text)
    assert '"l": []' in text


# quote, backslash, a Latin-1 letter, a non-BMP letter and a control character
ODD = '"\\\u00e9\U0001d53d\x07'


def _odd_ids(value, key=None):
    """Every string of a document's JSON but its format and kinds, with
    ``ODD`` spliced in after the first character (an injective renaming)."""
    if isinstance(value, dict):
        return {k: _odd_ids(v, k) for k, v in value.items()}
    if isinstance(value, list):
        return [_odd_ids(v) for v in value]
    if isinstance(value, str) and key not in ("format", "kind"):
        return value[:1] + ODD + value[1:]
    return value


@pytest.mark.parametrize("name", ["transformation", "z4 sm (m, n null)", "super-line ac"])
def test_serializer_escapes_ids_as_the_json_module_does(name):
    data = _odd_ids(json.loads(serialize_document(ORACLE_DOCS[name]())))
    doc = parse_document(json.dumps(data, ensure_ascii=False))
    text = serialize_document(doc)
    assert text == json_oracle(text)
    assert json.loads(text) == data
    assert serialize_document(parse_document(text)) == text
    assert all(ODD in x for x in doc.groupoid.objects)


def _family_tables(doc: StructureDocument):
    """Every family table of ``doc``'s blocks."""
    for blk in doc.blocks:
        if blk.kind == "functor":
            yield blk.obj.fsum.components
        elif blk.kind == "transformation":
            yield blk.obj.tau.components
        else:
            yield from (fam.components for fam in blk.obj.families().values() if fam is not None)


def odd_copy(doc: StructureDocument) -> tuple[dict, StructureDocument]:
    """The JSON data of ``doc`` with ``_odd_ids`` renaming, and its parse."""
    data = _odd_ids(json.loads(serialize_document(doc)))
    return data, parse_document(json.dumps(data, ensure_ascii=False))


@pytest.mark.parametrize("name", sorted(ORACLE_DOCS))
def test_serializer_writes_columns_of_escaped_ids_as_the_json_module_does(name, monkeypatch):
    # with the floor lowered every total family is a column, built or parsed
    monkeypatch.setattr(diagram, "KERNEL_FLOOR", 0)
    text = serialize_document(ORACLE_DOCS[name]())
    assert text == json_oracle(text)
    data, doc = odd_copy(ORACLE_DOCS[name]())
    assert any(isinstance(table, Column) for table in _family_tables(doc))
    text = serialize_document(doc)
    assert text == json_oracle(text)
    assert json.loads(text) == data


class _Pieces(list):
    """A text stream that keeps each piece written to it."""

    write = list.append


@pytest.mark.parametrize("rows", [1, 3, 7])
@pytest.mark.parametrize("name", ["super-line ac", "transformation"])
def test_column_rows_are_written_in_blocks_of_rows(name, rows, monkeypatch):
    # columns of arity 1 to 4 over 2 or 4 escaped object ids: row counts on
    # either side of n^2 (the key pairs cycled against the value column)
    # and of the rows joined into one piece
    monkeypatch.setattr(document, "_ROWS", rows)
    monkeypatch.setattr(diagram, "KERNEL_FLOOR", 0)
    data, doc = odd_copy(ORACLE_DOCS[name]())
    gpd, rng = doc.groupoid, random.Random(20261020)
    blk = next(b for b in doc.blocks if b.kind in ("ac", "transformation"))
    fam, field = (blk.obj.tau, "components") if blk.kind == "transformation" else (blk.obj.lunit, "l")
    for arity in range(1, 5):
        keys = list(product(gpd.objects_sorted, repeat=arity))
        values = [rng.choice(gpd.morphisms_sorted) for _ in keys]
        fam.components = gpd.product_table(arity, values)
        assert isinstance(fam.components, Column)
        next(b for b in data["structures"] if b["name"] == blk.name)[field] = [[*k, v] for k, v in zip(keys, values)]
        pieces = _Pieces()
        write_document(doc, pieces)
        assert "".join(pieces) == serialize_document(doc) == json.dumps(data, sort_keys=True, indent=2) + "\n"
        # a row of a top-level table ends in 4 spaces and "]", one of a block's in 8
        assert max(piece.count("\n    ]") + piece.count("\n        ]") for piece in pieces) == rows, arity


# -- every family field: one reader, one error text per defect -----------------

# (document, block, family field, key width) for every block kind
FAMILY_FIELDS = [
    ("super-line sm", "add", "l", 1), ("super-line sm", "add", "r", 1),
    ("super-line sm", "add", "a", 3), ("super-line sm", "add", "c", 2),
    ("super-line ac", "add", "l", 1), ("super-line ac", "add", "r", 1), ("super-line ac", "add", "b", 4),
    ("z4 sm (m, n null)", "mul", "l", 1), ("z4 sm (m, n null)", "mul", "r", 1), ("z4 sm (m, n null)", "mul", "a", 3),
    ("dual m=3 F(1,2) ac", "F", "fsum", 2),
    ("transformation", "T", "components", 1),
    ("z4 sm (m, n null)", "ring", "d", 3), ("z4 sm (m, n null)", "ring", "e", 3),
    ("z4 ac", "ring", "m", 1), ("z4 ac", "ring", "n", 1),
]


def _damaged(doc_name: str, block: str, field: str, damage) -> tuple[str, list]:
    """The text of ``doc_name`` with the last row of ``field`` in ``block``
    replaced by ``damage(row)``, and that row."""
    data = json.loads(serialize_document(ORACLE_DOCS[doc_name]()))
    rows = next(b for b in data["structures"] if b["name"] == block)[field]
    rows[-1] = damage(rows[-1])
    return json.dumps(data), rows[-1]


@pytest.mark.parametrize("doc_name, block, field, width", FAMILY_FIELDS,
                         ids=[f"{b}.{f}" for _, b, f, _ in FAMILY_FIELDS])
def test_an_undeclared_component_names_its_family_field(doc_name, block, field, width):
    text, _ = _damaged(doc_name, block, field, lambda row: row[:width] + ["undeclared"])
    with pytest.raises(DocumentError) as exc:
        parse_document(text)
    assert str(exc.value) == f"{field} references undeclared morphism 'undeclared'"


@pytest.mark.parametrize("doc_name, block, field, width", FAMILY_FIELDS,
                         ids=[f"{b}.{f}" for _, b, f, _ in FAMILY_FIELDS])
def test_a_malformed_family_row_names_its_family_field(doc_name, block, field, width):
    for damage in (lambda row: row[:-1], lambda row: row + row[-1:], lambda row: row[:-1] + [7]):
        text, row = _damaged(doc_name, block, field, damage)
        with pytest.raises(DocumentError) as exc:
            parse_document(text)
        assert str(exc.value) == f"section {field!r}: expected rows of {width + 1} strings, got {row!r}"


def test_a_symmetric_2ring_round_trips_with_null_absorbers():
    text = serialize_document(ring_doc(ring_zmod(4)))
    ring_block = next(b for b in json.loads(text)["structures"] if b["kind"] == "tworing")
    assert ring_block["m"] is None and ring_block["n"] is None
    parsed = parse_document(text)
    assert parsed.block("ring").obj.absorb_l is None and parsed.block("ring").obj.absorb_r is None
    assert serialize_document(parsed) == text


def test_parse_restores_the_collector_state():
    import gc

    text = serialize_document(super_line_doc())
    assert gc.isenabled()
    parse_document(text)
    assert gc.isenabled()
    gc.disable()
    try:
        parse_document(text)
        assert not gc.isenabled()
        with pytest.raises(DocumentError):
            parse_document(text.replace('"0|0"', "7", 1))
        assert not gc.isenabled()
    finally:
        gc.enable()
    with pytest.raises(DocumentError):
        parse_document(text.replace('"0|0"', "7", 1))
    assert gc.isenabled()


def test_canonical_output_is_sorted_and_stable():
    text1 = serialize_document(dual_doc(2, (1, 1)))
    # rebuilding from scratch gives the same bytes
    text2 = serialize_document(dual_doc(2, (1, 1)))
    assert text1 == text2
    assert text1.endswith("\n")


# -- the strict profile on parsed documents -----------------------------------
#
# Fixture families are marked strict when they are built; a parsed family
# gets its strict bit from the endpoint row.  Each case is a function
# returning ``(make, run)``: ``make()`` parses a fresh copy of a document and
# ``run(parsed, allow_strict_skip, check_data)`` runs one suite on it.


def reparsed(gpd, *blocks) -> StructureDocument:
    return parse_document(serialize_document(StructureDocument(gpd, list(blocks))))


def _sl_case(presentation):
    from twogrp import to_ac, validate_ac, validate_sm

    sl = build_super_line_2group()
    s, kind, suite = (sl, "sm", validate_sm) if presentation == "sm" else (to_ac(sl), "ac", validate_ac)
    return (lambda: reparsed(sl.carrier, Block(kind, "add", s)).block("add").obj,
            lambda m, skip, data: suite(m, allow_strict_skip=skip, check_data=data))


def _dual_case(mult, presentation):
    from twogrp import canonical_zero_iso, validate_ac_functor, validate_sm_functor

    ac = build_dual_numbers_2group(3)
    sm = build_dual_numbers_2group(3, "sm")
    fun = build_mult_endofunctor(3, *mult, ac)
    if mult[1] == 0:
        fun = fun.with_zero(canonical_zero_iso(fun, sm, sm))
    s, suite = (sm, validate_sm_functor) if presentation == "sm" else (ac, validate_ac_functor)

    def make():
        doc = reparsed(s.carrier, Block(presentation, "add", s),
                       Block("functor", "F", fun, {"source": "add", "target": "add"}))
        return doc.block("F").obj, doc.block("add").obj

    return make, lambda parsed, skip, data: suite(parsed[0], parsed[1], parsed[1],
                                                  allow_strict_skip=skip, check_data=data)


def _ring_case(table, presentation):
    from twogrp import quang_to_ac_ring, validate_ac_ring, validate_jp, validate_quang

    ring = build_strict_2ring(table)
    if presentation == "ac":
        ring = quang_to_ac_ring(ring)
    suites = (validate_ac_ring,) if presentation == "ac" else (validate_quang, validate_jp)

    def make():
        return reparsed(ring.carrier, Block(presentation, "add", ring.add), Block("mul", "mul", ring.mul),
                        Block("tworing", "ring", ring, {"add": "add", "mul": "mul"})).block("ring").obj

    def run(parsed, skip, data):
        rep = Report()
        for suite in suites:
            rep.extend(suite(parsed, allow_strict_skip=skip, check_data=data), prefix=f"{suite.__name__}:")
        return rep

    return make, run


PARSED_CASES = {
    "super-line sm": lambda: _sl_case("sm"),
    "super-line ac": lambda: _sl_case("ac"),
    "dual m=3 F(1,0) sm": lambda: _dual_case((1, 0), "sm"),
    "dual m=3 F(1,0) ac": lambda: _dual_case((1, 0), "ac"),
    "dual m=3 F(1,1) sm": lambda: _dual_case((1, 1), "sm"),
    "dual m=3 F(1,1) ac": lambda: _dual_case((1, 1), "ac"),
    "z4 sm": lambda: _ring_case(ring_zmod(4), "sm"),
    "z4 ac": lambda: _ring_case(ring_zmod(4), "ac"),
    "z3e sm": lambda: _ring_case(ring_dual_numbers(3), "sm"),
    "z3e ac": lambda: _ring_case(ring_dual_numbers(3), "ac"),
}


@pytest.mark.parametrize("case", sorted(PARSED_CASES))
def test_strict_profile_agrees_with_forced_full_on_parsed_documents(case):
    make, run = PARSED_CASES[case]()
    full = {c.law: c for c in run(make(), False, True).checks}
    for check_data in (True, False):
        fast = run(make(), True, check_data)
        assert fast.checks
        for row in fast.checks:
            assert (row.status, row.witness) == (full[row.law].status, full[row.law].witness), row.law


# -- ids shared with the carrier ------------------------------------------------


def _own_ids(gpd) -> dict:
    """Each declared id to the carrier's own string for it."""
    own = {o: o for o in gpd.objects}
    for mid, mor in gpd.morphisms.items():
        assert own.setdefault(mid, mid) is mid
        assert own[mor.src] is mor.src and own[mor.dst] is mor.dst
    return own


def _parsed_table(doc: StructureDocument, block, field) -> dict:
    gpd = doc.groupoid
    if block is None:
        return {"compose": gpd.compose, "identities": gpd.identity, "inverses": gpd.inverse}[field]
    obj = doc.block(block).obj
    if field in ("obj_map", "mor_map", "fsum"):
        return {"obj_map": obj.base.obj_map, "mor_map": obj.base.mor_map, "fsum": obj.fsum.components}[field]
    if field == "components":
        return obj.tau.components
    if field in ("op_obj", "op_mor"):
        return obj.sum_obj if field == "op_obj" else obj.sum_mor
    return obj.families()[field].components


SECTIONS = [
    ("super-line sm", None, "compose"), ("super-line sm", None, "identities"),
    ("super-line sm", None, "inverses"), ("super-line sm", "add", "op_obj"),
    ("super-line sm", "add", "op_mor"), ("z4 ac", "mul", "op_obj"), ("z4 ac", "mul", "op_mor"),
    ("dual m=3 F(1,2) ac", "F", "obj_map"), ("dual m=3 F(1,2) ac", "F", "mor_map"),
] + [(doc_name, block, field) for doc_name, block, field, _ in FAMILY_FIELDS]


@pytest.mark.parametrize("doc_name, block, field", SECTIONS,
                         ids=[f"{b or 'carrier'}.{f}" for _, b, f in SECTIONS])
def test_every_table_cell_is_the_carriers_own_string(doc_name, block, field):
    doc = parse_document(serialize_document(ORACLE_DOCS[doc_name]()))
    own = _own_ids(doc.groupoid)
    table = _parsed_table(doc, block, field)
    assert table
    for key, value in table.items():
        for cell in (*key, value) if isinstance(key, tuple) else (key, value):
            assert cell is own[cell]


def test_a_parsed_b_holds_one_string_per_declared_id():
    doc = parse_document(serialize_document(dual_doc(3)))
    b = doc.block("add").obj.acomm.components
    strings = {id(cell) for key, value in b.items() for cell in (*key, value)}
    gpd = doc.groupoid
    assert len(b) == 9 ** 4
    assert len(strings) <= len(gpd.objects) + len(gpd.morphisms)


@pytest.mark.parametrize("field, row, law, witness", [
    ("op_obj", 5, "bifunctor", "at (0+1e, undeclared): sum object table keyed outside the carrier"),
    ("b", -1, "b-endpoints", "at (1+1e, 1+1e, 1+1e, 1+1e): component missing or unknown"),
])
def test_a_key_outside_the_carrier_is_kept_as_read(field, row, law, witness):
    from twogrp import validate_ac

    data = json.loads(serialize_document(dual_doc(2, (1, 1))))
    rows = next(b for b in data["structures"] if b["name"] == "add")[field]
    rows[row][-2] = "undeclared"
    doc = parse_document(json.dumps(data))
    own = _own_ids(doc.groupoid)
    key, value = next(item for item in _parsed_table(doc, "add", field).items()
                      if item[0] == tuple(rows[row][:-1]))
    assert "undeclared" not in own
    assert all(cell is own[cell] for cell in key[:-1]) and value is own[value]
    report = validate_ac(doc.block("add").obj)
    assert report.failures()[0].law == law
    assert report.failures()[0].witness.describe() == witness
