"""Document format: canonical serialization, round-trips, reference checks."""

import json

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
from twogrp.document import (
    Block,
    StructureDocument,
    parse_document,
    serialize_document,
)
from twogrp.errors import DocumentError
from twogrp.functors import tau_family
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
