"""CLI contract: exit codes, reports, conversion round-trips, determinism."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from twogrp.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def super_line_file(tmp_path):
    path = tmp_path / "sl.json"
    assert main(["fixture", "super-line", "--out", str(path)]) == 0
    return path


@pytest.fixture
def dual_file(tmp_path):
    path = tmp_path / "dn.json"
    assert main(["fixture", "dual-numbers", "--mod", "3", "--mult", "1,2", "--out", str(path)]) == 0
    return path


@pytest.fixture
def ring_file(tmp_path):
    path = tmp_path / "z6.json"
    assert main(["fixture", "strict-2ring", "--ring", "z6", "--out", str(path)]) == 0
    return path


def test_check_super_line_sm_passes(capsys, super_line_file):
    code, out, _ = run(capsys, "check", str(super_line_file), "--suite", "sm")
    assert code == 0
    for law in ("SC1", "SC2", "SC3", "SC4"):
        assert re.search(rf"^{law}\s+pass", out, re.M)


def test_check_super_line_2group_passes(capsys, super_line_file):
    code, out, _ = run(capsys, "check", str(super_line_file), "--suite", "2group")
    assert code == 0
    assert re.search(r"^weak-inverses\s+pass", out, re.M)


def test_check_separating_functor_fails_sm_suite(capsys, dual_file):
    code, out, _ = run(capsys, "check", str(dual_file), "--suite", "sm-functor")
    assert code == 1
    assert re.search(r"^SF1\s+fail", out, re.M)
    assert "witness" in out


def test_check_separating_functor_passes_ac_suite(capsys, dual_file):
    code, out, _ = run(capsys, "check", str(dual_file), "--suite", "ac-functor")
    assert code == 0
    assert re.search(r"^AF1\s+pass", out, re.M)
    assert re.search(r"^AF2\s+missing-data", out, re.M)


def test_witness_flag_prints_composite_chains(capsys, dual_file):
    code, out, _ = run(capsys, "check", str(dual_file), "--suite", "sm-functor", "--witness")
    assert code == 1
    assert "left  =" in out and "right =" in out and " o " in out


def test_malformed_document_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "twogrp/1",')
    code, _, err = run(capsys, "check", str(bad), "--suite", "sm")
    assert code == 2
    assert "line" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "check", "/nonexistent.json", "--suite", "sm")
    assert code == 2


def test_unknown_fixture_exits_2(capsys):
    code, _, err = run(capsys, "fixture", "nope")
    assert code == 2


def test_convert_roundtrip_byte_identical(capsys, super_line_file, tmp_path):
    acp = tmp_path / "ac.json"
    smp = tmp_path / "sm.json"
    assert main(["convert", str(super_line_file), "--to", "ac", "--out", str(acp)]) == 0
    assert main(["convert", str(acp), "--to", "sm", "--out", str(smp)]) == 0
    assert smp.read_bytes() == super_line_file.read_bytes()


def test_convert_wrong_direction_exits_1(capsys, super_line_file):
    code, out, _ = run(capsys, "convert", str(super_line_file), "--to", "sm")
    assert code == 1


def test_convert_rejects_invalid_structure(capsys, super_line_file, tmp_path):
    import json

    # flip the associator component at (1,1,0) to the non-identity label:
    # the pentagon fails and conversion must refuse
    data = json.loads(super_line_file.read_text())
    block = next(b for b in data["structures"] if b["kind"] == "sm")
    row = next(r for r in block["a"] if r[:3] == ["1", "1", "0"])
    assert row[3] == "0|0"
    row[3] = "1|0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run(capsys, "convert", str(bad), "--to", "ac")
    assert code == 1
    assert "SC" in out


def test_ring_convert_roundtrip_and_acring_suite(capsys, ring_file, tmp_path):
    acp = tmp_path / "z6ac.json"
    smp = tmp_path / "z6sm.json"
    code, out, _ = run(capsys, "check", str(ring_file), "--suite", "quang")
    assert code == 0
    code, out, _ = run(capsys, "check", str(ring_file), "--suite", "jp")
    assert code == 0
    code, out, _ = run(capsys, "check", str(ring_file), "--suite", "acring")
    assert code == 1  # wrong presentation; convert first
    assert main(["convert", str(ring_file), "--to", "ac", "--out", str(acp)]) == 0
    code, out, _ = run(capsys, "check", str(acp), "--suite", "acring")
    assert code == 0
    assert main(["convert", str(acp), "--to", "sm", "--out", str(smp)]) == 0
    assert smp.read_bytes() == ring_file.read_bytes()


def test_zero_iso_modes(capsys, tmp_path):
    good = tmp_path / "f10.json"
    assert main(["fixture", "dual-numbers", "--mod", "3", "--mult", "1,0", "--out", str(good)]) == 0
    code, out, _ = run(capsys, "zero-iso", str(good), "--functor", "F", "--mode", "enumerate")
    assert code == 0
    assert out.startswith("1 solution(s)")
    assert "0|0+0e" in out
    code, out2, _ = run(capsys, "zero-iso", str(good), "--functor", "F", "--mode", "canonical")
    assert code == 0
    assert "0|0+0e" in out2


def test_zero_iso_empty_enumeration_and_failed_precondition(capsys, dual_file):
    code, out, _ = run(capsys, "zero-iso", str(dual_file), "--functor", "F", "--mode", "enumerate")
    assert code == 0
    assert out.startswith("0 solution(s)")
    code, out, _ = run(capsys, "zero-iso", str(dual_file), "--functor", "F", "--mode", "canonical")
    assert code == 1
    assert "SF1" in out


def test_shared_endpoint_block_is_converted_once(capsys, monkeypatch, dual_file):
    import twogrp.cli

    calls = []
    real = twogrp.cli.to_sm
    monkeypatch.setattr(twogrp.cli, "to_sm", lambda a, **kw: calls.append(a) or real(a, **kw))
    code, _, _ = run(capsys, "check", str(dual_file), "--suite", "sm-functor")
    assert code == 1
    assert len(calls) == 1
    calls.clear()
    code, out, _ = run(capsys, "zero-iso", str(dual_file), "--functor", "F", "--mode", "canonical")
    assert code == 1 and "SF1" in out
    assert len(calls) == 1


def test_ring_suites_print_each_endpoint_row_once(capsys, tmp_path):
    z4 = tmp_path / "z4.json"
    z4ac = tmp_path / "z4ac.json"
    assert main(["fixture", "strict-2ring", "--ring", "z4", "--out", str(z4)]) == 0
    assert main(["convert", str(z4), "--to", "ac", "--out", str(z4ac)]) == 0
    for path, suite, families in ((z4, "quang", "de"), (z4ac, "acring", "demn")):
        code, out, _ = run(capsys, "check", str(path), "--suite", suite)
        assert code == 0
        rows = re.findall(r"^(\S+-endpoints)\s", out, re.M)
        assert len(rows) == len(set(rows))
        assert {f"{f}-endpoints" for f in families} <= set(rows)


def test_check_out_flag_writes_report(capsys, super_line_file, tmp_path):
    report = tmp_path / "report.txt"
    code, out, _ = run(capsys, "check", str(super_line_file), "--suite", "sm", "--out", str(report))
    assert code == 0
    assert report.read_text() == out


def test_fixture_document_counts(capsys, tmp_path):
    import json

    path = tmp_path / "dn5.json"
    assert main(["fixture", "dual-numbers", "--mod", "5", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    assert len(data["objects"]) == 25
    assert len(data["morphisms"]) == 125


def _transformation_doc():
    """dual numbers m=3 (AC), F = multiplication by 1, and the
    transformation F => F labelled x0 at x0+x1e."""
    from twogrp import MonTransformation, build_dual_numbers_2group, build_mult_endofunctor
    from twogrp.document import Block, StructureDocument
    from twogrp.functors import tau_family

    structure = build_dual_numbers_2group(3)
    fun = build_mult_endofunctor(3, 1, 0, structure)
    tau = tau_family({(o,): f"{int(o.split('+')[0]) % 3}|{o}" for o in structure.carrier.objects})
    return StructureDocument(
        structure.carrier,
        [
            Block("ac", "add", structure),
            Block("functor", "F", fun, {"source": "add", "target": "add"}),
            Block("transformation", "t", MonTransformation(fun, fun, tau),
                  {"source": "F", "target": "F"}),
        ],
    )


def test_check_transformation_suite(capsys, tmp_path):
    from twogrp import MonTransformation
    from twogrp.document import Block, serialize_document
    from twogrp.functors import tau_family

    doc = _transformation_doc()
    fun, tau = doc.blocks[1].obj, doc.blocks[2].obj.tau
    path = tmp_path / "tr.json"
    path.write_text(serialize_document(doc))
    code, out, _ = run(capsys, "check", str(path), "--suite", "transformation")
    assert code == 0
    assert re.search(r"^T1\s+pass", out, re.M)
    assert re.search(r"^T2\s+missing-data", out, re.M)
    # flip one component: T1 must fail and the exit code flips to 1
    broken = tau_family(dict(tau.components))
    broken.components[("1+0e",)] = "0|1+0e"
    doc.blocks[2] = Block("transformation", "t", MonTransformation(fun, fun, broken),
                          {"source": "F", "target": "F"})
    path.write_text(serialize_document(doc))
    code, out, _ = run(capsys, "check", str(path), "--suite", "transformation")
    assert code == 1
    assert re.search(r"^T1\s+fail", out, re.M)


# every applicable suite on each document, `check --witness`
PINNED_SUITES = (
    ("dn3", ("ac", "2group", "sm-functor", "ac-functor")),
    ("dn3_sm", ("sm", "2group", "sm-functor", "ac-functor")),
    ("sl", ("sm", "2group")),
    ("sl_ac", ("ac", "2group")),
    ("z4", ("sm", "2group", "quang", "jp")),
    ("z4_ac", ("ac", "2group", "acring")),
)
PINNED_ROWS = Path(__file__).parent / "data" / "cli_rows.txt"


def pinned_report_rows(tmp_path) -> str:
    """The stdout of every pinned command with ``time=`` stripped, each
    headed by the command and its exit code.  ``PINNED_ROWS`` holds this
    text; write the function's output there to regenerate it."""
    paths = {name: str(tmp_path / f"{name}.json") for name, _ in PINNED_SUITES}
    for argv in (
        ["fixture", "dual-numbers", "--mod", "3", "--mult", "1,2", "--out", paths["dn3"]],
        ["convert", paths["dn3"], "--to", "sm", "--out", paths["dn3_sm"]],
        ["fixture", "super-line", "--out", paths["sl"]],
        ["convert", paths["sl"], "--to", "ac", "--out", paths["sl_ac"]],
        ["fixture", "strict-2ring", "--ring", "z4", "--out", paths["z4"]],
        ["convert", paths["z4"], "--to", "ac", "--out", paths["z4_ac"]],
    ):
        assert main(argv) == 0
    out = []
    for name, suites in PINNED_SUITES:
        for suite in suites:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(["check", paths[name], "--suite", suite, "--witness"])
            out.append(f"$ check {name} --suite {suite} --witness: exit {code}\n")
            out.append(re.sub(r" time=\S+", "", buf.getvalue()))
    return "".join(out)


def test_report_rows_match_pinned(tmp_path):
    assert pinned_report_rows(tmp_path) == PINNED_ROWS.read_text(encoding="utf-8")


@pytest.fixture
def ring_ac_data(tmp_path):
    import json

    z4, z4ac = tmp_path / "z4.json", tmp_path / "z4ac.json"
    assert main(["fixture", "strict-2ring", "--ring", "z4", "--out", str(z4)]) == 0
    assert main(["convert", str(z4), "--to", "ac", "--out", str(z4ac)]) == 0
    return json.loads(z4ac.read_text())


@pytest.mark.parametrize("family", ["m", "n"])
def test_ac_ring_with_one_absorber_family_aborts(capsys, tmp_path, ring_ac_data, family):
    import json

    next(b for b in ring_ac_data["structures"] if b["kind"] == "tworing")[family] = None
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(ring_ac_data))
    code, out, _ = run(capsys, "check", str(path), "--suite", "acring")
    assert code == 1
    assert out.startswith("check aborted:") and "m and n families" in out


def test_ac_ring_with_a_missing_sum_pair_exits_1(capsys, tmp_path, ring_ac_data):
    import json

    add = next(b for b in ring_ac_data["structures"] if b["kind"] == "ac")
    del add["op_obj"][len(add["op_obj"]) // 2]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(ring_ac_data))
    code, out, _ = run(capsys, "check", str(path), "--suite", "acring")
    assert code == 1
    row = next(line for line in out.splitlines() if line.startswith("add:bifunctor"))
    assert row.split()[1] == "fail"
    assert "witness at (2, 0): sum object table not total" in out


def test_convert_samples_the_translation_checks_of_a_non_strict_structure(tmp_path):
    # 9 objects: an exhaustive AC1 would walk 9^8 = 43M tuples
    from helpers import coboundary_twisted_dual_numbers
    from twogrp.document import Block, StructureDocument, serialize_document

    twisted = coboundary_twisted_dual_numbers()
    sm, ac, back = tmp_path / "sm.json", tmp_path / "ac.json", tmp_path / "back.json"
    sm.write_text(serialize_document(StructureDocument(twisted.carrier, [Block("sm", "add", twisted)])))
    assert main(["convert", str(sm), "--to", "ac", "--out", str(ac)]) == 0
    assert main(["convert", str(ac), "--to", "sm", "--out", str(back)]) == 0
    assert back.read_bytes() == sm.read_bytes()


def test_ring_convert_checks_the_ring_suite_unsampled(capsys, tmp_path, monkeypatch):
    # 18 objects: the CLI samples the translation (18^8 AC1 tuples), but the
    # 2R suite, whose 2R2-2R5 have 18^4 > 2^16 instances, runs in full.  One
    # d label flipped: the data rows pass, the suite rows reading d fail
    from dataclasses import replace

    from helpers import parity_2ring, perturb_family
    from twogrp import rings
    from twogrp.document import Block, StructureDocument, serialize_document

    ring = parity_2ring(18)
    assert ring.dist_l.components[("1", "1", "1")] == "0|2"
    ring = replace(ring, dist_l=perturb_family(ring.dist_l, ("1", "1", "1"), "1|2"))
    path = tmp_path / "ring.json"
    blocks = [Block("sm", "add", ring.add), Block("mul", "mul", ring.mul),
              Block("tworing", "ring", ring, {"add": "add", "mul": "mul"})]
    path.write_text(serialize_document(StructureDocument(ring.carrier, blocks)))
    samples = []

    def spy(*args, **kwargs):
        samples.append(kwargs.get("sample"))
        return check_diagram(*args, **kwargs)

    check_diagram = rings.check_diagram
    monkeypatch.setattr(rings, "check_diagram", spy)
    code, out, _ = run(capsys, "convert", str(path), "--to", "ac")
    assert (code, out) == (1, "convert aborted: input fails the 2R suite: 2R1/left-assoc, 2R2, 2R3, 2R4, 2R6/left\n")
    assert samples and set(samples) == {None}


def _doctored_dual_file(dual_file, tmp_path, family, position):
    import json

    data = json.loads(dual_file.read_text())
    add = next(b for b in data["structures"] if b["kind"] == "ac")
    del add[family][position(len(add[family]))]
    path = tmp_path / f"no_{family}.json"
    path.write_text(json.dumps(data))
    return path


def test_functor_suite_reports_a_missing_endpoint_entry(capsys, tmp_path, dual_file):
    # the CLI validates an endpoint already in the AC presentation, as a
    # translation would
    path = _doctored_dual_file(dual_file, tmp_path, "b", lambda n: n // 2)
    code, out, _ = run(capsys, "check", str(path), "--suite", "ac-functor")
    assert (code, out) == (1, "check aborted: input fails the AC axiom suite: b-endpoints\n")

    # the suite itself reads its endpoint structures unvalidated: AF1 meets the gap
    from twogrp.document import parse_document
    from twogrp.functors import validate_ac_functor

    doc = parse_document(path.read_text())
    add = doc.block("add").obj
    row = validate_ac_functor(doc.block("F").obj, add, add, check_data=False)["AF1"]
    assert row.status.value == "fail"
    gone = "('1+1e', '1+1e', '1+1e', '1+1e')"
    assert row.witness.index == ("1+1e",) * 4
    assert row.witness.note == f"route does not evaluate: no entry at {gone}"


def test_sm_functor_suite_rejects_an_sm_endpoint_that_fails_its_suite(capsys, tmp_path):
    # F(1,0) passes SF1, so only the endpoint check can fail this document
    ac_path, sm_path = tmp_path / "dn2.json", tmp_path / "dn2_sm.json"
    assert main(["fixture", "dual-numbers", "--mod", "2", "--mult", "1,0", "--out", str(ac_path)]) == 0
    assert main(["convert", str(ac_path), "--to", "sm", "--out", str(sm_path)]) == 0
    code, _, _ = run(capsys, "check", str(sm_path), "--suite", "sm-functor")
    assert code == 0
    data = json.loads(sm_path.read_text())
    add = next(b for b in data["structures"] if b["kind"] == "sm")
    del add["r"][1]
    sm_path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "check", str(sm_path), "--suite", "sm")
    assert code == 1
    code, out, _ = run(capsys, "check", str(sm_path), "--suite", "sm-functor")
    assert (code, out) == (1, "check aborted: input fails the symmetric axiom suite: r-endpoints\n")


def test_zero_iso_enumeration_rejects_squares_that_read_a_missing_entry(capsys, tmp_path):
    # no endpoint check reads the functor's own tables: a monoidality entry
    # at (x, 0) the right unit square reads rejects the one zero iso F(1,0)
    # has, and the enumeration reports none
    good = tmp_path / "f10.json"
    assert main(["fixture", "dual-numbers", "--mod", "3", "--mult", "1,0", "--out", str(good)]) == 0
    path = _damaged(good, "F", "fsum", lambda rows: rows.remove(["1+0e", "0+0e", "0|1+0e"]))
    code, out, _ = run(capsys, "zero-iso", str(path), "--functor", "F", "--mode", "enumerate")
    assert (code, out) == (0, "0 solution(s) [AF2]\n")


@pytest.mark.parametrize("mode", ["canonical", "enumerate"])
def test_zero_iso_modes_reject_an_endpoint_that_fails_its_suite(capsys, tmp_path, dual_file, mode):
    path = _doctored_dual_file(dual_file, tmp_path, "r", lambda n: 2)
    code, out, _ = run(capsys, "zero-iso", str(path), "--functor", "F", "--mode", mode)
    assert (code, out) == (1, "zero-iso aborted: input fails the AC axiom suite: r-endpoints\n")


def test_transformation_suite_rejects_an_endpoint_that_fails_its_suite(capsys, tmp_path):
    from twogrp.document import serialize_document

    data = json.loads(serialize_document(_transformation_doc()))
    del next(b for b in data["structures"] if b["kind"] == "ac")["r"][1]
    path = tmp_path / "tr.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "check", str(path), "--suite", "transformation")
    assert (code, out) == (1, "check aborted: input fails the AC axiom suite: r-endpoints\n")


@pytest.mark.parametrize("suite", ["ac-functor", "sm-functor", "transformation"])
def test_functor_suites_name_a_carrier_that_fails_its_laws(capsys, tmp_path, suite):
    from twogrp.document import serialize_document

    data = json.loads(serialize_document(_transformation_doc()))
    del data["compose"][1]
    path = tmp_path / "tr.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "check", str(path), "--suite", "ac")
    assert code == 1 and re.search(r"^endpoints\s+fail", out, re.M)
    code, out, _ = run(capsys, "check", str(path), "--suite", suite)
    assert (code, out) == (1, "check aborted: carrier fails: endpoints\n")


@pytest.mark.parametrize("mode", ["canonical", "enumerate"])
def test_zero_iso_names_a_carrier_that_fails_its_laws(capsys, tmp_path, mode):
    path = tmp_path / "f10.json"
    assert main(["fixture", "dual-numbers", "--mod", "3", "--mult", "1,0", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    del data["compose"][1]
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "zero-iso", str(path), "--functor", "F", "--mode", mode)
    assert (code, out) == (1, "zero-iso aborted: carrier fails: endpoints\n")


def test_convert_names_a_carrier_that_fails_its_laws(capsys, super_line_file):
    data = json.loads(super_line_file.read_text())
    row = next(r for r in data["inverses"] if r[0] == "1|1")
    row[1] = "0|1"
    super_line_file.write_text(json.dumps(data))
    code, out, _ = run(capsys, "check", str(super_line_file), "--suite", "sm")
    assert code == 1 and re.search(r"^inverse\s+fail", out, re.M)
    code, out, _ = run(capsys, "convert", str(super_line_file), "--to", "ac")
    assert (code, out) == (1, "convert aborted: carrier fails: inverse\n")


def test_ring_conversions_require_the_data_rows_check_requires(capsys, tmp_path):
    # the multiplicative right unitor at 1 flipped: only mul:SC2 fails, a
    # data row that the 2R suites themselves do not read
    from dataclasses import replace

    from helpers import parity_2ring, perturb_family
    from twogrp import PreconditionFailed, ac_ring_to_quang, jp_upgrade, quang_to_ac_ring
    from twogrp.document import Block, StructureDocument, serialize_document

    ring = parity_2ring(2)
    mul = replace(ring.mul, runit=perturb_family(ring.mul.runit, ("1",), "1|1"), _cache={})
    bad = replace(ring, mul=mul, _cache={})
    path = tmp_path / "ring.json"
    blocks = [Block("sm", "add", bad.add), Block("mul", "mul", mul),
              Block("tworing", "ring", bad, {"add": "add", "mul": "mul"})]
    path.write_text(serialize_document(StructureDocument(bad.carrier, blocks)))
    code, out, _ = run(capsys, "check", str(path), "--suite", "quang", "--witness")
    assert code == 1 and re.search(r"^mul:SC2\s+fail.*\n  witness at \(1, 1\)", out, re.M)
    code, out, _ = run(capsys, "convert", str(path), "--to", "ac")
    assert (code, out) == (1, "convert aborted: input fails the 2R suite: mul:SC2\n")
    bad_ac = replace(quang_to_ac_ring(ring), mul=mul, _cache={})
    for convert, message in ((ac_ring_to_quang, "input fails the 2R suite: mul:SC2"),
                             (jp_upgrade, "input fails the 2R1' suite: mul:SC2")):
        with pytest.raises(PreconditionFailed, match=re.escape(message)):
            convert(bad_ac if convert is ac_ring_to_quang else bad)


@pytest.mark.parametrize("m", [2, 3])
def test_derivation_2ring_fixture_separates_the_suites(capsys, tmp_path, m):
    path = tmp_path / f"der{m}.json"
    assert main(["fixture", "derivation-2ring", "--mod", str(m), "--out", str(path)]) == 0
    code, _, _ = run(capsys, "check", str(path), "--suite", "jp")
    assert code == 0
    code, out, _ = run(capsys, "check", str(path), "--suite", "quang")
    assert code == 1
    failing = [line for line in out.splitlines() if re.match(r"^\S+\s+fail", line)]
    assert [line.split()[0] for line in failing] == ["2R1/left-assoc"]
    assert "witness at (0+1e, 0+0e, 0+0e, 1+0e)" in out
    code, out, _ = run(capsys, "convert", str(path), "--to", "ac")
    assert (code, out) == (1, "convert aborted: input fails the 2R suite: 2R1/left-assoc\n")


def _damaged(path, block, table, edit):
    """A copy of the document at ``path`` whose ``table`` of the block named
    ``block`` went through ``edit``."""
    data = json.loads(path.read_text())
    edit(next(b for b in data["structures"] if b["name"] == block)[table])
    out = path.with_name(f"damaged_{path.name}")
    out.write_text(json.dumps(data))
    return out


@pytest.fixture
def dn2_file(tmp_path):
    path = tmp_path / "dn2.json"
    assert main(["fixture", "dual-numbers", "--mod", "2", "--mult", "1,1", "--out", str(path)]) == 0
    return path


def _key_outside(rows):
    assert rows[5] == ["0+1e", "0+1e", "0+0e"]
    rows[5][1] = "undeclared"


@pytest.mark.parametrize("suite", ["ac", "2group", "ac-functor", "sm-functor"])
def test_a_sum_row_keyed_outside_the_carrier_is_a_bifunctor_witness(capsys, dn2_file, suite):
    path = _damaged(dn2_file, "add", "op_obj", _key_outside)
    code, out, _ = run(capsys, "check", str(path), "--suite", suite, "--witness")
    if suite == "ac":
        assert code == 1
        assert re.search(r"^bifunctor\s+fail.*\n  witness at \(0\+1e, undeclared\): "
                         r"sum object table keyed outside the carrier$", out, re.M)
    else:
        assert (code, out) == (1, "check aborted: input fails the AC axiom suite: bifunctor\n")


def test_a_sum_morphism_row_keyed_outside_the_carrier_is_a_bifunctor_witness(capsys, dn2_file):
    # an extra row: the table stays total, so only the key check can see it
    path = _damaged(dn2_file, "add", "op_mor", lambda rows: rows.append(["0|0+0e", "undeclared", "0|0+0e"]))
    code, out, _ = run(capsys, "check", str(path), "--suite", "ac", "--witness")
    assert code == 1
    assert re.search(r"^bifunctor\s+fail.*\n  witness at \(0\|0\+0e, undeclared\): "
                     r"sum morphism table keyed outside the carrier$", out, re.M)


def test_conversions_of_a_table_keyed_outside_the_carrier_abort(capsys, tmp_path, dn2_file):
    path = _damaged(dn2_file, "add", "op_obj", _key_outside)
    code, out, _ = run(capsys, "convert", str(path), "--to", "sm", "--out", str(tmp_path / "sm.json"))
    assert (code, out) == (1, "convert aborted: input fails the AC axiom suite: bifunctor\n")
    code, out, _ = run(capsys, "zero-iso", str(path), "--functor", "F", "--mode", "canonical")
    assert (code, out) == (1, "zero-iso aborted: input fails the AC axiom suite: bifunctor\n")

    z4 = tmp_path / "z4.json"
    assert main(["fixture", "strict-2ring", "--ring", "z4", "--out", str(z4)]) == 0
    path = _damaged(z4, "mul", "op_obj", lambda rows: rows[8].__setitem__(1, "undeclared"))
    code, out, _ = run(capsys, "convert", str(path), "--to", "ac", "--out", str(tmp_path / "ac.json"))
    assert (code, out) == (1, "convert aborted: input fails the 2R suite: mul:bifunctor\n")


def test_zero_iso_enumeration_validates_its_endpoints(capsys, dn2_file):
    # as the canonical mode does: a damaged endpoint is exit 1, not an
    # enumeration over tables that fail their suite
    path = _damaged(dn2_file, "add", "op_obj", _key_outside)
    code, out, _ = run(capsys, "zero-iso", str(path), "--functor", "F", "--mode", "enumerate")
    assert (code, out) == (1, "zero-iso aborted: input fails the AC axiom suite: bifunctor\n")


def test_zero_iso_enumeration_names_an_object_map_without_the_source_unit(capsys, dn2_file):
    path = _damaged(dn2_file, "F", "obj_map", lambda rows: rows.remove(["0+0e", "0+0e"]))
    code, out, _ = run(capsys, "zero-iso", str(path), "--functor", "F", "--mode", "enumerate")
    assert (code, out) == (1, "zero-iso aborted: object map undefined at '0+0e'\n")
    code, out, _ = run(capsys, "check", str(path), "--suite", "ac-functor")
    assert (code, out) == (1, "check aborted: object map undefined at '0+0e'\n")


def test_2group_naturality_rows_do_not_depend_on_the_stored_presentation(capsys, tmp_path):
    # the 2group suite checks the symmetric structure either way, so its
    # naturality rows are sized by that structure's families: at m=4 the
    # 64^3 tuples of naturality(a) run exhaustively from both documents
    ac, sm = tmp_path / "dn4.json", tmp_path / "dn4_sm.json"
    assert main(["fixture", "dual-numbers", "--mod", "4", "--out", str(ac)]) == 0
    assert main(["convert", str(ac), "--to", "sm", "--out", str(sm)]) == 0
    rows = []
    for path in (ac, sm):
        code, out, _ = run(capsys, "check", str(path), "--suite", "2group")
        assert code == 0
        rows.append([line.split(" time=")[0] for line in out.splitlines() if line.startswith("naturality(")])
    assert rows[0] == rows[1]
    assert rows[0][0].split() == ["naturality(a)", "pass", "instances=262144", "mode=exhaustive"]
