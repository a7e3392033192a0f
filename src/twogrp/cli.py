"""Batch driver.

Subcommands:

* ``check FILE --suite ...``    run an axiom suite, print one report line per
  law, exit 0 iff every checked law passes (1 on failure, 2 on bad input);
* ``convert FILE --to ac|sm``   translate the sum presentation (of the unique
  structure block, or of the whole 2-ring when one is present) and write the
  canonically serialized document;
* ``zero-iso FILE --functor F`` compute the closed-form zero isomorphism or
  enumerate all of them by brute force, either mode on validated endpoints;
* ``fixture NAME ...``          emit a fixture document (dual-numbers,
  super-line, strict-2ring or derivation-2ring).

``check`` of a functor or transformation suite, ``convert`` and ``zero-iso``
first check the carrier's groupoid laws and abort (exit 1) naming the
failing ones: whatever they go on to read would blame a structure.

Exit codes are a total contract: 0 = all checks pass, 1 = a semantic
failure (axiom violation, failed precondition, wrong presentation), 2 =
malformed input (parse error, dangling reference, unknown fixture).

Sampling is chosen per suite: when the largest object-tuple space of the
suite exceeds 2^19 instances, every law of it with more than 2^16 instances
is sampled (2^16 draws, seed 0), and the report lines say so; naturality
rows apply the same rule to morphism tuples of the largest arity among the
families they check, those of the structure as checked (after any
translation); a row whose own space is no larger than the sample runs
exhaustively.
Everything at desk scale runs exhaustively.  A command converts each
structure block it needs in the other presentation at most once (a functor
whose source and target are the same block gets one converted structure for
both endpoints), and every translation checks with the sample ``--suite ac``
would use on its carrier.  A ring conversion checks the ring's data rows,
the additive half's suite among them, at that sample and then the ring
suite unsampled; the translation of the additive half re-checks only its
output.
"""

from __future__ import annotations

import argparse
import re
import sys

from .ac import AC_LAWS, to_ac, to_sm, validate_ac
from .document import Block, StructureDocument, parse_document, write_document
from .errors import DocumentError, StructureError
from .fixtures import (
    build_derivation_2ring,
    build_dual_numbers_2group,
    build_mult_endofunctor,
    build_strict_2ring,
    build_super_line_2group,
    ring_dual_numbers,
    ring_zmod,
)
from .functors import (
    AF1,
    SF1,
    SF2,
    T1,
    UNIT_SQUARES,
    canonical_zero_iso,
    check_fsum_naturality,
    enumerate_zero_isos,
    validate_ac_functor,
    validate_sm_functor,
    validate_transformation,
)
from .groupoid import validate_groupoid
from .monoidal import SM_LAWS, _check_weak_inverses, check_structure_naturality, validate_sm
from .report import Report
from .rings import RING_SUITES, validate_ac_ring, validate_jp, validate_quang, validate_two_ring_data

SUITES = ("sm", "ac", "2group", "sm-functor", "ac-functor", "transformation", "quang", "jp", "acring")
AUTO_LIMIT = 1 << 19
AUTO_SAMPLE = 1 << 16

_SUITE_LAWS = {
    "sm": SM_LAWS, "ac": AC_LAWS, "2group": SM_LAWS, "sm-functor": (SF1, SF2, *UNIT_SQUARES["SF3"]),
    "ac-functor": (AF1, *UNIT_SQUARES["AF2"]), "transformation": (T1,),
    **{suite: laws for suite, (_, laws) in RING_SUITES.items()},
}
# the largest index space of each suite's laws, as a power of the object
# count: a law that reads a 2-ring's fixed object x ranges over objects^(arity+1)
_SUITE_MAX_ARITY = {
    suite: max(law.arity + 1 if "x" in law.symbols else law.arity for law in laws)
    for suite, laws in _SUITE_LAWS.items()
}


class CliFailure(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _auto_sample(count: int, arity: int) -> int | None:
    return AUTO_SAMPLE if count ** arity > AUTO_LIMIT else None


def _nat_sample(doc: StructureDocument, families) -> int | None:
    """The suite rule over morphism tuples of the largest arity of ``families``."""
    return _auto_sample(len(doc.groupoid.morphisms), max(fam.arity for fam in families))


def _load(path: str) -> StructureDocument:
    """The document at ``path``; its text is handed to ``parse_document``
    and held by nothing else, so the parse decides how long it lives."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_document(fh.read())
    except (OSError, UnicodeDecodeError) as err:
        raise CliFailure(f"cannot read {path}: {err}", 2) from err
    except DocumentError as err:
        raise CliFailure(f"{path}: {err}", 2) from err


def _emit(doc: StructureDocument, out: str | None) -> None:
    """Write the canonical text of ``doc`` to the file ``out``, or to stdout."""
    if out is None:
        write_document(doc, sys.stdout)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            write_document(doc, fh)


def _pick(doc: StructureDocument, kinds: tuple[str, ...], name: str | None) -> Block:
    try:
        if name is not None:
            blk = doc.block(name)
            if blk.kind not in kinds:
                raise DocumentError(f"block {name!r} has kind {blk.kind!r}, wanted {'/'.join(kinds)}")
            return blk
        return doc.unique(*kinds)
    except DocumentError as err:
        raise CliFailure(str(err), 2) from err


def _convert_sample(structure) -> int | None:
    """The sample a translation of ``structure`` checks with: the one
    ``check --suite ac`` uses on that carrier, as AC1 is the largest space
    a translation checks in either direction."""
    return _auto_sample(len(structure.carrier.objects), _SUITE_MAX_ARITY["ac"])


def _endpoint(blk: Block, kind: str):
    """The structure of ``blk`` in the ``kind`` presentation.  A translation
    validates its input; a block already in ``kind`` is validated here with
    its own suite at the same sample, so no route reads endpoint data that
    fail it."""
    s, sample = blk.obj, _convert_sample(blk.obj)
    if blk.kind != kind:
        return (to_sm if kind == "sm" else to_ac)(s, sample=sample)
    validate, suite = (validate_sm, "symmetric") if kind == "sm" else (validate_ac, "AC")
    validate(s, sample=sample).require(f"input fails the {suite} axiom suite")
    return s


def _endpoints(src_blk: Block, tgt_blk: Block, kind: str) -> tuple:
    """Both functor endpoints in one presentation, converting or validating
    a shared source/target block once."""
    src = _endpoint(src_blk, kind)
    return src, src if tgt_blk is src_blk else _endpoint(tgt_blk, kind)


def _structure_reports(doc: StructureDocument, blk: Block, args) -> list[Report]:
    s = blk.obj
    n = len(doc.groupoid.objects)
    sample = _auto_sample(n, _SUITE_MAX_ARITY[args.suite])
    reports = [validate_groupoid(doc.groupoid)]
    if args.suite == "2group":
        if blk.kind == "ac":
            s = to_sm(s, sample=_convert_sample(s))
        if not reports[0].ok:
            return reports
        # validate_2group, with the carrier rows above printed once
        reports.append(validate_sm(s, sample=sample))
    else:
        reports.append((validate_ac if blk.kind == "ac" else validate_sm)(s, sample=sample))
    laws = {law.name for law in _SUITE_LAWS[args.suite]}
    if reports[0].ok and all(c.law in laws for c in reports[1].failures()):
        # the later rows read the carrier and the tables the data rows check
        if args.suite == "2group":
            _check_weak_inverses(s, reports[1])
        reports.append(check_structure_naturality(s, sample=_nat_sample(doc, s.families().values())))
    return reports


def _functor_endpoint_blocks(doc: StructureDocument, fun_blk: Block) -> tuple[Block, Block]:
    """The source and target blocks of the functor block ``fun_blk``, which
    must be sm or ac structures, once the carrier passes its groupoid laws:
    a suite that reads a carrier failing them would blame the structures."""
    src_blk = doc.block(fun_blk.refs["source"])
    tgt_blk = doc.block(fun_blk.refs["target"])
    if src_blk.kind == "mul" or tgt_blk.kind == "mul":
        raise CliFailure("functor endpoints must be sm or ac structures", 1)
    validate_groupoid(doc.groupoid).require("carrier fails")
    return src_blk, tgt_blk


def _functor_reports(doc: StructureDocument, args) -> list[Report]:
    blk = _pick(doc, ("functor",), args.functor or args.name)
    src_blk, tgt_blk = _functor_endpoint_blocks(doc, blk)
    n = len(doc.groupoid.objects)
    sample = _auto_sample(n, _SUITE_MAX_ARITY[args.suite])
    if args.suite == "sm-functor":
        src, tgt = _endpoints(src_blk, tgt_blk, "sm")
        rep = validate_sm_functor(blk.obj, src, tgt, sample=sample)
    else:
        src, tgt = _endpoints(src_blk, tgt_blk, "ac")
        rep = validate_ac_functor(blk.obj, src, tgt, sample=sample)
    nat = check_fsum_naturality(blk.obj, src, tgt, sample=_nat_sample(doc, [blk.obj.fsum]))
    return [rep, nat]


def _transformation_reports(doc: StructureDocument, args) -> list[Report]:
    blk = _pick(doc, ("transformation",), args.functor or args.name)
    src_blk, tgt_blk = _functor_endpoint_blocks(doc, doc.block(blk.refs["source"]))
    src, tgt = _endpoints(src_blk, tgt_blk, src_blk.kind)
    return [validate_transformation(blk.obj, src, tgt, sample=_nat_sample(doc, [blk.obj.tau]))]


def _ring_reports(doc: StructureDocument, args) -> list[Report]:
    blk = _pick(doc, ("tworing",), args.name)
    ring = blk.obj
    want = RING_SUITES[args.suite][0]
    if ring.presentation != want:
        raise CliFailure(
            f"2-ring is in the {ring.presentation!r} presentation; run `convert --to {want}` first", 1
        )
    n = len(doc.groupoid.objects)
    sample = _auto_sample(n, _SUITE_MAX_ARITY[args.suite])
    reports = [validate_two_ring_data(ring, sample=sample)]
    if reports[0].ok:
        # validate_two_ring_data has just checked the family endpoints
        validator = {"quang": validate_quang, "jp": validate_jp, "acring": validate_ac_ring}[args.suite]
        reports.append(validator(ring, check_data=False, sample=sample))
        reports.append(check_structure_naturality(ring, sample=_nat_sample(doc, ring.families().values())))
    return reports


def cmd_check(args) -> int:
    doc = _load(args.file)
    try:
        if args.suite in ("sm", "ac", "2group"):
            kinds = ("sm", "ac") if args.suite == "2group" else (args.suite,)
            blk = _pick(doc, kinds, args.name)
            reports = _structure_reports(doc, blk, args)
        elif args.suite in ("sm-functor", "ac-functor"):
            reports = _functor_reports(doc, args)
        elif args.suite == "transformation":
            reports = _transformation_reports(doc, args)
        else:
            reports = _ring_reports(doc, args)
    except StructureError as err:
        print(f"check aborted: {err}")
        return 1
    lines = []
    ok = True
    for rep in reports:
        ok = ok and rep.ok
        lines.extend(rep.lines(legs=args.witness))
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0 if ok else 1


def cmd_convert(args) -> int:
    doc = _load(args.file)
    rings = doc.of_kind("tworing")
    if len(rings) > 1:
        raise CliFailure("convert expects exactly one tworing block", 2)
    blk = rings[0] if rings else _pick(doc, ("sm", "ac"), args.name)
    try:
        validate_groupoid(doc.groupoid).require("carrier fails")
        if rings:
            replaced = _convert_ring(blk, args)
        else:
            if blk.kind == args.to:
                raise CliFailure(f"structure {blk.name!r} is already in the {args.to!r} presentation", 1)
            convert = to_ac if args.to == "ac" else to_sm
            replaced = {blk.name: Block(args.to, blk.name, convert(blk.obj, sample=_convert_sample(blk.obj)))}
    except StructureError as err:
        print(f"convert aborted: {err}")
        return 1
    new_blocks = [replaced.get(b.name, b) for b in doc.blocks]
    _emit(StructureDocument(doc.groupoid, new_blocks), args.out)
    return 0


def _convert_ring(blk: Block, args) -> dict[str, Block]:
    """The 2-ring block ``blk`` and its additive block in the ``--to``
    presentation, by block name."""
    from .rings import ac_ring_to_quang, quang_to_ac_ring

    ring = blk.obj
    if ring.presentation == args.to:
        raise CliFailure(f"2-ring is already in the {args.to!r} presentation", 1)
    convert = quang_to_ac_ring if args.to == "ac" else ac_ring_to_quang
    converted = convert(ring, sample=_convert_sample(ring))
    add_name = blk.refs["add"]
    return {add_name: Block(args.to, add_name, converted.add),
            blk.name: Block("tworing", blk.name, converted, blk.refs)}


def cmd_zero_iso(args) -> int:
    doc = _load(args.file)
    blk = _pick(doc, ("functor",), args.functor)
    try:
        src_blk, tgt_blk = _functor_endpoint_blocks(doc, blk)
        if args.mode == "canonical":
            result = canonical_zero_iso(blk.obj, *_endpoints(src_blk, tgt_blk, "sm"))
            print(f"canonical zero isomorphism: {result}")
            return 0
        mode = "SF3" if src_blk.kind == "sm" else "AF2"
        sols = enumerate_zero_isos(blk.obj, *_endpoints(src_blk, tgt_blk, src_blk.kind), mode)
        print(f"{len(sols)} solution(s) [{mode}]" + (": " + ", ".join(sols) if sols else ""))
        return 0
    except StructureError as err:
        print(f"zero-iso aborted: {err}")
        return 1


_RING_NAME = re.compile(r"^z(\d+)(e?)$")


def cmd_fixture(args) -> int:
    gpd = None
    blocks: list[Block] = []
    if args.name == "dual-numbers":
        try:
            structure = build_dual_numbers_2group(args.mod)
        except StructureError as err:
            raise CliFailure(str(err), 2) from err
        gpd = structure.carrier
        blocks.append(Block("ac", "add", structure))
        if args.mult:
            try:
                a, b = (int(v) for v in args.mult.split(","))
            except ValueError:
                raise CliFailure(f"--mult expects 'a,b', got {args.mult!r}", 2) from None
            fun = build_mult_endofunctor(args.mod, a, b, structure)
            blocks.append(Block("functor", "F", fun, {"source": "add", "target": "add"}))
    elif args.name == "super-line":
        structure = build_super_line_2group()
        gpd = structure.carrier
        blocks.append(Block("sm", "add", structure))
    elif args.name in ("strict-2ring", "derivation-2ring"):
        match = _RING_NAME.match(args.ring or "")
        if args.name == "strict-2ring" and not match:
            raise CliFailure(f"unknown ring {args.ring!r}; expected z<m> or z<m>e", 2)
        try:
            if args.name == "derivation-2ring":
                ring = build_derivation_2ring(args.mod)
            else:
                m = int(match.group(1))
                ring = build_strict_2ring(ring_dual_numbers(m) if match.group(2) else ring_zmod(m))
        except StructureError as err:
            raise CliFailure(str(err), 2) from err
        gpd = ring.carrier
        blocks.append(Block("sm", "add", ring.add))
        blocks.append(Block("mul", "mul", ring.mul))
        blocks.append(Block("tworing", "ring", ring, {"add": "add", "mul": "mul"}))
    else:
        raise CliFailure(f"unknown fixture {args.name!r}", 2)
    _emit(StructureDocument(gpd, blocks), args.out)
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twogrp",
        description="check, convert and generate finite groupoid structures with "
        "symmetric-monoidal, AC and 2-ring coherence data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run an axiom suite against a document")
    p.add_argument("file")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--name", help="block to check (default: the unique block of the needed kind)")
    p.add_argument("--functor", help="functor/transformation block to check")
    p.add_argument("--witness", action="store_true", help="print full composite chains leg by leg")
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("convert", help="translate between the sm and ac presentations")
    p.add_argument("file")
    p.add_argument("--to", required=True, choices=("ac", "sm"))
    p.add_argument("--name", help="structure block to convert")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("zero-iso", help="compute or enumerate zero isomorphisms of a functor")
    p.add_argument("file")
    p.add_argument("--functor", required=True, help="functor block name")
    p.add_argument("--mode", choices=("canonical", "enumerate"), default="canonical")
    p.set_defaults(fn=cmd_zero_iso)

    p = sub.add_parser("fixture", help="emit a fixture document")
    p.add_argument("name", help="dual-numbers | super-line | strict-2ring | derivation-2ring")
    p.add_argument("--mod", type=int, default=5, help="modulus for dual-numbers and derivation-2ring")
    p.add_argument("--mult", help="a,b multiplier pair: also emit the multiplication endofunctor")
    p.add_argument("--ring", help="ring for strict-2ring: z<m> or z<m>e")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(fn=cmd_fixture)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliFailure as err:
        print(str(err), file=sys.stderr)
        return err.code
    except DocumentError as err:
        print(str(err), file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
