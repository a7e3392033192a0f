"""Batch driver.

Subcommands:

* ``check FILE --suite ...``    run an axiom suite, print one report line per
  law, exit 0 iff every checked law passes (1 on failure, 2 on bad input);
* ``convert FILE --to ac|sm``   translate the sum presentation (of the unique
  structure block, or of the whole 2-ring when one is present) and write the
  canonically serialized document;
* ``zero-iso FILE --functor F`` compute the closed-form zero isomorphism or
  enumerate all of them by brute force;
* ``fixture NAME ...``          emit a fixture document.

Exit codes are a total contract: 0 = all checks pass, 1 = a semantic
failure (axiom violation, failed precondition, wrong presentation), 2 =
malformed input (parse error, dangling reference, unknown fixture).

Instance spaces larger than 2^19 are sampled (2^16 draws, seed 0) and the
report lines say so; everything at desk scale runs exhaustively.  With
``--parallel N`` the loops are partitioned into chunks fanned out to N
worker threads; reports are identical for every N.
"""

from __future__ import annotations

import argparse
import re
import sys

from .ac import ACStructure, to_ac, to_sm, validate_ac
from .document import Block, StructureDocument, parse_document, serialize_document
from .errors import DocumentError, StructureError
from .fixtures import (
    build_dual_numbers_2group,
    build_mult_endofunctor,
    build_strict_2ring,
    build_super_line_2group,
    ring_dual_numbers,
    ring_zmod,
)
from .functors import (
    canonical_zero_iso,
    check_fsum_naturality,
    enumerate_zero_isos,
    validate_ac_functor,
    validate_sm_functor,
    validate_transformation,
)
from .groupoid import check_naturality, validate_groupoid
from .monoidal import MonStructure, check_structure_naturality, validate_2group, validate_sm
from .report import Report
from . import expr as ex
from .rings import validate_ac_ring, validate_jp, validate_quang, validate_two_ring_data

SUITES = ("sm", "ac", "2group", "sm-functor", "ac-functor", "transformation", "quang", "jp", "acring")
AUTO_LIMIT = 1 << 19
AUTO_SAMPLE = 1 << 16

_SUITE_MAX_ARITY = {
    "sm": 4, "ac": 8, "2group": 4, "sm-functor": 3, "ac-functor": 4,
    "transformation": 2, "quang": 4, "jp": 5, "acring": 5,
}


class CliFailure(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _auto_sample(count: int, arity: int) -> int | None:
    return AUTO_SAMPLE if count ** arity > AUTO_LIMIT else None


def _load(path: str) -> StructureDocument:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise CliFailure(f"cannot read {path}: {err}", 2) from err
    try:
        return parse_document(text)
    except DocumentError as err:
        raise CliFailure(f"{path}: {err}", 2) from err


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


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


def _as_sm(blk: Block) -> MonStructure:
    if blk.kind == "sm":
        return blk.obj
    return to_sm(blk.obj)


def _as_ac(blk: Block) -> ACStructure:
    if blk.kind == "ac":
        return blk.obj
    return to_ac(blk.obj)


def _structure_reports(doc: StructureDocument, blk: Block, args) -> list[Report]:
    s = blk.obj
    n = len(doc.groupoid.objects)
    sample = _auto_sample(n, _SUITE_MAX_ARITY[args.suite])
    nat_sample = _auto_sample(len(doc.groupoid.morphisms), 4 if blk.kind == "ac" else 3)
    reports = [validate_groupoid(doc.groupoid)]
    if args.suite == "2group":
        sm = _as_sm(blk)
        rep = validate_2group(sm, sample=sample, workers=args.parallel)
        reports.append(rep)
        reports.append(check_structure_naturality(sm, sample=nat_sample))
    elif blk.kind == "ac":
        reports.append(validate_ac(s, sample=sample, workers=args.parallel))
        reports.append(check_structure_naturality(s, sample=nat_sample))
    else:
        reports.append(validate_sm(s, sample=sample, workers=args.parallel))
        reports.append(check_structure_naturality(s, sample=nat_sample))
    return reports


def _functor_reports(doc: StructureDocument, args) -> list[Report]:
    blk = _pick(doc, ("functor",), args.functor or args.name)
    src_blk = doc.block(blk.refs["source"])
    tgt_blk = doc.block(blk.refs["target"])
    if src_blk.kind == "mul" or tgt_blk.kind == "mul":
        raise CliFailure("functor endpoints must be sm or ac structures", 1)
    n = len(doc.groupoid.objects)
    sample = _auto_sample(n, _SUITE_MAX_ARITY[args.suite])
    nat_sample = _auto_sample(len(doc.groupoid.morphisms), 2)
    if args.suite == "sm-functor":
        src, tgt = _as_sm(src_blk), _as_sm(tgt_blk)
        rep = validate_sm_functor(blk.obj, src, tgt, sample=sample, workers=args.parallel)
    else:
        src, tgt = _as_ac(src_blk), _as_ac(tgt_blk)
        rep = validate_ac_functor(blk.obj, src, tgt, sample=sample, workers=args.parallel)
    nat = check_fsum_naturality(blk.obj, src, tgt, sample=nat_sample)
    return [rep, nat]


def _transformation_reports(doc: StructureDocument, args) -> list[Report]:
    blk = _pick(doc, ("transformation",), args.functor or args.name)
    fsrc = doc.block(blk.refs["source"])
    src = doc.block(fsrc.refs["source"]).obj
    tgt = doc.block(fsrc.refs["target"]).obj
    nat_sample = _auto_sample(len(doc.groupoid.morphisms), 1)
    return [
        validate_transformation(blk.obj, src, tgt, sample=nat_sample, workers=args.parallel)
    ]


def _ring_reports(doc: StructureDocument, args) -> list[Report]:
    blk = _pick(doc, ("tworing",), args.name)
    ring = blk.obj
    want = "ac" if args.suite == "acring" else "sm"
    if ring.presentation != want:
        raise CliFailure(
            f"2-ring is in the {ring.presentation!r} presentation; run `convert --to {want}` first", 1
        )
    n = len(doc.groupoid.objects)
    sample = _auto_sample(n, _SUITE_MAX_ARITY[args.suite])
    nat_sample = _auto_sample(len(doc.groupoid.morphisms), 3)
    reports = [validate_two_ring_data(ring, sample=sample)]
    if reports[0].ok:
        validator = {"quang": validate_quang, "jp": validate_jp, "acring": validate_ac_ring}[args.suite]
        reports.append(validator(ring, sample=sample, workers=args.parallel))
        env = ring.env()
        nat = Report()
        for fam_name, fam in ring.families().items():
            nat.extend(
                check_naturality(
                    fam,
                    ex.mor_action(fam.src_expr, env),
                    ex.mor_action(fam.tgt_expr, env),
                    domain=ring.carrier,
                    sample=nat_sample,
                    label=f"naturality({fam_name})",
                )
            )
        reports.append(nat)
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
        _emit(text, args.out)
    return 0 if ok else 1


def cmd_convert(args) -> int:
    doc = _load(args.file)
    rings = doc.of_kind("tworing")
    try:
        if rings:
            if len(rings) != 1:
                raise CliFailure("convert expects exactly one tworing block", 2)
            return _convert_ring(doc, rings[0], args)
        blk = _pick(doc, ("sm", "ac"), args.name)
        if blk.kind == args.to:
            raise CliFailure(f"structure {blk.name!r} is already in the {args.to!r} presentation", 1)
        converted = to_ac(blk.obj) if args.to == "ac" else to_sm(blk.obj)
        new_blocks = [
            Block(args.to, b.name, converted, b.refs) if b.name == blk.name else b
            for b in doc.blocks
        ]
        _emit(serialize_document(StructureDocument(doc.groupoid, new_blocks)), args.out)
        return 0
    except StructureError as err:
        print(f"convert aborted: {err}")
        return 1


def _convert_ring(doc: StructureDocument, blk: Block, args) -> int:
    from .rings import ac_ring_to_quang, quang_to_ac_ring

    ring = blk.obj
    if ring.presentation == args.to:
        raise CliFailure(f"2-ring is already in the {args.to!r} presentation", 1)
    converted = quang_to_ac_ring(ring) if args.to == "ac" else ac_ring_to_quang(ring)
    add_name = blk.refs["add"]
    new_blocks = []
    for b in doc.blocks:
        if b.name == add_name:
            new_blocks.append(Block(args.to, add_name, converted.add, b.refs))
        elif b.name == blk.name:
            new_blocks.append(Block("tworing", blk.name, converted, b.refs))
        else:
            new_blocks.append(b)
    _emit(serialize_document(StructureDocument(doc.groupoid, new_blocks)), args.out)
    return 0


def cmd_zero_iso(args) -> int:
    doc = _load(args.file)
    blk = _pick(doc, ("functor",), args.functor)
    src_blk = doc.block(blk.refs["source"])
    tgt_blk = doc.block(blk.refs["target"])
    if src_blk.kind == "mul" or tgt_blk.kind == "mul":
        raise CliFailure("functor endpoints must be sm or ac structures", 1)
    try:
        if args.mode == "canonical":
            result = canonical_zero_iso(blk.obj, _as_sm(src_blk), _as_sm(tgt_blk))
            print(f"canonical zero isomorphism: {result}")
            return 0
        mode = "SF3" if src_blk.kind == "sm" else "AF2"
        sols = enumerate_zero_isos(blk.obj, src_blk.obj, tgt_blk.obj, mode)
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
    elif args.name == "strict-2ring":
        match = _RING_NAME.match(args.ring or "")
        if not match:
            raise CliFailure(f"unknown ring {args.ring!r}; expected z<m> or z<m>e", 2)
        m = int(match.group(1))
        try:
            table = ring_dual_numbers(m) if match.group(2) else ring_zmod(m)
            ring = build_strict_2ring(table)
        except StructureError as err:
            raise CliFailure(str(err), 2) from err
        gpd = ring.carrier
        blocks.append(Block("sm", "add", ring.add))
        blocks.append(Block("mul", "mul", ring.mul))
        blocks.append(Block("tworing", "ring", ring, {"add": "add", "mul": "mul"}))
    else:
        raise CliFailure(f"unknown fixture {args.name!r}", 2)
    _emit(serialize_document(StructureDocument(gpd, blocks)), args.out)
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
    p.add_argument("--parallel", type=int, default=1, metavar="N",
                   help="partition instance spaces across N worker threads")
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
    p.add_argument("name", help="dual-numbers | super-line | strict-2ring")
    p.add_argument("--mod", type=int, default=5, help="modulus for dual-numbers")
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
