"""The 0/1/2 exit-code contract of ``twogrp check`` on damaged documents.

Each mutant is a fixture document with one table row damaged: the row is
dropped, made one cell wider or narrower, or one cell is replaced by a
number, null, a list, an object or an undeclared id.  The mutants are drawn
with a pinned seed; every one goes through ``twogrp check`` in-process, and
its exit code and first output line are pinned in
``data/parse_mutations.txt``.
"""

import contextlib
import io
import json
import random
import re
from pathlib import Path

from twogrp.cli import main

PINNED = Path(__file__).parent / "data" / "parse_mutations.txt"
MUTANTS_PER_DOCUMENT = 40

# (name, commands that write it, suite it is checked with)
DOCUMENTS = (
    ("sl", [["fixture", "super-line"]], "2group"),
    ("dn2", [["fixture", "dual-numbers", "--mod", "2", "--mult", "1,1"]], "ac-functor"),
    ("z4", [["fixture", "strict-2ring", "--ring", "z4"]], "quang"),
    ("z4_ac", [["fixture", "strict-2ring", "--ring", "z4"], ["convert", "{z4}", "--to", "ac"]], "acring"),
)


def _tables(data: dict) -> list[tuple[str, list]]:
    """Every table of a document: the carrier's sections and each block's
    array-of-rows fields, in document order."""
    out = [(key, data[key]) for key in ("morphisms", "compose", "identities", "inverses")]
    for blk in data["structures"]:
        for key, rows in sorted(blk.items()):
            if isinstance(rows, list) and rows:
                out.append((f"{blk['name']}.{key}", rows))
    return out


def _damage(row, kind: str, rng: random.Random):
    """A copy of ``row`` (a list of ids, or a morphism object) with one
    defect of the given kind."""
    row = json.loads(json.dumps(row))
    cells = sorted(row) if isinstance(row, dict) else list(range(len(row)))
    if kind == "wider":
        if isinstance(row, dict):
            row["extra"] = row[cells[0]]
        else:
            row.append(row[-1])
        return row
    if kind == "narrower":
        del row[cells[-1]]
        return row
    cell = rng.choice(cells)
    row[cell] = {"number": 7, "null": None, "list": [row[cell]], "object": {"id": row[cell]},
                 "undeclared id": "undeclared"}[kind]
    return row


KINDS = ("drop", "wider", "narrower", "number", "null", "list", "object", "undeclared id")


def mutants(data: dict, rng: random.Random):
    """``MUTANTS_PER_DOCUMENT`` (label, mutated document) pairs."""
    for _ in range(MUTANTS_PER_DOCUMENT):
        kind = rng.choice(KINDS)
        name, rows = rng.choice(_tables(data))
        pos = rng.randrange(len(rows))
        doc = json.loads(json.dumps(data))
        table = dict(_tables(doc))[name]
        if kind == "drop":
            del table[pos]
        else:
            table[pos] = _damage(table[pos], kind, rng)
        yield f"{name}[{pos}] {kind}", doc


def _run(argv: list[str]) -> tuple[int | str, str]:
    """Exit code and output of ``main``; an exception that escapes it (a
    breach of the contract) is recorded as ``raises`` and its message."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # pinned like an exit code, so a crash shows as a diff
            return "raises", f"{type(exc).__name__}: {exc}"
    return code, out.getvalue() or err.getvalue()


def pinned_mutation_outcomes(tmp_path, dump=json.dumps) -> str:
    """One line per mutant: document, mutation, exit code and the first line
    ``check`` prints (``time=`` stripped, the file shown by name), each
    mutant written by ``dump``.  ``PINNED`` holds this text; write the
    function's output there to regenerate it."""
    rng = random.Random(20251019)
    paths = {name: tmp_path / f"{name}.json" for name, _, _ in DOCUMENTS}
    lines = []
    for name, commands, suite in DOCUMENTS:
        for argv in commands:
            argv = [arg.format(**{k: str(p) for k, p in paths.items()}) for arg in argv]
            assert main([*argv, "--out", str(paths[name])]) == 0
        data = json.loads(paths[name].read_text(encoding="utf-8"))
        mutant_path = tmp_path / "mutant.json"
        for label, doc in mutants(data, rng):
            mutant_path.write_text(dump(doc), encoding="utf-8")
            code, text = _run(["check", str(mutant_path), "--suite", suite])
            first = (text.splitlines() or [""])[0].replace(str(mutant_path), "mutant.json")
            first = re.sub(r" time=\S+", "", first)
            lines.append(f"{name} {label}: exit {code}: {first}\n")
    return "".join(lines)


def test_mutant_exit_codes_and_first_lines_match_pinned(tmp_path):
    got = pinned_mutation_outcomes(tmp_path)
    assert got == PINNED.read_text(encoding="utf-8")
    assert ": exit raises: " not in got
