"""Canonical document bytes of the shipped fixtures, pinned by digest.

Each document is written by ``twogrp fixture`` or by ``twogrp convert`` of a
fixture document (to the other presentation and back again), in-process;
``data/document_digests.txt`` holds one ``sha256  name`` line per document.
The derivation 2-rings fail the 2R suite a conversion requires, so only
their fixture documents are pinned.
"""

import hashlib
from pathlib import Path

from twogrp.cli import main

PINNED = Path(__file__).parent / "data" / "document_digests.txt"

# (name, fixture command, presentation the fixture is written in)
FIXTURES = (
    ("dn2", ["dual-numbers", "--mod", "2"], "ac"),
    ("dn2-mult", ["dual-numbers", "--mod", "2", "--mult", "1,1"], "ac"),
    ("dn3", ["dual-numbers", "--mod", "3"], "ac"),
    ("dn3-mult", ["dual-numbers", "--mod", "3", "--mult", "1,2"], "ac"),
    ("super-line", ["super-line"], "sm"),
    ("z4", ["strict-2ring", "--ring", "z4"], "sm"),
    ("z3e", ["strict-2ring", "--ring", "z3e"], "sm"),
)
# (name, fixture command) of the fixtures that do not convert
UNCONVERTED = (
    ("der2", ["derivation-2ring", "--mod", "2"]),
    ("der3", ["derivation-2ring", "--mod", "3"]),
)


def document_digests(tmp_path) -> str:
    """One line per document: the fixture, its conversion to the other
    presentation and that document converted back.  ``PINNED`` holds this
    text; write the function's output there to regenerate it."""
    lines = []
    for name, command, kind in FIXTURES:
        other = "sm" if kind == "ac" else "ac"
        path = tmp_path / f"{name}.json"
        there, back = tmp_path / f"{name}-{other}.json", tmp_path / f"{name}-{other}-{kind}.json"
        assert main(["fixture", *command, "--out", str(path)]) == 0
        assert main(["convert", str(path), "--to", other, "--out", str(there)]) == 0
        assert main(["convert", str(there), "--to", kind, "--out", str(back)]) == 0
        for doc, label in ((path, name), (there, f"{name} --to {other}"), (back, f"{name} --to {other} --to {kind}")):
            lines.append(f"{hashlib.sha256(doc.read_bytes()).hexdigest()}  {label}\n")
    for name, command in UNCONVERTED:
        path = tmp_path / f"{name}.json"
        assert main(["fixture", *command, "--out", str(path)]) == 0
        lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}\n")
    return "".join(lines)


def test_fixture_and_convert_documents_match_pinned_digests(tmp_path):
    assert document_digests(tmp_path) == PINNED.read_text(encoding="utf-8")
