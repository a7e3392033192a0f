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


def written_documents(tmp_path) -> list[tuple[str, Path]]:
    """Every pinned document as ``(name, path)``: each fixture, its
    conversion to the other presentation and that document converted back,
    then the unconverted fixtures, written into ``tmp_path``."""
    docs = []
    for name, command, kind in FIXTURES:
        other = "sm" if kind == "ac" else "ac"
        path = tmp_path / f"{name}.json"
        there, back = tmp_path / f"{name}-{other}.json", tmp_path / f"{name}-{other}-{kind}.json"
        assert main(["fixture", *command, "--out", str(path)]) == 0
        assert main(["convert", str(path), "--to", other, "--out", str(there)]) == 0
        assert main(["convert", str(there), "--to", kind, "--out", str(back)]) == 0
        docs += [(name, path), (f"{name} --to {other}", there), (f"{name} --to {other} --to {kind}", back)]
    for name, command in UNCONVERTED:
        path = tmp_path / f"{name}.json"
        assert main(["fixture", *command, "--out", str(path)]) == 0
        docs.append((name, path))
    return docs


def document_digests(tmp_path) -> str:
    """One ``sha256  name`` line per written document.  ``PINNED`` holds
    this text; write the function's output there to regenerate it."""
    return "".join(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}\n"
                   for name, path in written_documents(tmp_path))


def test_fixture_and_convert_documents_match_pinned_digests(tmp_path):
    assert document_digests(tmp_path) == PINNED.read_text(encoding="utf-8")
