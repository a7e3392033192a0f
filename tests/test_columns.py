"""Total families held as value columns against the same families as dicts.

A family table keyed by exactly the tuples of the carrier's sorted objects,
in order, is read as a ``groupoid.Column`` when it has at least
``diagram.KERNEL_FLOOR`` entries, whether the table is cut (its rows take
more than ``document._CHUNK`` characters) or loaded whole.  The tests lower
both thresholds for the parse, so that the small pinned documents hold
columns, and hold those documents to the whole-text read at the real floor,
whose families are dicts: equal documents and written bytes, the same
report rows and witnesses from every suite with every loop in the kernel
and with none, and the kernel's flip cases on column families.
"""

import contextlib
import io
import re
from dataclasses import replace
from itertools import product

import pytest
from test_chunked_read import families, whole
from test_document_digests import written_documents

from twogrp import cli, diagram, document
from twogrp.cli import SUITES, main
from twogrp.document import parse_document, serialize_document
from twogrp.groupoid import Column, NatFamily


@pytest.fixture(scope="module")
def texts(tmp_path_factory) -> dict[str, str]:
    return {name: path.read_text(encoding="utf-8")
            for name, path in written_documents(tmp_path_factory.mktemp("docs"))}


def column_parse(text: str, chunk: int = 0):
    """``parse_document`` with each table whose rows take more than
    ``chunk`` characters cut, and every total family read as a column."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(document, "_CHUNK", chunk)
        mp.setattr(diagram, "KERNEL_FLOOR", 0)
        return parse_document(text)


@pytest.mark.parametrize("chunk", [0, 300])
def test_a_column_read_gives_the_whole_text_document_and_bytes(texts, chunk):
    for name, text in texts.items():
        doc, ref = column_parse(text, chunk), whole(text)
        assert doc == ref and ref == doc, name
        assert serialize_document(doc) == text, name
        kinds = set()
        for (where, fam), (_, ref_fam) in zip(families(doc), families(ref), strict=True):
            assert type(ref_fam.components) is dict
            total = ref_fam.components.keys() == set(product(doc.groupoid.objects_sorted, repeat=fam.arity))
            assert isinstance(fam.components, Column) is total, (name, where)
            kinds.add(type(fam.components))
        assert Column in kinds, name


def check(path, suite: str, parse, floor) -> str:
    """Exit code, stdout (times stripped) and stderr of ``check --witness``
    with the CLI's parse replaced and the kernel floor at ``floor``."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "parse_document", parse)
        mp.setattr(diagram, "KERNEL_FLOOR", floor)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", str(path), "--suite", suite, "--witness"])
    rows = re.sub(r" time=\S+", "", out.getvalue())
    return f"exit {code}\n{rows}{err.getvalue()}"


def test_every_suite_gives_the_dict_rows_on_column_families(texts, tmp_path):
    seen = set()
    for n, (name, text) in enumerate(texts.items()):
        path = tmp_path / f"{n}.json"
        path.write_text(text, encoding="utf-8")
        assert any(isinstance(fam.components, Column) for _, fam in families(column_parse(text, 300))), name
        for suite in SUITES:
            ref = check(path, suite, whole, diagram.KERNEL_FLOOR)
            seen.add(ref.split("\n", 1)[0])
            if ref.startswith("exit 2"):  # the suite does not apply: no row is checked
                continue
            for floor in (0, float("inf")):  # every loop in the kernel, and none
                assert check(path, suite, lambda text: column_parse(text, 300), floor) == ref, (name, suite, floor)
    assert seen == {"exit 0", "exit 1", "exit 2"}


def as_columns(binding):
    """The binding with each family keyed by exactly the tuples of its
    carrier's sorted objects held as a column, without its strict bit."""
    label, gpd, objs, env, laws = binding
    def column(fam):
        keys = list(product(gpd.objects_sorted, repeat=fam.arity))
        if fam.components.keys() != set(keys):
            return fam
        return replace(fam, components=gpd.product_table(fam.arity, map(fam.components.__getitem__, keys)), _cache={})

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagram, "KERNEL_FLOOR", 0)
        env = {sym: (column(b[0]), *b[1:]) if isinstance(b[0], NatFamily) else b for sym, b in env.items()}
    return label, gpd, objs, env, laws


def test_the_kernel_flip_cases_hold_on_column_families(monkeypatch):
    from test_kernel import EXHAUSTIVE, FLIPPED, SAMPLE, row

    columns = 0
    for binding in FLIPPED:
        label, gpd, objs, env, laws = as_columns(binding)
        columns += sum(isinstance(b[0], NatFamily) and isinstance(b[0].components, Column) for b in env.values())
        for law in laws:
            total = len(objs) ** law.arity
            for sample in ([None] if total <= EXHAUSTIVE else []) + ([SAMPLE] if total > SAMPLE else []):
                ref = row(law, *binding[1:4], sample, False, monkeypatch)
                for kernel in (True, False):
                    assert row(law, gpd, objs, env, sample, kernel, monkeypatch) == ref, (label, law.name, sample)
    assert columns >= len(FLIPPED)
