"""Known-answer checks, run outside the timed section.

Report rows come either from in-process ``Report`` objects or from the
lines the ``twogrp`` CLI prints.  A FAIL witness is re-checked by composing
its reported legs over the carrier's compose table with the walk below, not
with ``twogrp.groupoid.compose_path``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import product


@dataclass
class Row:
    law: str
    status: str
    instances: int
    mode: str
    index: tuple = ()
    left: str | None = None
    right: str | None = None
    left_path: tuple = ()
    right_path: tuple = ()
    note: str = ""
    has_witness: bool = False


def is_loop(mode: str) -> bool:
    return mode == "exhaustive" or mode.startswith("sampled(")


def rows_of(*reports) -> list[Row]:
    out = []
    for rep in reports:
        for c in rep.checks:
            w = c.witness
            row = Row(c.law, c.status.value, c.instances, c.mode)
            if w is not None:
                row.has_witness = True
                row.index, row.left, row.right = tuple(w.index), w.left, w.right
                row.left_path, row.right_path, row.note = tuple(w.left_path), tuple(w.right_path), w.note
            out.append(row)
    return out


_ROW = re.compile(
    r"^(\S+)\s+(pass|fail|not-applicable|missing-data)\s+instances=(\d+) mode=(.+?) time=[\d.]+ms$"
)
_WITNESS = re.compile(r"^  witness at \((.*?)\)(?:: (.*))?$")
_LR = re.compile(r"^left=(\S+) right=(\S+)\s*(.*)$")


def parse_cli_rows(text: str) -> list[Row]:
    """Report rows as ``twogrp check --witness`` prints them."""
    rows: list[Row] = []
    for line in text.splitlines():
        m = _ROW.match(line)
        if m:
            rows.append(Row(m.group(1), m.group(2), int(m.group(3)), m.group(4)))
            continue
        if not rows:
            continue
        row = rows[-1]
        m = _WITNESS.match(line)
        if m:
            row.has_witness = True
            row.index = tuple(m.group(1).split(", "))
            rest = m.group(2) or ""
            lr = _LR.match(rest)
            if lr:
                row.left, row.right, row.note = lr.group(1), lr.group(2), lr.group(3)
            else:
                row.note = rest
        elif line.startswith("    left  = "):
            row.left_path = tuple(line[len("    left  = "):].split(" o "))
        elif line.startswith("    right = "):
            row.right_path = tuple(line[len("    right = "):].split(" o "))
    return rows


def loop_instances(rows: list[Row]) -> int:
    return sum(r.instances for r in rows if is_loop(r.mode))


# ---------------------------------------------------------------------------
# carriers and the independent walk
# ---------------------------------------------------------------------------


@dataclass
class Tables:
    compose: dict
    src: dict
    dst: dict
    identity: dict = field(default_factory=dict)


def tables_of(gpd) -> Tables:
    return Tables(
        dict(gpd.compose),
        {m: v.src for m, v in gpd.morphisms.items()},
        {m: v.dst for m, v in gpd.morphisms.items()},
        dict(gpd.identity),
    )


def dual_tables(m: int) -> Tables:
    """The dual-numbers carrier as documented: objects ``x+ye``, morphisms
    ``n|x+ye`` (endomorphisms labelled by Z/m) composing by label addition."""
    compose, src, dst, ident = {}, {}, {}, {}
    for x, y in product(range(m), repeat=2):
        o = f"{x}+{y}e"
        ident[o] = f"0|{o}"
        for n in range(m):
            src[f"{n}|{o}"] = dst[f"{n}|{o}"] = o
            for k in range(m):
                compose[(f"{k}|{o}", f"{n}|{o}")] = f"{(n + k) % m}|{o}"
    return Tables(compose, src, dst, ident)


def walk(t: Tables, legs) -> str | None:
    """``legs`` in application order (the last leg applies first); None when
    the chain does not compose."""
    if not legs or any(leg not in t.src for leg in legs):
        return None
    acc = legs[-1]
    for nxt in reversed(legs[:-1]):
        if t.dst[acc] != t.src[nxt]:
            return None
        acc = t.compose.get((nxt, acc))
        if acc is None:
            return None
    return acc


def leg_witness_problem(row: Row, t: Tables) -> str | None:
    """None when the witness legs compose to the two reported, unequal
    morphisms."""
    if not row.left_path or not row.right_path:
        return f"{row.law}: witness has no legs ({row.note or 'no note'})"
    left, right = walk(t, row.left_path), walk(t, row.right_path)
    if left is None or right is None:
        return f"{row.law}: witness legs do not compose"
    if (left, right) != (row.left, row.right):
        return f"{row.law}: legs compose to {left}/{right}, report says {row.left}/{row.right}"
    if left == right:
        return f"{row.law}: witness composites agree"
    return None


def fail_rows(rows: list[Row]) -> list[Row]:
    return [r for r in rows if r.status == "fail"]


def expect_pass(rows: list[Row], label: str) -> list[str]:
    bad = [r.law for r in fail_rows(rows)]
    return [f"{label}: unexpected failures {bad}"] if bad else []


def expect_row(rows: list[Row], law: str, status: str, instances: int | None = None,
               mode: str | None = None) -> list[str]:
    found = [r for r in rows if r.law == law]
    if len(found) != 1:
        return [f"{law}: {len(found)} rows"]
    r = found[0]
    problems = []
    if r.status != status:
        problems.append(f"{law}: status {r.status}, expected {status}")
    if instances is not None and r.instances != instances:
        problems.append(f"{law}: {r.instances} instances, expected {instances}")
    if mode is not None and r.mode != mode:
        problems.append(f"{law}: mode {r.mode}, expected {mode}")
    return problems


def expect_failure(rows: list[Row], t: Tables, flip=None) -> list[str]:
    """A perturbed input: at least one FAIL row, each with a witness that
    holds.  ``flip`` is ``(index, old, new)`` of the changed component;
    a witness without legs must name exactly that component and the new
    component's endpoints must differ from the old one's."""
    fails = fail_rows(rows)
    if not fails:
        return ["perturbation passed"]
    problems = []
    for r in fails:
        if not r.has_witness:
            problems.append(f"{r.law}: fail without witness")
        elif r.left_path or r.right_path:
            p = leg_witness_problem(r, t)
            if p:
                problems.append(p)
        elif flip is None:
            problems.append(f"{r.law}: witness has no legs ({r.note})")
        else:
            idx, old, new = flip
            if tuple(r.index) != tuple(idx) or r.left != new:
                problems.append(f"{r.law}: endpoint witness at {r.index}, flip at {idx}")
            elif (t.src[new], t.dst[new]) == (t.src[old], t.dst[old]):
                problems.append(f"{r.law}: flipped component keeps its endpoints")
    return problems


def sf1_holds(fun, m, t: Tables) -> bool:
    """SF1 straight from its statement, for every (x, y, z):
    F_+(x+y,z) o (F_+(x,y) + id) o a'(Fx,Fy,Fz) == F(a(x,y,z)) o F_+(x,y+z) o (id + F_+(y,z))."""
    so, sm, a, ident = m.sum_obj, m.sum_mor, m.assoc.components, t.identity
    fs, fo, fm = fun.fsum.components, fun.base.obj_map, fun.base.mor_map
    for x, y, z in product(sorted(m.carrier.objects), repeat=3):
        left = walk(t, [fs[(so[(x, y)], z)], sm[(fs[(x, y)], ident[fo[z]])], a[(fo[x], fo[y], fo[z])]])
        right = walk(t, [fm[a[(x, y, z)]], fs[(x, so[(y, z)])], sm[(ident[fo[x]], fs[(y, z)])]])
        if left is None or left != right:
            return False
    return True
