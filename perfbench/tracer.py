"""In-memory span tracer installed on twogrp from outside the package.

``Tracer.install()`` wraps every public module-level function of the traced
modules and rebinds each name in every ``twogrp`` module that holds it
(``from .x import y`` copies included), so calls across modules are
captured too.  A span is ``[name, start, end, parent, job, info]``; spans
stay in memory until the run ends.

Functions that run once per instance of an axiom's index space are left
alone: wrapping them would time the tracer, not the program.
"""

from __future__ import annotations

import importlib
import re
import sys
import time
from collections import Counter, defaultdict

from verify import is_loop

MODULES = ("document", "fixtures", "groupoid", "diagram", "monoidal", "ac", "functors", "rings", "cli")

PER_INSTANCE = {
    "groupoid.compose_path",
    "ac.canonical_acomm_at",
    "ac.assoc_commutator_upper",
    "ac.assoc_commutator_lower",
    "ac.canonical_assoc",
    "ac.canonical_comm",
}

# Suite validators: a call counts once per structure unless it is nested in
# a validator call on the same object (validate_2group -> validate_sm).
VALIDATORS = {
    "monoidal.validate_sm", "monoidal.validate_2group", "ac.validate_ac",
    "functors.validate_sm_functor", "functors.validate_ac_functor",
    "functors.validate_transformation", "rings.validate_quang", "rings.validate_jp",
    "rings.validate_ac_ring", "rings.validate_two_ring_data",
}
# Validators whose report rows come straight from diagram.check_diagram.
LEAF_VALIDATORS = {
    "monoidal.validate_sm", "ac.validate_ac", "functors.validate_sm_functor",
    "functors.validate_ac_functor", "functors.validate_transformation",
    "rings.validate_quang", "rings.validate_jp", "rings.validate_ac_ring",
    "rings.quang_distributivity_diagrams",
}
CONVERSIONS = {"ac.to_ac", "ac.to_sm"}
RING_CONVERSIONS = {"rings.quang_to_ac_ring", "rings.ac_ring_to_quang", "rings.jp_upgrade"}
ZERO_ISO = {"functors.canonical_zero_iso", "functors.enumerate_zero_isos"}

ENGINE_LAW = re.compile(r"^(SC\d|AC\d(/.*)?|SF\d(/.*)?|AF\d(/.*)?|T1|2R.*|[de]-(assoc|comm))$")
PAIR_LAW = "2R1/"  # rings._pair_axiom: one row per law, one engine call per fixed object


def engine_calls(report, subject) -> int:
    """Engine calls a leaf validator's report implies: one per engine row,
    except the pair-axiom rows, which stand for one call per fixed object
    scanned (none under the strict profile)."""
    calls = 0
    for row in report.checks:
        if not (is_loop(row.mode) or row.mode == "strict-profile") or not ENGINE_LAW.match(row.law):
            continue
        if row.law.startswith(PAIR_LAW):
            if row.mode == "strict-profile":
                continue
            objects = subject.carrier.objects_sorted
            if row.witness is not None:
                calls += objects.index(row.witness.index[0]) + 1
            else:
                calls += len(objects)
        else:
            calls += 1
    return calls


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None
        self.entries: Counter = Counter()
        self.installed = False

    # -- installation ----------------------------------------------------

    def _wrap(self, full: str, fn):
        spans, stack, entries = self.spans, self.stack, self.entries
        clock = time.perf_counter
        hook = _HOOKS.get(full)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.job is not None:
                entries[full] += 1
            rec = [full, 0.0, 0.0, stack[-1] if stack else -1, tracer.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                rec[5] = hook(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", full)
        return traced

    def install(self) -> None:
        """Wrap and rebind (once per process)."""
        if self.installed:
            return
        self.installed = True
        mods = {name: importlib.import_module(f"twogrp.{name}") for name in MODULES}
        replace: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(val, type) or not callable(val):
                    continue
                target = getattr(val, "__wrapped__", val)
                if getattr(target, "__module__", None) != mod.__name__ or id(val) in replace:
                    continue
                full = f"{short}.{getattr(target, '__name__', attr)}"
                if full in PER_INSTANCE or full.endswith("_legs"):
                    continue
                replace[id(val)] = self._wrap(full, val)
        for name, mod in list(sys.modules.items()):
            if name != "twogrp" and not name.startswith("twogrp."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in replace and not isinstance(val, type):
                    setattr(mod, attr, replace[id(val)])

    # -- output ------------------------------------------------------------

    def export(self) -> dict:
        return {"spans": self.spans, "entries": dict(self.entries)}


def span_cost(calls: int = 50_000) -> float:
    """Seconds one wrapper adds to a call: a wrapped no-op against the bare
    one, best of three."""
    def noop():
        return None

    tracer = Tracer()
    tracer.job = "calibration"
    traced = tracer._wrap("calibration.noop", noop)
    best = float("inf")
    for _ in range(3):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
        best = min(best, ((t1 - t0) - (t2 - t1)) / calls)
    return max(best, 0.0)


# ---------------------------------------------------------------------------
# span annotations, taken after the span closes
# ---------------------------------------------------------------------------


def _diagram_info(args, kwargs, out):
    return [out.law, out.mode, out.instances]


def _parse_info(args, kwargs, out):
    return len(args[0] if args else kwargs["text"])  # documents are ASCII JSON


def _serialize_info(args, kwargs, out):
    return len(out)


def _family_info(args, kwargs, out):
    return sum(c.instances for c in out.checks)


def _validator_info(full):
    leaf = full in LEAF_VALIDATORS

    def info(args, kwargs, out):
        subject = args[0]
        calls = engine_calls(out, subject) if leaf else 0
        return [id(subject), calls]

    return info


_HOOKS = {
    "diagram.check_diagram": _diagram_info,
    "document.parse_document": _parse_info,
    "document.serialize_document": _serialize_info,
    "groupoid.validate_family": _family_info,
}
for _full in VALIDATORS | LEAF_VALIDATORS:
    _HOOKS[_full] = _validator_info(_full)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans, entries: Counter) -> tuple[dict, dict]:
    """Per-layer figures over the spans recorded inside jobs (job is not
    None), plus fixture build time over every span.  Returns
    ``(metrics, checks)`` where ``checks`` holds the self-check counts."""
    own = self_times(spans)
    by_module = defaultdict(float)
    total = defaultdict(float)
    diagram_loop = 0.0
    instances = rows_loop = rows_strict = rows_sampled = 0
    diagram_spans = expected_engine = 0
    parse_bytes = family_entries = 0
    conversions = 0
    fixtures_build = 0.0
    per_job_calls: dict = defaultdict(int)
    per_job_subjects: dict = defaultdict(set)
    for i, s in enumerate(spans):
        name, t0, t1, parent, job, info = s
        module = name.split(".", 1)[0]
        dur = t1 - t0
        if module == "fixtures" and (parent < 0 or not spans[parent][0].startswith("fixtures.")):
            fixtures_build += dur
        if job is None:
            continue
        by_module[module] += own[i]
        total[name] += dur
        if name in CONVERSIONS:
            conversions += 1
        if info is None:  # the call raised before its annotation
            continue
        if name == "diagram.check_diagram":
            if not (parent >= 0 and spans[parent][0] == "functors.canonical_zero_iso"):
                diagram_spans += 1
            law, mode, n = info
            if is_loop(mode):
                diagram_loop += dur
                instances += n
                rows_loop += 1
                rows_sampled += mode.startswith("sampled(")
            elif mode == "strict-profile":
                rows_strict += 1
        elif name == "document.parse_document":
            parse_bytes += info
        elif name == "groupoid.validate_family":
            family_entries += info
        if name in VALIDATORS or name in LEAF_VALIDATORS:
            subject, calls = info
            expected_engine += calls
            if name in VALIDATORS:
                p = parent
                nested = False
                while p >= 0:
                    pinfo = spans[p][5]
                    if spans[p][0] in VALIDATORS and pinfo is not None and pinfo[0] == subject:
                        nested = True
                        break
                    p = spans[p][3]
                if not nested:
                    per_job_calls[job] += 1
                    per_job_subjects[job].add(subject)

    def tsum(*names):
        return sum(total[n] for n in names)

    parse_s = tsum("document.parse_document")
    calls = sum(per_job_calls.values())
    subjects = sum(len(v) for v in per_job_subjects.values())
    metrics = {
        "diagram.loop_s": diagram_loop,
        "diagram.self_s": by_module["diagram"],
        "diagram.instances_checked": instances,
        "diagram.instances_per_s": instances / diagram_loop if diagram_loop else 0.0,
        "diagram.rows_loop": rows_loop,
        "diagram.rows_strict": rows_strict,
        "diagram.rows_sampled": rows_sampled,
        "document.self_s": by_module["document"],
        "document.parse_s": parse_s,
        "document.parse_mb_per_s": parse_bytes / 1e6 / parse_s if parse_s else 0.0,
        "document.serialize_s": tsum("document.serialize_document"),
        "document.bytes": parse_bytes,
        "ac.self_s": by_module["ac"],
        "ac.convert_calls": entries.get("ac.to_ac", 0) + entries.get("ac.to_sm", 0),
        "groupoid.self_s": by_module["groupoid"],
        "groupoid.family_s": tsum("groupoid.validate_family"),
        "groupoid.family_entries": family_entries,
        "groupoid.naturality_s": tsum("groupoid.check_naturality"),
        "groupoid.carrier_s": tsum("groupoid.validate_groupoid"),
        "validations_per_structure": calls / subjects if subjects else 0.0,
        "monoidal.self_s": by_module["monoidal"],
        "functors.self_s": by_module["functors"],
        "functors.zero_iso_s": tsum(*ZERO_ISO),
        "rings.self_s": by_module["rings"],
        "rings.convert_s": tsum(*RING_CONVERSIONS),
        "fixtures.self_s": by_module["fixtures"],
        "fixtures.build_s": fixtures_build,
        "cli.self_s": by_module["cli"],
    }
    checks = {
        "diagram_spans": diagram_spans,
        "engine_rows": expected_engine,
        "parse_spans": sum(1 for s in spans if s[0] == "document.parse_document" and s[4] is not None),
        "conversion_spans": conversions,
        "self_total_s": sum(by_module.values()),
    }
    return metrics, checks
