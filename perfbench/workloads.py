"""The three workloads and their known answers.

Every expected verdict below comes from the paper's statements, never from
twogrp output:

* AF1 holds for every multiplication functor F(a,b) on the dual numbers;
  SF1 holds iff b = 0 (mod m); the zero isomorphism exists (and is then
  unique and canonical) iff SF1 holds.
* Strict structures and strict 2-rings pass every suite.
* Conversions round-trip byte-identically.
* A single-component flip drawn from the pools below breaks its law: a
  delta at one point is never a cocycle (associator, monoidality family),
  never additive (transformation component), and on a discrete carrier it
  moves the component off its declared endpoints (distributors, absorbers).
  The one coherent flip, c at (1,1) on the super-line, is left out.

``grid`` and ``sweep`` run in-process; ``cli`` runs each command as a fresh
``python -m twogrp.cli`` child.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import dataclass, replace
from itertools import product
from types import SimpleNamespace
from typing import Callable

import twogrp as tg

import verify as V


@dataclass
class Job:
    """One closed-loop request: ``run`` (in-process) or ``argv`` (a CLI
    child) is timed; ``check`` returns the ways its output misses the known
    answer; ``rows`` gives its report rows; ``loads`` counts the documents
    the command parses (for the trace self-check).  A round may send the
    same job more than once."""

    name: str
    check: Callable[[object], list[str]]
    run: Callable[[], object] | None = None
    rows: Callable[[object], list] = lambda out: []
    argv: list[str] | None = None
    loads: int = 0


def clear_fixture_caches() -> None:
    """Empty the lru caches of ``twogrp.fixtures`` so each set-up builds
    from scratch (the caches may sit behind a tracing wrapper)."""
    import twogrp.fixtures as fx

    for val in vars(fx).values():
        for cand in (val, getattr(val, "__wrapped__", None)):
            if hasattr(cand, "cache_clear"):
                cand.cache_clear()
                break


def perturb(fam, idx, new):
    return replace(fam, components={**fam.components, idx: new}, _cache={})


def alternatives(gpd, mid: str) -> list[str]:
    """Morphisms parallel to ``mid``; on a carrier with none, the other
    objects' identities."""
    m = gpd.morphisms[mid]
    par = [o for o in gpd.hom(m.src, m.dst) if o != mid]
    return par or [i for i in sorted(gpd.identity.values()) if i != mid]


def flip_pool(gpd, fam, key, skip=()):
    return [(key, idx, fam.components[idx], new)
            for idx in sorted(fam.components) if (key, idx) not in skip
            for new in alternatives(gpd, fam.components[idx])]


# ---------------------------------------------------------------------------
# grid: few large in-process jobs, loops forced full
# ---------------------------------------------------------------------------


class Grid:
    """Index-space walks dominate, so an engine change shows here.  A round
    takes about ten seconds, so a run has one; the short jobs, among them
    the median one (AC1 m=2), are sent before the first long job and again
    after each, so that their medians rest on five samples spread over the
    round."""

    name = "grid"
    inprocess = True
    min_rounds = 1
    SHORT = {"SF F_even", "SF F_odd", "zero-iso F_even", "zero-iso F_odd", "AC1 m=2"}

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.a_even = rng.randrange(1, 5)
        self.a_odd, self.b_odd = rng.randrange(1, 5), rng.randrange(1, 5)
        self.ac_seed = rng.randrange(1 << 30)
        self.jp_seed = rng.randrange(1 << 30)

    def inputs(self) -> dict:
        return {"F_even": [self.a_even, 0], "F_odd": [self.a_odd, self.b_odd],
                "ac_sample_seed": self.ac_seed, "jp_sample_seed": self.jp_seed}

    def setup(self, tmp):
        clear_fixture_caches()
        ac5 = tg.build_dual_numbers_2group(5)
        st = SimpleNamespace(
            ac5=ac5,
            sm5=tg.build_dual_numbers_2group(5, "sm"),
            ac2=tg.build_dual_numbers_2group(2),
            z5e=tg.build_strict_2ring(tg.ring_dual_numbers(5)),
            f_even=tg.build_mult_endofunctor(5, self.a_even, 0, ac5),
            f_odd=tg.build_mult_endofunctor(5, self.a_odd, self.b_odd, ac5),
        )
        st.t5 = V.tables_of(ac5.carrier)
        return st

    def jobs(self, st, rnd: int) -> list[Job]:
        rows = V.rows_of
        full = 25 ** 4
        jobs = []
        jobs.append(Job(
            "AF1 F_odd",
            lambda rep: V.expect_pass(rows(rep), "AF1") + V.expect_row(rows(rep), "AF1", "pass", full, "exhaustive"),
            lambda: tg.validate_ac_functor(st.f_odd, st.ac5, st.ac5, allow_strict_skip=False), rows,
        ))
        for tag, fun, even in (("even", st.f_even, True), ("odd", st.f_odd, False)):
            jobs.append(Job(
                f"SF F_{tag}",
                (lambda rep: V.expect_pass(rows(rep), "SF")
                 + V.expect_row(rows(rep), "SF1", "pass", 25 ** 3)
                 + V.expect_row(rows(rep), "SF2", "pass")) if even else
                (lambda rep: V.expect_row(rows(rep), "SF1", "fail")
                 + V.expect_row(rows(rep), "SF2", "pass")
                 + V.expect_failure(rows(rep), st.t5)),
                lambda fun=fun: tg.validate_sm_functor(fun, st.sm5, st.sm5, allow_strict_skip=False),
                rows,
            ))
        jobs.append(Job(
            "zero-iso F_even",
            lambda out: [] if len(out[0]) == 1 and out[0] == [out[1]] else [f"enumerate {out[0]} vs canonical {out[1]}"],
            lambda: (tg.enumerate_zero_isos(st.f_even, st.ac5, st.ac5, "AF2"),
                     tg.canonical_zero_iso(st.f_even, st.sm5, st.sm5)),
        ))
        jobs.append(Job(
            "zero-iso F_odd",
            lambda out: [] if out == [] else [f"enumerate found {out}"],
            lambda: tg.enumerate_zero_isos(st.f_odd, st.ac5, st.ac5, "AF2"),
        ))
        jobs.append(Job(
            "validate_sm twin m=5",
            lambda rep: V.expect_pass(rows(rep), "sm") + V.expect_row(rows(rep), "SC1", "pass", full, "exhaustive"),
            lambda: tg.validate_sm(st.sm5, allow_strict_skip=False), rows,
        ))
        jobs.append(Job(
            "AC1 m=2",
            lambda rep: V.expect_pass(rows(rep), "ac") + V.expect_row(rows(rep), "AC1", "pass", 4 ** 8, "exhaustive"),
            lambda: tg.validate_ac(st.ac2, allow_strict_skip=False), rows,
        ))
        jobs.append(Job(
            "AC1 m=5 sampled",
            lambda rep: V.expect_pass(rows(rep), "ac")
            + V.expect_row(rows(rep), "AC1", "pass", 1 << 16, f"sampled(n=65536,seed={self.ac_seed})"),
            lambda: tg.validate_ac(st.ac5, sample=1 << 16, seed=self.ac_seed, allow_strict_skip=False), rows,
        ))
        jobs.append(Job(
            "JP z5e sampled",
            lambda rep: V.expect_pass(rows(rep), "jp")
            + V.expect_row(rows(rep), "2R1-prime/d", "pass", 100_000, f"sampled(n=100000,seed={self.jp_seed})"),
            lambda: tg.validate_jp(st.z5e, sample=100_000, seed=self.jp_seed, allow_strict_skip=False), rows,
        ))
        short = [job for job in jobs if job.name in self.SHORT]
        order = list(short)
        for job in jobs:
            if job.name not in self.SHORT:
                order += [job, *short]
        return order


# ---------------------------------------------------------------------------
# sweep: thousands of small in-process jobs
# ---------------------------------------------------------------------------


def one_object_2group(m: int):
    """One object ``*`` with endomorphisms Z/m; sum and structure strict."""
    from twogrp.monoidal import assoc_family, comm_family, lunit_family, runit_family

    mors = [(str(k), "*", "*") for k in range(m)]
    compose = {(str(g), str(f)): str((g + f) % m) for g in range(m) for f in range(m)}
    gpd = tg.FinGroupoid.build(["*"], mors, compose, {"*": "0"}, {str(k): str(-k % m) for k in range(m)})
    return tg.MonStructure(
        gpd, {("*", "*"): "*"}, dict(compose), "*",
        assoc_family({("*", "*", "*"): "0"}), comm_family({("*", "*"): "0"}),
        lunit_family({("*",): "0"}, "*", "0"), runit_family({("*",): "0"}, "*", "0"),
    )


def structured_endofunctors(m) -> list:
    """Every (F, F_+) on a small structure: functorial base functors and
    natural, endpoint-compatible monoidality families."""
    from twogrp.functors import check_fsum_naturality, fsum_family

    gpd = m.carrier
    objs, mors = gpd.objects_sorted, gpd.morphisms_sorted
    pairs = list(product(objs, repeat=2))
    out = []
    for choice in product(objs, repeat=len(objs)):
        obj_map = dict(zip(objs, choice))
        cands = [gpd.hom(obj_map[gpd.src(f)], obj_map[gpd.dst(f)]) for f in mors]
        if not all(cands):
            continue
        for mor_choice in product(*cands):
            base = tg.GFunctor(gpd, gpd, obj_map, dict(zip(mors, mor_choice)))
            if not tg.validate_functor(base).ok:
                continue
            fsum_cands = [gpd.hom(m.sum_obj[(obj_map[x], obj_map[y])], obj_map[m.sum_obj[(x, y)]])
                          for x, y in pairs]
            if not all(fsum_cands):
                continue
            for comps in product(*fsum_cands):
                fun = tg.StructuredFunctor(base, fsum_family(dict(zip(pairs, comps))))
                if check_fsum_naturality(fun, m, m).ok:
                    out.append(fun)
    return out


class Sweep:
    """Scans stop at the first witness (about a hundred instances a job), so
    per-structure data checks and preambles weigh as much as the loops; a
    per-structure encode that pays off on long scans shows its cost here."""

    name = "sweep"
    inprocess = True
    min_rounds = 1
    PER_POOL = 40

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        self.mult = {m: (rng.randrange(1, m), rng.randrange(1, m), rng.randrange(1, m)) for m in (3, 4)}

    def inputs(self) -> dict:
        return {"mult": {str(m): v for m, v in self.mult.items()}, "per_pool": self.PER_POOL}

    def setup(self, tmp):
        from twogrp.functors import tau_family

        clear_fixture_caches()
        st = SimpleNamespace(pools={}, dual={})
        sl = tg.build_super_line_2group()
        st.sl, st.sl_ac = sl, tg.to_ac(sl)
        st.t_sl = V.tables_of(sl.carrier)
        st.pools["sl_sm"] = [p for key, fam in sl.families().items()
                             for p in flip_pool(sl.carrier, fam, key, skip={("c", ("1", "1"))})]
        st.pools["sl_ac"] = flip_pool(sl.carrier, st.sl_ac.acomm, "b")
        for m, (a_even, a_odd, b_odd) in self.mult.items():
            ac, sm = tg.build_dual_numbers_2group(m), tg.build_dual_numbers_2group(m, "sm")
            f = tg.build_mult_endofunctor(m, a_even, 0, ac)
            f_even = f.with_zero(tg.canonical_zero_iso(f, sm, sm))
            f_odd = tg.build_mult_endofunctor(m, a_odd, b_odd, ac)
            tau0 = tau_family({(o,): sm.carrier.identity[f_even.base.obj_map[o]] for o in sm.carrier.objects})
            st.dual[m] = SimpleNamespace(ac=ac, sm=sm, f_even=f_even, f_odd=f_odd, tau0=tau0,
                                         t=V.tables_of(ac.carrier))
            st.pools[f"fsum_sm{m}"] = flip_pool(sm.carrier, f_even.fsum, m)
            st.pools[f"fsum_ac{m}"] = flip_pool(ac.carrier, f_odd.fsum, m)
            st.pools[f"tau{m}"] = flip_pool(sm.carrier, tau0, m)
        st.z6 = tg.build_strict_2ring(tg.ring_zmod(6))
        st.z6ac = tg.build_strict_2ring(tg.ring_zmod(6), presentation="ac")
        st.t_z6 = V.tables_of(st.z6.carrier)
        st.pools["z6_d"] = flip_pool(st.z6.carrier, st.z6.dist_l, "dist_l")
        st.pools["z6ac"] = [p for key in ("dist_r", "absorb_l", "absorb_r")
                            for p in flip_pool(st.z6ac.carrier, getattr(st.z6ac, key), key)]
        st.bases = [tg.build_strict_2ring(tg.ring_zmod(2)).add, tg.build_strict_2ring(tg.ring_zmod(3)).add,
                    one_object_2group(2), one_object_2group(3), sl]
        st.endo = [(b, fun) for b in st.bases for fun in structured_endofunctors(b)]
        st.t_bases = {id(b): V.tables_of(b.carrier) for b in st.bases}
        return st

    def jobs(self, st, rnd: int) -> list[Job]:
        rows = V.rows_of
        rng = random.Random(self.seed)  # every round draws the same flips, built afresh
        jobs: list[Job] = []
        field_of = {"a": "assoc", "c": "comm", "l": "lunit", "r": "runit"}

        def flips(pool):
            return [st.pools[pool][rng.randrange(len(st.pools[pool]))] for _ in range(self.PER_POOL)]

        def add(name, fn, t, flip=None):
            jobs.append(Job(name, lambda rep: V.expect_failure(rows(rep), t, flip), fn, rows))

        for key, idx, old, new in flips("sl_sm"):
            pert = replace(st.sl, **{field_of[key]: perturb(st.sl.families()[key], idx, new)}, _cache={})
            add(f"sl {key}{idx}->{new}", lambda p=pert: tg.validate_sm(p), st.t_sl, (idx, old, new))
        for key, idx, old, new in flips("sl_ac"):
            pert = replace(st.sl_ac, acomm=perturb(st.sl_ac.acomm, idx, new), _cache={})
            add(f"sl-ac b{idx}->{new}", lambda p=pert: tg.validate_ac(p), st.t_sl, (idx, old, new))
        for m, d in st.dual.items():
            for _, idx, old, new in flips(f"fsum_sm{m}"):
                bad = tg.StructuredFunctor(d.f_even.base, perturb(d.f_even.fsum, idx, new), d.f_even.fzero)
                add(f"SF m={m} fsum{idx}->{new}", lambda b=bad, d=d: tg.validate_sm_functor(b, d.sm, d.sm), d.t)
            for _, idx, old, new in flips(f"fsum_ac{m}"):
                bad = tg.StructuredFunctor(d.f_odd.base, perturb(d.f_odd.fsum, idx, new))
                add(f"AF m={m} fsum{idx}->{new}", lambda b=bad, d=d: tg.validate_ac_functor(b, d.ac, d.ac), d.t)
            for _, idx, old, new in flips(f"tau{m}"):
                tr = tg.MonTransformation(d.f_even, d.f_even, perturb(d.tau0, idx, new))
                add(f"T m={m} tau{idx}->{new}", lambda tr=tr, d=d: tg.validate_transformation(tr, d.sm, d.sm), d.t)
        for key, idx, old, new in flips("z6_d"):
            bad = replace(st.z6, dist_l=perturb(st.z6.dist_l, idx, new), _cache={})
            add(f"quang z6 d{idx}->{new}", lambda b=bad: tg.validate_quang(b), st.t_z6, (idx, old, new))
            add(f"jp z6 d{idx}->{new}", lambda b=bad: tg.validate_jp(b), st.t_z6, (idx, old, new))
        for key, idx, old, new in flips("z6ac"):
            bad = replace(st.z6ac, **{key: perturb(getattr(st.z6ac, key), idx, new)}, _cache={})
            add(f"acring z6 {key}{idx}->{new}", lambda b=bad: tg.validate_ac_ring(b), st.t_z6, (idx, old, new))

        def control(name, fn):
            jobs.append(Job(name, lambda rep: V.expect_pass(rows(rep), name), fn, rows))

        control("control sl sm", lambda: tg.validate_sm(st.sl))
        control("control sl ac", lambda: tg.validate_ac(st.sl_ac))
        for m, d in st.dual.items():
            control(f"control SF m={m}", lambda d=d: tg.validate_sm_functor(d.f_even, d.sm, d.sm))
            if m == 3:  # at m=4 the passing AF1 scan (16^4 instances) would be a grid job
                control(f"control AF m={m}", lambda d=d: tg.validate_ac_functor(d.f_odd, d.ac, d.ac))
            control(f"control T m={m}", lambda d=d: tg.validate_transformation(
                tg.MonTransformation(d.f_even, d.f_even, d.tau0), d.sm, d.sm))
        control("control quang z6", lambda: tg.validate_quang(st.z6))
        control("control jp z6", lambda: tg.validate_jp(st.z6))
        control("control acring z6", lambda: tg.validate_ac_ring(st.z6ac))

        for i, (base, fun) in enumerate(st.endo):
            jobs.append(Job(
                f"endofunctor {i}",
                lambda out, base=base, fun=fun: _endo_check(out, base, fun, st.t_bases[id(base)]),
                lambda base=base, fun=fun: _endo_run(base, fun),
                lambda out: rows(out[0]),
            ))
        return jobs


def _endo_run(base, fun):
    rep = tg.validate_sm_functor(fun, base, base)
    if rep["SF1"].status is not tg.Status.PASS:
        return rep, None, None
    return rep, tg.enumerate_zero_isos(fun, base, base, "SF3"), tg.canonical_zero_iso(fun, base, base)


def _endo_check(out, base, fun, t) -> list[str]:
    rep, sols, canon = out
    rows = V.rows_of(rep)
    if V.sf1_holds(fun, base, t):
        problems = V.expect_row(rows, "SF1", "pass")
        if sols != [canon]:
            problems.append(f"zero isos {sols} vs canonical {canon}")
        return problems
    return V.expect_row(rows, "SF1", "fail") + V.expect_failure(
        [r for r in rows if r.law == "SF1"], t)


# ---------------------------------------------------------------------------
# cli: the README flow at criterion-7 scale, one child per command
# ---------------------------------------------------------------------------


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list[str], env: dict, cwd: str, timeout: float = 170):
    p = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True, timeout=timeout)
    return p.returncode, p.stdout, p.stderr


class Cli:
    """Parse, serialize, conversion and re-validation dominate; conversions
    write tables that later checks read."""

    name = "cli"
    inprocess = False
    min_rounds = 1

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.a, self.b = rng.randrange(1, 5), rng.randrange(1, 5)

    def inputs(self) -> dict:
        return {"F": [self.a, self.b]}

    def setup(self, tmp):
        env = cli_env(os.getcwd())
        st = SimpleNamespace(tmp=tmp, env=env, t5=V.dual_tables(5))
        st.p = {k: os.path.join(tmp, f"{k}.json") for k in ("dn5", "dn5_sm", "dn5_rt", "z5e", "z5e_ac", "z5e_rt")}
        for argv in (["fixture", "dual-numbers", "--mod", "5", "--mult", f"{self.a},{self.b}", "--out", st.p["dn5"]],
                     ["fixture", "strict-2ring", "--ring", "z5e", "--out", st.p["z5e"]]):
            code, out, err = run_child([sys.executable, "-m", "twogrp.cli", *argv], env, tmp)
            if code != 0:
                raise RuntimeError(f"fixture failed: {argv}: {err.strip()}")
        return st

    def jobs(self, st, rnd: int) -> list[Job]:
        p, rows = st.p, V.parse_cli_rows

        def cmd(name, argv, code, extra=lambda out: []):
            def check(out):
                got, stdout, stderr = out
                if got != code:
                    return [f"exit {got}, expected {code}: {stderr.strip()[-200:]}"]
                return extra(out)
            loads = 1 if argv[0] in ("check", "convert", "zero-iso") else 0
            return Job(name, check, rows=lambda out: rows(out[1]), argv=argv, loads=loads)

        def check(path, suite):
            return ["check", path, "--suite", suite, "--witness"]

        def passes(label):
            return lambda out: V.expect_pass(rows(out[1]), label)

        def identical(a, b):
            def cmp(out):
                with open(a, "rb") as fa, open(b, "rb") as fb:
                    return [] if fa.read() == fb.read() else [f"{os.path.basename(b)} differs from {os.path.basename(a)}"]
            return cmp

        return [
            cmd("check dn5 sm-functor", check(p["dn5"], "sm-functor"), 1,
                lambda out: V.expect_row(rows(out[1]), "SF1", "fail") + V.expect_failure(rows(out[1]), st.t5)),
            cmd("check dn5 ac-functor", check(p["dn5"], "ac-functor"), 0,
                lambda out: passes("ac-functor")(out) + V.expect_row(rows(out[1]), "AF1", "pass", 25 ** 4, "exhaustive")),
            cmd("check dn5 ac", check(p["dn5"], "ac"), 0, passes("ac")),
            cmd("check dn5 2group", check(p["dn5"], "2group"), 0, passes("2group")),
            cmd("convert dn5 to sm", ["convert", p["dn5"], "--to", "sm", "--out", p["dn5_sm"]], 0),
            cmd("convert dn5 back to ac", ["convert", p["dn5_sm"], "--to", "ac", "--out", p["dn5_rt"]], 0,
                identical(p["dn5"], p["dn5_rt"])),
            cmd("zero-iso dn5 enumerate", ["zero-iso", p["dn5"], "--functor", "F", "--mode", "enumerate"], 0,
                lambda out: [] if out[1] == "0 solution(s) [AF2]\n" else [f"enumerate printed {out[1]!r}"]),
            cmd("zero-iso dn5 canonical", ["zero-iso", p["dn5"], "--functor", "F", "--mode", "canonical"], 1,
                lambda out: [] if "SF1 fails" in out[1] else [f"canonical printed {out[1]!r}"]),
            cmd("check z5e quang", check(p["z5e"], "quang"), 0, passes("quang")),
            cmd("check z5e jp", check(p["z5e"], "jp"), 0, passes("jp")),
            cmd("convert z5e to ac", ["convert", p["z5e"], "--to", "ac", "--out", p["z5e_ac"]], 0),
            cmd("check z5e acring", check(p["z5e_ac"], "acring"), 0, passes("acring")),
            cmd("convert z5e back to sm", ["convert", p["z5e_ac"], "--to", "sm", "--out", p["z5e_rt"]], 0,
                identical(p["z5e"], p["z5e_rt"])),
        ]


WORKLOADS = {"grid": Grid, "cli": Cli, "sweep": Sweep}
