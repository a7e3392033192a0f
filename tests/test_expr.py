"""The endpoint evaluator ``expr.evaluate`` against the reference
evaluators of ``helpers``, over every family of every shipped fixture:
values, witnesses and the texts of the errors they raise."""

from functools import partial
from itertools import product, islice

import pytest

from twogrp import (
    MalformedTable,
    StructureError,
    build_dual_numbers_2group,
    build_mult_endofunctor,
    build_strict_2ring,
    build_super_line_2group,
    check_naturality,
    ring_dual_numbers,
    ring_zmod,
    to_ac,
)
from twogrp import expr as ex
from twogrp.functors import functor_env
from twogrp.groupoid import compose_path, validate_family

from helpers import eval_mor, eval_obj, perturb_family

MOR_TUPLES = 4000  # morphism tuples compared per family (a prefix of the product)
DROP_TUPLES = 64  # index tuples compared per environment with one entry dropped


def shipped_families():
    """(label, family, env, domain carrier, codomain carrier) for every family
    of every fixture the package ships."""
    out = []

    def structure(label, s):
        for name, fam in s.families().items():
            out.append((f"{label}/{name}", fam, s.env(), s.carrier, s.carrier))

    sl = build_super_line_2group()
    structure("super-line", sl)
    structure("super-line-ac", to_ac(sl))
    for m in (2, 3):
        ac = build_dual_numbers_2group(m)
        structure(f"dual{m}-ac", ac)
        structure(f"dual{m}-sm", build_dual_numbers_2group(m, "sm"))
        fun = build_mult_endofunctor(m, 1, 1, ac)
        out.append((f"dual{m}/fsum", fun.fsum, functor_env(fun, ac, ac), ac.carrier, ac.carrier))
    for label, table in (("z3", ring_zmod(3)), ("d2", ring_dual_numbers(2))):
        for pres in ("sm", "ac"):
            ring = build_strict_2ring(table, pres)
            structure(f"{label}-{pres}/add", ring.add)
            structure(f"{label}-{pres}/mul", ring.mul)
            for name, fam in ring.families().items():
                out.append((f"{label}-{pres}/{name}", fam, ring.env(), ring.carrier, ring.carrier))
    return out


FAMILIES = shipped_families()
IDS = [f[0] for f in FAMILIES]


def reference_endpoints(gpd, fam, env):
    """The plain validate_family loop: (status, witness index, left, right, note)."""
    for idx in product(gpd.objects_sorted, repeat=fam.arity):
        mid = fam.components.get(idx)
        if mid is None or mid not in gpd.morphisms:
            return ("fail", idx, None, None, "component missing or unknown")
        want_src = eval_obj(fam.src_expr, env, idx)
        want_dst = eval_obj(fam.tgt_expr, env, idx)
        if gpd.src(mid) != want_src or gpd.dst(mid) != want_dst:
            note = f"endpoints {gpd.src(mid)}->{gpd.dst(mid)} differ from declared {want_src}->{want_dst}"
            return ("fail", idx, mid, None, note)
    return ("pass", None, None, None, "")


def reference_naturality(fam, env, domain, codomain):
    """The plain naturality loop: (status, witness index, left, right, note)."""
    for fs in product(domain.morphisms_sorted, repeat=fam.arity):
        xs = tuple(domain.src(f) for f in fs)
        ys = tuple(domain.dst(f) for f in fs)
        try:
            left = compose_path(codomain, [fam.at(*ys), eval_mor(fam.src_expr, env, fs)])
            right = compose_path(codomain, [eval_mor(fam.tgt_expr, env, fs), fam.at(*xs)])
        except StructureError as err:
            return ("fail", fs, None, None, f"square does not typecheck: {err}")
        if left != right:
            return ("fail", fs, left, right, "")
    return ("pass", None, None, None, "")


def outcome(row):
    w = row.witness
    if w is None:
        return (row.status.value, None, None, None, "")
    return (row.status.value, w.index, w.left, w.right, w.note)


def value_or_error(fn, *args):
    """What ``fn(*args)`` gives: its value, or the text of the
    :class:`MalformedTable` it raises."""
    try:
        return fn(*args)
    except MalformedTable as err:
        return ("raises", str(err))


@pytest.mark.parametrize("label,fam,env,domain,codomain", FAMILIES, ids=IDS)
def test_evaluated_expressions_match_reference(label, fam, env, domain, codomain):
    for expr in (fam.src_expr, fam.tgt_expr):
        at_obj = partial(ex.evaluate, expr, env, 0)
        for idx in product(domain.objects_sorted, repeat=fam.arity):
            assert at_obj(idx) == eval_obj(expr, env, idx)
        at_mor = partial(ex.evaluate, expr, env, 1)
        for fs in islice(product(domain.morphisms_sorted, repeat=fam.arity), MOR_TUPLES):
            assert at_mor(fs) == eval_mor(expr, env, fs)


@pytest.mark.parametrize("label,fam,env,domain,codomain", FAMILIES, ids=IDS)
def test_columns_match_reference(label, fam, env, domain, codomain):
    axis = domain.objects_sorted
    for expr in (fam.src_expr, fam.tgt_expr):
        want = [eval_obj(expr, env, idx) for idx in product(axis, repeat=fam.arity)]
        assert list(ex.column_obj(expr, env, axis, fam.arity)) == want


def test_columns_of_repeated_shuffled_and_unused_variables():
    """Terms whose subterms share variables, read them out of order, or
    leave some unread: each column is the reference at every tuple."""
    s = build_dual_numbers_2group(3, "sm")
    env, axis = s.env(), s.carrier.objects_sorted
    x, y, z, t = map(ex.var, range(4))
    add, unit = (lambda l, r: ex.op("+", l, r)), ex.const(s.unit, s.carrier.identity[s.unit])
    for expr in (x, unit, add(x, x), add(z, x), add(add(z, x), y), add(unit, add(y, unit)),
                 add(x, add(x, y)), add(add(t, y), add(z, x)), add(y, t)):
        want = [eval_obj(expr, env, idx) for idx in product(axis, repeat=4)]
        assert list(ex.column_obj(expr, env, axis, 4)) == want, expr


@pytest.mark.parametrize("label,fam,env,domain,codomain", FAMILIES, ids=IDS)
def test_evaluated_errors_match_reference_with_any_entry_dropped(label, fam, env, domain, codomain):
    # every environment that lacks one entry of one table the family reads;
    # the evaluator gives the reference's value or its error text
    levels = ((0, eval_obj, domain.objects_sorted), (1, eval_mor, domain.morphisms_sorted))
    for sym in sorted(env):
        for level, evaluate, ids in levels:
            args = list(islice(product(ids, repeat=fam.arity), DROP_TUPLES))
            for key in sorted(env[sym][level]):
                tables = list(env[sym])
                tables[level] = {k: v for k, v in tables[level].items() if k != key}
                broken = {**env, sym: tuple(tables)}
                for expr in (fam.src_expr, fam.tgt_expr):
                    fn = partial(ex.evaluate, expr, broken, level)
                    for a in args:
                        assert value_or_error(fn, a) == value_or_error(evaluate, expr, broken, a)


@pytest.mark.parametrize("label,fam,env,domain,codomain", FAMILIES, ids=IDS)
def test_flipped_component_reports_reference_witness(label, fam, env, domain, codomain):
    idx = sorted(fam.components)[len(fam.components) // 2]
    old = fam.components[idx]
    # a parallel morphism where there is one, else any other morphism
    gpd = codomain
    parallel = [f for f in gpd.hom(gpd.src(old), gpd.dst(old)) if f != old]
    new = parallel[0] if parallel else next(f for f in gpd.morphisms_sorted if f != old)
    flipped = perturb_family(fam, idx, new)

    rep = validate_family(codomain, flipped, env, label="x")
    assert outcome(rep.checks[0]) == reference_endpoints(codomain, flipped, env)

    if fam.arity > 2 and len(domain.morphisms) > 8:
        return  # the exhaustive naturality product is too large for a unit test
    rep = check_naturality(flipped, env, domain=domain, codomain=codomain)
    assert outcome(rep.checks[0]) == reference_naturality(flipped, env, domain, codomain)


@pytest.mark.parametrize("label,fam,env,domain,codomain",
                         [f for f in FAMILIES if f[1].src_expr[0] == "op"],
                         ids=[f[0] for f in FAMILIES if f[1].src_expr[0] == "op"])
def test_missing_env_entry_raises_reference_message(label, fam, env, domain, codomain):
    sym = fam.src_expr[1]
    objs, mors = env[sym]
    first = next(iter(product(domain.objects_sorted, repeat=fam.arity)))
    first_fs = next(iter(product(domain.morphisms_sorted, repeat=fam.arity)))

    # drop the object-table entry the first index needs at the top of src_expr
    key = (eval_obj(fam.src_expr[2], env, first), eval_obj(fam.src_expr[3], env, first))
    broken = {**env, sym: ({k: v for k, v in objs.items() if k != key}, mors)}
    with pytest.raises(MalformedTable) as want:
        eval_obj(fam.src_expr, broken, first)
    with pytest.raises(MalformedTable) as got:
        validate_family(codomain, fam, broken)
    assert str(got.value) == str(want.value)
    assert not perturb_family(fam, first, fam.components[first]).is_strict(codomain, broken)

    key = (eval_mor(fam.src_expr[2], env, first_fs), eval_mor(fam.src_expr[3], env, first_fs))
    broken = {**env, sym: (objs, {k: v for k, v in mors.items() if k != key})}
    with pytest.raises(MalformedTable) as want:
        eval_mor(fam.src_expr, broken, first_fs)
    with pytest.raises(MalformedTable) as got:
        ex.evaluate(fam.src_expr, broken, 1, first_fs)
    assert str(got.value) == str(want.value)
    # the square reads the source side first
    rep = check_naturality(fam, broken, domain=domain, codomain=codomain)
    assert rep.checks[0].witness.index == first_fs
    assert rep.checks[0].witness.note == f"square does not typecheck: {want.value}"


def test_unknown_symbol_raises_reference_message_before_its_subterms_are_evaluated():
    args = ("a", "b")
    cases = (
        ex.op("?", ex.var(0), ex.var(1)),
        # the outer symbol is resolved before a subterm that would miss too
        ex.op("?", ex.app("F", ex.var(0)), ex.var(1)),
        ex.app("?", ex.app("F", ex.var(0))),
        # a known outer table, an unknown inner symbol
        ex.op("+", ex.app("?", ex.var(0)), ex.var(1)),
    )
    env = {"F": ({}, {}), "+": ({}, {})}
    for level, evaluate in ((0, eval_obj), (1, eval_mor)):
        for expr in cases:
            with pytest.raises(MalformedTable) as want:
                evaluate(expr, env, args)
            with pytest.raises(MalformedTable) as got:
                ex.evaluate(expr, env, level, args)
            assert str(got.value) == str(want.value)
            assert str(got.value).endswith("undefined at '?'")


def test_one_expression_evaluated_under_two_environments_reads_each_ones_tables():
    # each evaluation reads the tables of the environment it is given, so
    # neither environment sees the other's
    expr = ex.op("+", ex.app("F", ex.var(0)), ex.const("u", "id_u"))
    first = {"+": ({("a", "u"): "a+u"}, {("f", "id_u"): "f+id_u"}), "F": ({"x": "a"}, {"h": "f"})}
    second = {"+": ({("b", "u"): "b+u"}, {("g", "id_u"): "g+id_u"}), "F": ({"x": "b"}, {"h": "g"})}
    at_first, at_second = partial(ex.evaluate, expr, first, 0), partial(ex.evaluate, expr, second, 0)
    mor_first, mor_second = partial(ex.evaluate, expr, first, 1), partial(ex.evaluate, expr, second, 1)
    for _ in range(2):  # and again, in the other order
        assert (at_first(("x",)), at_second(("x",))) == ("a+u", "b+u")
        assert (mor_first(("h",)), mor_second(("h",))) == ("f+id_u", "g+id_u")
        at_second, at_first = partial(ex.evaluate, expr, second, 0), partial(ex.evaluate, expr, first, 0)
        mor_second, mor_first = partial(ex.evaluate, expr, second, 1), partial(ex.evaluate, expr, first, 1)
    for env in (first, second):
        assert at_first(("x",)) == eval_obj(expr, first, ("x",))
        assert value_or_error(ex.evaluate, expr, env, 0, ("y",)) == value_or_error(eval_obj, expr, env, ("y",))


def test_a_symbol_missing_from_one_environment_is_evaluated_as_missing_in_it_only():
    expr = ex.op("+", ex.app("G", ex.var(0)), ex.var(1))
    lacking = {"+": ({("a", "b"): "c"}, {})}
    having = {**lacking, "G": ({"x": "a"}, {})}
    for env, want in ((lacking, ("raises", "object table 'G' undefined at 'G'")), (having, "c"),
                      (lacking, ("raises", "object table 'G' undefined at 'G'"))):
        got = value_or_error(ex.evaluate, expr, env, 0, ("x", "b"))
        assert got == want == value_or_error(eval_obj, expr, env, ("x", "b"))


def test_a_node_other_than_v_k_op_or_ap_raises_a_value_error_at_either_level():
    # a constant, a family component or an identity is no endpoint node: the
    # evaluator names the innermost such node, even where the environment
    # binds its symbol
    env = {"+": ({("a", "b"): "c"}, {}), "u": ({}, {}), "a": ({}, {})}
    for level, kind in ((0, "object"), (1, "morphism")):
        for expr, node in ((ex.constant("u"), ex.constant("u")),
                           (ex.fam("a", ex.var(0), ex.var(1)), ex.fam("a", ex.var(0), ex.var(1))),
                           (ex.op("+", ex.constant("u"), ex.var(0)), ex.constant("u")),
                           (ex.app("+", ex.fam("a", ex.var(0))), ex.fam("a", ex.var(0))),
                           (ex.ident(ex.var(0)), ex.ident(ex.var(0)))):
            with pytest.raises(ValueError) as got:
                ex.evaluate(expr, env, level, ("a", "b"))
            assert str(got.value) == f"expression: no {kind} node {node!r}"
