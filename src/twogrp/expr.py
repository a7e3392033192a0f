"""Formal object expressions used to type family components.

An expression is a nested tuple over four node kinds:

* ``("v", i)``            -- the i-th argument object,
* ``("k", obj, idmor)``   -- a fixed object with its identity morphism,
* ``("op", sym, l, r)``   -- a named binary operation applied to two subterms,
* ``("ap", sym, e)``      -- a named unary map (a functor) applied to a subterm.

Symbols are resolved against an environment mapping each symbol to an
``(object_table, morphism_table)`` pair, so one family type can describe
associators, distributors, absorbers and functor monoidality families alike.
Evaluating an expression at the object level yields the expected endpoint of
a component; evaluating it at the morphism level yields the functorial action
used by naturality squares (constants act as their identity morphism).

Loops that evaluate one expression at every index tuple compile it first
(``compile_obj``/``compile_mor``): tables are resolved once and each node
becomes a closure.  A compiled expression raises a bare ``KeyError`` where
``eval_obj``/``eval_mor`` raise :class:`MalformedTable`, so callers rerun the
reference evaluator on a ``KeyError`` to report the table and the key.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from operator import itemgetter

from .errors import MalformedTable

Expr = tuple
Env = dict[str, tuple[dict, dict]]


def var(i: int) -> Expr:
    return ("v", i)


def const(obj: str, idmor: str) -> Expr:
    return ("k", obj, idmor)


def op(sym: str, left: Expr, right: Expr) -> Expr:
    return ("op", sym, left, right)


def app(sym: str, inner: Expr) -> Expr:
    return ("ap", sym, inner)


def arity(expr: Expr) -> int:
    """Number of argument slots the expression reads (max index + 1)."""
    tag = expr[0]
    if tag == "v":
        return expr[1] + 1
    if tag == "k":
        return 0
    if tag == "op":
        return max(arity(expr[2]), arity(expr[3]))
    return arity(expr[2])


def eval_obj(expr: Expr, env: Env, args: Sequence[str]) -> str:
    tag = expr[0]
    if tag == "v":
        return args[expr[1]]
    if tag == "k":
        return expr[1]
    try:
        if tag == "op":
            table = env[expr[1]][0]
            return table[(eval_obj(expr[2], env, args), eval_obj(expr[3], env, args))]
        table = env[expr[1]][0]
        return table[eval_obj(expr[2], env, args)]
    except KeyError as exc:
        raise MalformedTable(f"object table {expr[1]!r} undefined at {exc}") from exc


def eval_mor(expr: Expr, env: Env, args: Sequence[str]) -> str:
    tag = expr[0]
    if tag == "v":
        return args[expr[1]]
    if tag == "k":
        return expr[2]
    try:
        if tag == "op":
            table = env[expr[1]][1]
            return table[(eval_mor(expr[2], env, args), eval_mor(expr[3], env, args))]
        table = env[expr[1]][1]
        return table[eval_mor(expr[2], env, args)]
    except KeyError as exc:
        raise MalformedTable(f"morphism table {expr[1]!r} undefined at {exc}") from exc


def _compile(expr: Expr, env: Env, level: int) -> Callable[[Sequence[str]], str]:
    tag = expr[0]
    if tag == "v":
        return itemgetter(expr[1])
    if tag == "k":
        value = expr[1 + level]
        return lambda args: value
    # an unknown symbol gets an empty table: every lookup misses, as in eval_*
    table = env[expr[1]][level] if expr[1] in env else {}
    if tag == "ap":
        inner = _compile(expr[2], env, level)
        return lambda args: table[inner(args)]
    left, right = expr[2], expr[3]
    if left[0] == "v" and right[0] == "v":
        i, j = left[1], right[1]
        return lambda args: table[args[i], args[j]]
    lf, rf = _compile(left, env, level), _compile(right, env, level)
    return lambda args: table[lf(args), rf(args)]


def compile_obj(expr: Expr, env: Env) -> Callable[[Sequence[str]], str]:
    """``eval_obj(expr, env, args)`` as a function of ``args``; raises
    ``KeyError`` where ``eval_obj`` raises :class:`MalformedTable`."""
    return _compile(expr, env, 0)


def compile_mor(expr: Expr, env: Env) -> Callable[[Sequence[str]], str]:
    """``eval_mor(expr, env, args)`` as a function of ``args``; raises
    ``KeyError`` where ``eval_mor`` raises :class:`MalformedTable`."""
    return _compile(expr, env, 1)


def mor_action(expr: Expr, env: Env) -> Callable[[Sequence[str]], str]:
    """Functorial action on morphism tuples described by ``expr``."""
    fast = compile_mor(expr, env)

    def act(mors: Sequence[str]) -> str:
        try:
            return fast(mors)
        except KeyError:
            return eval_mor(expr, env, mors)

    return act
