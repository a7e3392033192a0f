"""Formal object expressions used to type family components.

An expression is a nested tuple over four node kinds:

* ``("v", i)``            -- the i-th argument object,
* ``("k", obj, idmor)``   -- a fixed object with its identity morphism,
* ``("op", sym, l, r)``   -- a named binary operation applied to two subterms,
* ``("ap", sym, e)``      -- a named unary map (a functor) applied to a subterm.

Symbols are resolved against an environment mapping each symbol to an
``(object_table, morphism_table)`` pair, so one family type can describe
associators, distributors, absorbers and functor monoidality families alike.
At the object level an expression gives the expected endpoint of a
component; at the morphism level it gives the functorial action used by
naturality squares (constants act as their identity morphism).

An expression is evaluated only after it is compiled (``compile_obj``/
``compile_mor``): the tables are resolved once and each node becomes a
closure of the argument tuple.  A closure raises :class:`MalformedTable`
naming the innermost lookup that misses (``object table '+' undefined at
('0', '1')``); a symbol missing from the environment raises ``... undefined
at '<sym>'`` before any subterm is evaluated.
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


def _compile(expr: Expr, env: Env, level: int) -> Callable[[Sequence[str]], str]:
    tag = expr[0]
    if tag == "v":
        return itemgetter(expr[1])
    if tag == "k":
        value = expr[1 + level]
        return lambda args: value
    sym = expr[1]
    where = f"{('object', 'morphism')[level]} table {sym!r} undefined at"
    if sym not in env:
        def unknown(args):
            raise MalformedTable(f"{where} {sym!r}")
        return unknown
    table = env[sym][level]
    # subterms raise MalformedTable, never KeyError: a KeyError is this lookup
    if tag == "ap":
        inner = _compile(expr[2], env, level)

        def apply(args):
            try:
                return table[inner(args)]
            except KeyError as exc:
                raise MalformedTable(f"{where} {exc}") from exc
        return apply
    left, right = expr[2], expr[3]
    if left[0] == "v" and right[0] == "v":
        i, j = left[1], right[1]

        def pair(args):
            try:
                return table[args[i], args[j]]
            except KeyError as exc:
                raise MalformedTable(f"{where} {exc}") from exc
        return pair
    lf, rf = _compile(left, env, level), _compile(right, env, level)

    def binary(args):
        try:
            return table[lf(args), rf(args)]
        except KeyError as exc:
            raise MalformedTable(f"{where} {exc}") from exc
    return binary


def compile_obj(expr: Expr, env: Env) -> Callable[[Sequence[str]], str]:
    """The object ``expr`` denotes, as a function of the argument objects."""
    return _compile(expr, env, 0)


def compile_mor(expr: Expr, env: Env) -> Callable[[Sequence[str]], str]:
    """The morphism ``expr`` denotes, as a function of the argument
    morphisms: the functorial action of the expression."""
    return _compile(expr, env, 1)
