"""Formal expressions: the endpoints of family components and the legs of
coherence laws.

An expression is a nested tuple over these node kinds:

* ``("v", i)``            -- the i-th argument object,
* ``("k", obj, idmor)``   -- a fixed object with its identity morphism,
* ``("c", sym)``          -- a named constant: the environment binds ``sym``
  to an ``(object, morphism)`` pair (a unit with its identity, a zero
  isomorphism with the object it should be the identity of),
* ``("op", sym, l, r)``   -- a named binary operation applied to two subterms,
* ``("ap", sym, e)``      -- a named unary map (a functor) applied to a subterm,
* ``("fam", sym, e...)``  -- the component of a named family at the objects
  the subterms denote (a morphism),
* ``("id", e)``           -- the identity of the object ``e`` denotes.

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

A coherence law is a :class:`Law`: a name, an arity and two routes, each a
list of morphism terms over object variables in application order (the
last leg applies first).  ``Law.legs`` binds a law to an environment and
returns the function the diagram engine scans.  The law's source is
generated once per process as one flat function of the index tuple, so a
binding is one factory call with the tables.  In a law's environment an
``op``/``ap`` symbol is bound to ``(object_table, morphism_table,
preserves_identities)``, a ``fam`` symbol to ``(family, env)`` (the family
and the environment its endpoints are typed in) and a ``c`` symbol to
``(object, morphism)``.  A lookup that misses raises the bare ``KeyError``
the engine reports as a route that does not evaluate.  ``Law.ingredients``
lists what the strict profile tests: the families the routes read, the maps
they apply to morphisms and the constants they use as morphisms (a map
applied only to objects needs nothing).  A law may have one route only: the
border composites of ``ac`` are such routes, their inversion an ``ap`` over
the carrier's inverse table.
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


def constant(sym: str) -> Expr:
    return ("c", sym)


def fam(sym: str, *args: Expr) -> Expr:
    return ("fam", sym, *args)


def ident(obj: Expr) -> Expr:
    return ("id", obj)


class Law:
    """Two routes of morphism terms that must compose to the same morphism
    at every tuple of ``arity`` objects."""

    __slots__ = ("name", "arity", "left", "right", "symbols", "ingredients", "_code")

    def __init__(self, name: str, arity: int, left: Sequence[Expr], right: Sequence[Expr]):
        self.name, self.arity, self.left, self.right = name, arity, tuple(left), tuple(right)
        self._code = None
        symbols, fams, maps, consts = {}, {}, {}, {}
        read_as_morphism = {"fam": fams, "op": maps, "ap": maps, "c": consts}

        def walk(term, level):
            tag = term[0]
            if tag in read_as_morphism:
                symbols[term[1]] = None
                if level:
                    read_as_morphism[tag][term[1]] = None
            # a family's and an identity's arguments are objects
            subterms = term[1:] if tag == "id" else term[2:] if tag in ("op", "ap", "fam") else ()
            for sub in subterms:
                walk(sub, level if tag in ("op", "ap") else 0)

        for term in self.left + self.right:
            walk(term, 1)
        self.symbols = frozenset(symbols)
        self.ingredients = (tuple(fams), tuple(maps), tuple(consts))

    def legs(self, env: dict, identity: dict) -> Callable[[tuple[str, ...]], tuple[list, list]]:
        """The routes at an index tuple, with the symbols bound in ``env``
        and ``("id", e)`` read from the carrier's ``identity`` table."""
        if self._code is None:
            self._code = _compile_law(self)
        make, params = self._code
        return make(*[identity if slot == "id" else env[sym][0].components if slot == "fam"
                      else env[sym][slot] for sym, slot in params])


def _compile_law(law: Law):
    """The factory of ``law``'s legs and the ``(symbol, slot)`` each of its
    parameters is bound to: the generated function evaluates each route
    left to right, depth first, one subscript per node."""
    params: dict[tuple, str] = {}

    def param(sym, slot):
        return params.setdefault((sym, slot), f"p{len(params)}")

    def emit(term, level):
        tag = term[0]
        if tag == "v" and not level:
            return f"v{term[1]}"
        if tag == "c":
            return param(term[1], level)
        if tag == "id" and level:
            return f"{param('', 'id')}[{emit(term[1], 0)}]"
        if tag == "fam" and level:
            return f"{param(term[1], 'fam')}[{''.join(emit(a, 0) + ', ' for a in term[2:])}]"
        if tag in ("op", "ap"):
            return f"{param(term[1], level)}[{', '.join(emit(a, level) for a in term[2:])}]"
        raise ValueError(f"law {law.name}: no {('object', 'morphism')[level]} node {term!r}")

    routes = [", ".join(emit(t, 1) for t in route) for route in (law.left, law.right)]
    names = "".join(f"v{i}, " for i in range(law.arity))
    source = (f"def make({', '.join(params.values())}):\n"
              f"    def legs(idx):\n"
              f"        {names} = idx\n"
              f"        return [{routes[0]}], [{routes[1]}]\n"
              f"    return legs\n")
    namespace: dict = {}
    exec(compile(source, f"<law {law.name}>", "exec"), namespace)
    return namespace["make"], list(params)
