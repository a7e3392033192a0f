"""Formal expressions: the endpoints of family components and the legs of
coherence laws.

An expression is a nested tuple over these node kinds:

* ``("v", i)``            -- the i-th argument,
* ``("k", obj, idmor)``   -- a fixed object with its identity morphism,
* ``("c", sym)``          -- a named constant: the environment binds ``sym``
  to an ``(object, morphism)`` pair (a unit with its identity, a zero
  isomorphism with the object it should be the identity of),
* ``("op", sym, l, r)``   -- a named binary operation applied to two subterms,
* ``("ap", sym, e)``      -- a named unary map (a functor) applied to a subterm,
* ``("fam", sym, e...)``  -- the component of a named family at the objects
  the subterms denote (a morphism),
* ``("id", e)``           -- the identity of the object ``e`` denotes,
* ``("src", e)``/``("dst", e)`` -- the source/target of the morphism ``e``,
* ``("fst", e)``/``("snd", e)`` -- the morphisms ``g``/``f`` of the
  composable pair ``e = (g, f)`` (a key of the carrier's ``compose``).

Symbols are resolved against an environment mapping each symbol to an
``(object_table, morphism_table)`` pair.  At the object level an expression
gives the expected endpoint of a component; at the morphism level, the
functorial action used by naturality squares (a constant acts as its
identity).

An endpoint expression (``v``, ``k``, ``op``, ``ap``) is evaluated at an
argument tuple by ``evaluate``, node by node, which raises
:class:`MalformedTable` naming the innermost lookup that misses (``object
table '+' undefined at ('0', '1')``) or a symbol the environment lacks
(``... undefined at '<sym>'``) before any of its subterms, and
``ValueError`` at any other node.

Beside it, ``column_obj`` gives an object expression at every index tuple
at once, in product order (the columns ``groupoid.identity_family`` and
``fixtures.check_ring_table`` read).  It computes each subterm once, over
the product of the variables that subterm mentions: a variable is the axis,
a ``k`` node a constant, and an ``op``/``ap`` node one ``map`` of its table,
over the product of its children's columns when their variables are
disjoint and in order (``(x+y)+(z+t)``), else over their zip, each child
expanded to the union of their variables (``xy+xz``).  A lookup that misses
raises a bare ``KeyError``; the caller then takes ``evaluate``, whose
error names it.

A coherence law is a :class:`Law`: a name, an arity and two routes, each a
list of morphism terms in application order (the last leg applies first),
bound by ``Law.legs`` to an environment into the function the diagram
engine scans.  Its variables are objects, morphisms when its terms read
them at the morphism level (``Law.var_level``, as in a naturality square),
or composable pairs when they project them (the sum's interchange law).
In a law's environment an ``op``/``ap`` symbol is bound to ``(object_table,
morphism_table, preserves_identities)``, a ``fam`` symbol to ``(family,
env)`` (the environment its endpoints are typed in), a ``c`` symbol to
``(object, morphism)`` and ``ends``, which ``src``/``dst`` read, to the
``morphisms`` table of the variables' groupoid.  A lookup that misses raises
the bare ``KeyError`` the engine reports as a route that does not evaluate.
``Law.ingredients`` lists what the strict profile tests: the families the
routes read, the maps they apply to morphisms and the constants they use as
morphisms (a map applied only to objects needs nothing).  A law may have
one route only: the border composites of ``ac`` are such routes, their
inversion an ``ap`` over the carrier's inverse table.

One emitter writes a law's terms as Python source, generated and compiled
once per law and process: ``Law.routes`` gives three functions per law (the
legs of both routes and their composites, one subscript per node, at one
index tuple; and the nested-loop scan over every tuple, each node once in
the loop of the deepest variable it reads, compiled on its first call), and
a binding is one factory call with the tables.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Sequence
from itertools import chain, product, repeat
from operator import mul

from .errors import MalformedTable, StructureError

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


def column_obj(expr: Expr, env: Env, axis: Sequence[str], arity: int) -> Iterable[str]:
    """The objects ``expr`` denotes at every tuple of ``arity`` ids of
    ``axis``, in product order: each subterm computed once, over the
    product of the variables it mentions.  A lookup that misses, or a
    symbol ``env`` lacks, raises a bare ``KeyError`` (possibly once the
    values are read); :func:`evaluate` names it."""
    variables, values = _column(expr, env, axis)
    return _expand(variables, values, tuple(range(arity)), len(axis))


def _column(expr: Expr, env: Env, axis: Sequence[str]) -> tuple[tuple[int, ...], Iterable[str]]:
    """The sorted variables ``expr`` mentions and its values over their
    product: an ``op``/``ap`` node is one ``map`` of its table over its
    children's columns, their product when their variables are disjoint
    and in order, else their zip, each expanded to the union."""
    tag = expr[0]
    if tag == "v":
        return (expr[1],), axis
    if tag == "k":
        return (), (expr[1],)
    if tag not in ("op", "ap"):
        raise ValueError(f"expression: no object node {expr!r}")
    table = env[expr[1]][0]
    if tag == "ap":
        variables, values = _column(expr[2], env, axis)
        return variables, map(table.__getitem__, values)
    (left, lvals), (right, rvals) = _column(expr[2], env, axis), _column(expr[3], env, axis)
    if not left or not right or left[-1] < right[0]:
        return left + right, map(table.__getitem__, product(lvals, rvals))
    n, union = len(axis), tuple(sorted({*left, *right}))
    return union, map(table.__getitem__, zip(_expand(left, lvals, union, n), _expand(right, rvals, union, n)))


def _expand(own: tuple[int, ...], values: Iterable[str], onto: tuple[int, ...], n: int) -> Iterable[str]:
    """``values``, given over the product of the variables ``own``, at each
    tuple of the product of ``onto`` (which holds them), ``n`` ids a
    variable: a variable ``own`` lacks repeats, ``n`` times, each block of
    the values over the variables after it."""
    for v in onto:
        if v not in own:
            block = n ** sum(w > v for w in own)
            values = chain.from_iterable(map(mul, zip(*[iter(values)] * block), repeat(n)))
            own = tuple(sorted((*own, v)))
    return values


_LEVELS = ("object", "morphism")


def evaluate(expr: Expr, env: Env, level: int, args: Sequence[str]) -> str:
    """The object (``level`` 0) or morphism (1) ``expr`` denotes at the
    argument objects or morphisms ``args``, node by node: a lookup that
    misses raises the :class:`MalformedTable` of the innermost, an unknown
    symbol before its subterms are evaluated, a node other than ``v``,
    ``k``, ``op`` or ``ap`` a ``ValueError``."""
    tag = expr[0]
    if tag == "v":
        return args[expr[1]]
    if tag == "k":
        return expr[1 + level]
    if tag not in ("op", "ap"):
        raise ValueError(f"expression: no {_LEVELS[level]} node {expr!r}")
    sym = expr[1]
    if sym not in env:
        raise MalformedTable(f"{_LEVELS[level]} table {sym!r} undefined at {sym!r}")
    if tag == "op":
        key = (evaluate(expr[2], env, level, args), evaluate(expr[3], env, level, args))
    else:
        key = evaluate(expr[2], env, level, args)
    try:
        return env[sym][level][key]
    except KeyError as exc:
        raise MalformedTable(f"{_LEVELS[level]} table {sym!r} undefined at {exc}") from exc


def constant(sym: str) -> Expr:
    return ("c", sym)


def fam(sym: str, *args: Expr) -> Expr:
    return ("fam", sym, *args)


def ident(obj: Expr) -> Expr:
    return ("id", obj)


_PAIR = {"fst": 0, "snd": 1}  # a projection's position in the pair
_ARG_LEVEL = {"id": 0, "src": 1, "dst": 1, "fst": 2, "snd": 2}


class Law:
    """Two routes of morphism terms that must compose to the same morphism
    at every tuple of ``arity`` objects (or morphisms, or composable pairs:
    ``var_level`` 1 or 2)."""

    __slots__ = ("name", "arity", "left", "right", "symbols", "ingredients", "var_level", "_code", "_scan_code")

    def __init__(self, name: str, arity: int, left: Sequence[Expr], right: Sequence[Expr]):
        self.name, self.arity, self.left, self.right = name, arity, tuple(left), tuple(right)
        self._code = self._scan_code = None
        symbols, fams, maps, consts, levels = {}, {}, {}, {}, {0}
        read_as_morphism = {"fam": fams, "op": maps, "ap": maps, "c": consts}

        def walk(term, level):
            tag = term[0]
            if tag == "v":
                levels.add(level)
            elif tag in ("src", "dst"):
                symbols["ends"] = None
            elif tag in read_as_morphism:
                symbols[term[1]] = None
                if level:
                    read_as_morphism[tag][term[1]] = None
            # an operation's arguments are read at its own level, a family's as
            # objects, the argument of id, an end or a projection as _ARG_LEVEL says
            if tag in ("op", "ap", "fam"):
                for sub in term[2:]:
                    walk(sub, level if tag != "fam" else 0)
            elif tag in _ARG_LEVEL:
                walk(term[1], _ARG_LEVEL[tag])

        for term in self.left + self.right:
            walk(term, 1)
        self.symbols = frozenset(symbols)
        self.ingredients = (tuple(fams), tuple(maps), tuple(consts))
        self.var_level = max(levels)  # 1: the variables range over morphisms, 2: over pairs

    def legs(self, env: dict, identity: dict) -> Callable[[tuple[str, ...]], tuple[list, list]]:
        """The routes at an index tuple, with the symbols bound in ``env``
        and ``("id", e)`` read from the carrier's ``identity`` table."""
        return self.routes(env, identity, {}, {})[0]

    def routes(self, env: dict, identity: dict, composable: dict, morphisms: dict, curry=None) -> tuple:
        """``legs``, the function of an index tuple that gives the two
        routes' composites (one lookup per step in ``composable``, a lone
        leg looked up in ``morphisms``; any miss raises ``KeyError``, and an
        empty route always misses) and ``scan(values, stop)``, which yields,
        in order, the position of each tuple of ``values`` below ``stop``
        whose composites differ or miss.  ``scan`` reads a table whose
        lookups of ``arity`` components learn them in different loops
        through ``curry(table, arity, stop)``, a view read one component at a
        time.  The scan's source is compiled on its first call: most
        laws a small check binds never scan."""
        if self._code is None:
            self._code = _compile_law(self)
        make, params = self._code
        tables = [identity if slot == "id" else sym if slot == "k" else env[sym] if slot == "ends"
                  else _readable(env[sym][0].components) if slot == "fam" else env[sym][slot] for sym, slot in params]
        scan = functools.partial(self._scan, composable, morphisms, curry, tables)
        return (*make(composable, morphisms, *tables), scan)

    def _scan(self, composable: dict, morphisms: dict, curry, tables: list, values: Sequence[str],
              stop: int) -> Iterable[int]:
        if self._scan_code is None:
            self._scan_code = _compile_scan(self, self._code[1])
        return self._scan_code(values, stop, composable, morphisms, curry, *tables)


def _readable(table):
    """A family's ``table`` as the generated code reads it: a dict as it
    is, a ``groupoid.Column`` through its dict of the entries read."""
    return table if isinstance(table, dict) else table.read()


def _subscript(table: str, args: list[str], tuple_key: bool) -> str:
    return f"{table}[{', '.join(args)}{',' if tuple_key and len(args) == 1 else ''}]"


class _Inline:
    """Source of a term as one expression, one subscript per node."""

    def __init__(self, arity: int):
        self.vars = [f"v{i}" for i in range(arity)]

    def read(self, table: str, args: list[str], tuple_key: bool = False) -> str:
        if tuple_key and args == self.vars:
            return f"{table}[idx]"  # a component at the index tuple itself
        return _subscript(table, args, tuple_key)

    def node(self, template: str, arg: str) -> str:
        return template.format(arg)


class _Hoisted(_Inline):
    """Source of terms as assignments, one per distinct node, each in the
    loop of the deepest variable it reads (``lines[depth + 1]``; depth -1
    is before the loops).  A lookup of several components whose first is
    known in an outer loop reads the table's curried view, a row in each
    loop that learns a component: ``r = view[a]`` there, ``r[b]`` below.  A
    component at the index tuple itself is read by its tuple key: the scan
    reads each such entry once, so a view would cost more than it saves."""

    def __init__(self, arity: int):
        super().__init__(arity)
        self.arity = arity
        self.depth = {f"v{i}": i for i in range(arity)}  # of a variable or assigned name; -1 for any other
        self.names: dict[str, str] = {}
        self.lines: list[list[str]] = [[] for _ in range(arity + 1)]
        self.views: dict[tuple[str, int], str] = {}

    def _at(self, args: list[str]) -> int:
        return max((self.depth.get(a, -1) for a in args), default=-1)

    def _assign(self, text: str, depth: int) -> str:
        if text not in self.names:
            self.names[text] = name = f"t{len(self.names)}"
            self.depth[name] = depth
            self.lines[depth + 1].append(f"{name} = {text}")
        return self.names[text]

    def read(self, table: str, args: list[str], tuple_key: bool = False) -> str:
        depth = self._at(args)
        if len(args) < 2 or self._at(args[:1]) == depth or args == self.vars:
            return self._assign(_subscript(table, args, tuple_key), depth)
        row, known = self.views.setdefault((table, len(args)), f"q{len(self.views)}"), 0
        for i in range(1, len(args) + 1):  # a row in each loop that learns a component, the value in the last
            at = self._at(args[:i])
            if i == len(args) or self._at(args[:i + 1]) > at:
                row, known = self._assign(row + "".join(f"[{a}]" for a in args[known:i]), at), i
        return row

    def node(self, template: str, arg: str) -> str:
        return self._assign(template.format(arg), self._at([arg]))

    def scan(self, tables: str, left: str, right: str) -> str:
        """Source of the scan generator over ``values`` and the parameters
        ``tables``: loop ``j`` walks ``v{j}`` over ``values``, ``w{j}``
        positions an iteration from ``f{j}``, cut at ``stop``; a lookup that
        misses yields every position below its loop, and the loop of the
        deepest variable the composites read compares them."""
        arity, last = self.arity, self._at([left, right])
        w = lambda j: "total" if j < 0 else "1" if j == arity - 1 else f"w{j}"
        first = lambda j: ("" if j == 0 else f"f{j - 1} + ") + f"i{j}" + ("" if w(j) == "1" else f" * {w(j)}")
        at = lambda j: f"f{j}" if j < last else first(j)
        span = lambda j: ("yield from range(min(total, stop))" if j < 0 else f"yield {at(j)}" if w(j) == "1"
                          else f"yield from range({at(j)}, min({at(j)} + {w(j)}, stop))")
        out = [f"def scan(values, stop, {tables}):", "    if stop <= 0:", "        return",
               "    n = len(values)", f"    total = n ** {arity}",
               *(f"    w{j} = n ** {arity - 1 - j}" for j in range(min(last + 1, arity - 1))),
               *(f"    {view} = curry({table}, {k}, stop)" for (table, k), view in self.views.items())]
        pad = " " * 4
        for j in range(-1, last + 1):
            if j >= 0:
                whole, rest = ("total", "stop") if j == 0 else (f"f{j - 1} + {w(j - 1)}", f"stop - f{j - 1}")
                cut = rest if w(j) == "1" else f"({rest} + {w(j)} - 1) // {w(j)}"
                out.append(f"{pad}for i{j}, v{j} in enumerate(values if {whole} <= stop else values[:{cut}]):")
                pad += "    "
                if j < last:
                    out.append(f"{pad}f{j} = {first(j)}")
            skip = "continue" if j >= 0 else "return"
            body = [f"{pad}    {line}" for line in self.lines[j + 1]]
            if j == last:
                out += [f"{pad}try:", *body, f"{pad}    if {left} == {right}:", f"{pad}        {skip}",
                        f"{pad}except (KeyError, StructureError):", f"{pad}    pass", pad + span(j)]
            elif body:
                out += [f"{pad}try:", *body, f"{pad}except (KeyError, StructureError):", f"{pad}    {span(j)}",
                        f"{pad}    {skip}"]
        return "\n".join(out) + "\n"


def _compile_law(law: Law):
    """The factory of ``law``'s legs and composites and the ``(symbol,
    slot)`` each of their law parameters is bound to.  Both generated
    functions evaluate each route left to right, depth first, one subscript
    per node; a leg that recurs is computed where it is first read and
    reused.  The legs function returns each route as a tuple of legs; the
    composites function nests the steps, ``pairs[l0, pairs[l1, l2]]`` for
    ``[l0, l1, l2]``, which reads the legs in the same order."""
    params: dict[tuple, str] = {}
    inline = _Inline(law.arity)
    legs, shared = law.left + law.right, {}
    emit = lambda t: shared.get(t) or (
        _emit(t, 1, params, law, inline) if legs.count(t) < 2 else
        f"({shared.setdefault(t, f'l{len(shared)}')} := {_emit(t, 1, params, law, inline)})")
    routes = [[emit(t) for t in route] for route in (law.left, law.right)]
    names = "".join(f"v{i}, " for i in range(law.arity)) or "_"  # a law of arity 0 has no variable
    tuples = ["".join(leg + ", " for leg in route) for route in routes]
    source = (f"def make(pairs, mors, {', '.join(params.values())}):\n"
              f"    def legs(idx):\n        {names} = idx\n        return ({tuples[0]}), ({tuples[1]})\n"
              f"    def composites(idx):\n        {names} = idx\n"
              f"        return {_composite(routes[0], inline)}, {_composite(routes[1], inline)}\n"
              f"    return legs, composites\n")
    namespace: dict = {}
    exec(compile(source, f"<law {law.name}>", "exec"), namespace)
    return namespace["make"], list(params)


def _compile_scan(law: Law, keys: list):
    """``law``'s scan generator (:class:`_Hoisted`), its tables the
    parameters of its legs and composites, ``keys`` in order."""
    params = {key: f"p{i}" for i, key in enumerate(keys)}
    hoisted = _Hoisted(law.arity)
    composites = [_composite([_emit(t, 1, params, law, hoisted) for t in route], hoisted)
                  for route in (law.left, law.right)]
    source = hoisted.scan(f"pairs, mors, curry, {', '.join(params.values())}", *composites)
    namespace: dict = {"StructureError": StructureError}
    exec(compile(source, f"<scan {law.name}>", "exec"), namespace)
    return namespace["scan"]


def _composite(route: list[str], out: _Inline) -> str:
    """Source of the composite of ``route``'s legs, as ``out`` writes it."""
    if not route:
        return out.read("pairs", ["()"])  # no key of ``composable``: an empty route has no composite
    if len(route) == 1:
        return out.node("(lone if (lone := {}) in mors else mors[lone])", route[0])
    return functools.reduce(lambda rest, leg: out.read("pairs", [leg, rest]), reversed(route[:-1]), route[-1])


def _emit(term: Expr, level: int, params: dict, law: Law, out: _Inline) -> str:
    """Source computing ``term`` at ``level`` as ``out`` writes it, each
    table a parameter named in ``params``, the law's variables read at
    ``law.var_level``."""
    tag = term[0]
    param = lambda sym, slot: params.setdefault((sym, slot), f"p{len(params)}")
    sub = lambda t, lv: _emit(t, lv, params, law, out)
    if tag == "op" and term[2][0] == "fst" and term[3] == ("snd", term[2][1]):  # a pair is its own key
        return out.read(param(term[1], level), [sub(term[2][1], 2)])
    if tag in ("op", "ap"):
        return out.read(param(term[1], level), [sub(a, level) for a in term[2:]])
    if tag == "k":
        return param(term[1 + level], "k")
    if tag == "v" and level == law.var_level:
        return f"v{term[1]}"
    if tag in ("src", "dst") and not level:
        return out.node(f"{param('ends', 'ends')}[{{}}].{tag}", sub(term[1], 1))
    if tag in _PAIR and level == 1:
        return out.node(f"{{}}[{_PAIR[tag]}]", sub(term[1], 2))
    if tag == "c":
        return param(term[1], level)
    if tag == "id" and level:
        return out.read(param("", "id"), [sub(term[1], 0)])
    if tag == "fam" and level:
        return out.read(param(term[1], "fam"), [sub(a, 0) for a in term[2:]], True)
    raise ValueError(f"law {law.name}: no {_LEVELS[level]} node {term!r}")
