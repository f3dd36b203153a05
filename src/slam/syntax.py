"""Abstract syntax for the sized (co)inductive lambda calculus.

Three syntactic categories (size expressions, types, terms) plus top-level
(co)inductive definitions.  This module holds the tree types, variable and
substitution machinery, alpha-equality, and the definition registry with
its well-formedness validation.  It also holds `_Record` and `_Frozen`,
the bases of every node and record class of slam (see "Records" below).

All values are immutable after construction: every size, type, term,
case branch, constructor signature, definition and diagnostic refuses
assignment and deletion with AttributeError, and a validated registry
is read-only, so everything here is safe to share between threads.
"""

from __future__ import annotations

from functools import reduce
from operator import attrgetter, is_
from typing import Callable, Container, Iterator, Mapping, Optional, Union

__all__ = [
    "SizeExpr", "Zero", "Infty", "SVar", "Succ", "SMin", "SMax",
    "ZERO", "INFTY", "ONE", "size_const", "size_plus", "smin", "smax",
    "CyclicDefMap", "rebuilt", "nodes", "fold", "depth_first_order",
    "Type", "TyVar", "Coind", "Arrow", "Forall", "Bot", "BOT",
    "Term", "Var", "Con", "Lam", "App", "SizeApp", "SizeLam",
    "Case", "Branch", "Fix", "Cofix",
    "PlainTerm", "PVar", "PCon", "PLam", "PApp", "PCase", "PBranch",
    "ConstructorSig", "Definition", "DefRegistry",
    "Diagnostic", "RegistryError",
    "sv", "fsv", "tv", "forall_binders",
    "size_names",
    "subst_type_sizes",
    "subst_term", "substitute",
    "alpha_eq",
    "strictly_positive", "validate_registry", "check_type_wf",
    "check_term_wf", "fresh_name", "node_count",
]


_NO_VARS: frozenset[str] = frozenset()


# ---------------------------------------------------------------------------
# Records
#
# Every node and record class of slam is a plain class with an `__init__`
# of its own, written out, so that importing slam generates no code.
# `_fields` names a class's fields in order: the arguments of its
# `__init__` (a successor, built from the size it is one more than, is
# the one exception).  A record shows as `Name(field=value, ...)` over
# them, and == compares them, all but those in `_uncompared`, as one
# tuple, between two instances of one class; such a record is mutable
# and unhashable.  A `_Frozen` record hashes the same tuple and refuses
# assignment and deletion; its `__init__` sets each field once, with
# `_set`, which keeps the fields of a node with an instance dict in the
# interpreter's compact per-class layout.  What an `__init__` derives
# from the fields, such as a term's free variables `fv`, is set beside
# them and takes part in neither repr nor ==.  Trees whose == is a loop
# over their nodes replace `__eq__` and `__hash__` (see
# `_compare_as_trees`), and sizes and types their repr.

_set = object.__setattr__


class _Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _uncompared: tuple[str, ...] = ()
    __hash__ = None

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls._fields
        cls._compared = tuple(f for f in cls._fields
                              if f not in cls._uncompared)

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"


class _Frozen(_Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._key())


# ---------------------------------------------------------------------------
# Node shapes
#
# Each size, type and term node class declares its children once, in
# `_kids`, and how it is rebuilt over new ones, in `_with`; the two walks
# below, `nodes` and `fold`, read nothing else of a node's shape, so they
# serve all three families.  A child is of its parent's family: a type's
# sizes and a term's sizes and annotations are no children, and a caller
# that wants them walks them on their own.  A successor is a whole run of
# successors, and its one child is the run's base, so a walk takes a run
# in one step.

class _Node(_Frozen):
    __slots__ = ()

    def _kids(self) -> tuple:
        return ()


def rebuilt(x, kids, _c=None):
    """x over the children `kids`: x itself when each is the child x had.
    It takes a fold's context and ignores it, so it serves as a fold's
    node function."""
    if all(map(is_, kids, x._kids())):
        return x
    return x._with(kids)


def nodes(x, into: Optional[tuple] = None) -> Iterator:
    """The nodes of a size, a type or a term, decorated or plain, in
    pre-order, left to right (a case's scrutinee, then its branch
    bodies); a run of successors is one node, its top, followed by the
    run's base.  With `into`, only the children of nodes of those
    classes are visited."""
    stack = [x]
    while stack:
        x = stack.pop()
        while True:  # down the leftmost path, the other children stacked
            yield x
            if into is not None and type(x) not in into:
                break
            kids = x._kids()
            if not kids:
                break
            x = kids[0]
            if len(kids) == 2:
                stack.append(kids[1])
            elif len(kids) > 2:
                stack.extend(reversed(kids[1:]))


def fold(x, fn: Callable, into: Optional[tuple] = None,
         defs: Optional[Mapping[str, "SizeExpr"]] = None,
         enter: Optional[Callable] = None, ctx=None):
    """The value of fn at the root of a size, a type or a term, computed
    bottom-up: `fn(y, kids, c)` gets a node, the values of its children
    (`_kids`), left to right, and the context c of its children, and
    returns the value of y.

    The context starts as `ctx` and passes down unchanged, except that
    with `enter`, each node x reached in a context c is first passed to
    `enter(x, c)`, in pre-order, left to right, which returns (y, c2):
    the node to fold in x's place and the context of its children.
    With `into`, only nodes of those classes have their children
    visited; any other node is passed to fn with no kids.  With `defs`,
    a size variable it defines stands for its definition: its value is
    that of defs[name], computed once, and a cyclic defs raises
    CyclicDefMap.

    The walk keeps its own stack of (node, context, k) items: k is None
    for a node to visit, the number of children whose values a node
    takes, or -1 to record the value of the definition named."""
    memo: dict[str, object] = {}
    opened: set[str] = set()
    vals: list = []
    work: list = [(x, ctx, None)]
    while work:
        x, c, k = work.pop()
        if k is not None:
            if k < 0:
                memo[x] = vals[-1]
            else:
                kids = vals[len(vals) - k:]
                del vals[len(vals) - k:]
                vals.append(fn(x, kids, c))
            continue
        if defs is not None and type(x) is SVar and x.name in defs:
            name = x.name
            if name in memo:
                vals.append(memo[name])
            elif name in opened:
                raise CyclicDefMap(f"cyclic definition map: {sorted(defs)}")
            else:
                opened.add(name)
                work.append((name, c, -1))
                work.append((defs[name], c, None))
            continue
        if enter is not None:
            x, c = enter(x, c)
        kids = x._kids() if into is None or type(x) in into else ()
        if kids:
            work.append((x, c, len(kids)))
            for y in reversed(kids):
                work.append((y, c, None))
        else:
            vals.append(fn(x, kids, c))
    return vals[0]


# ---------------------------------------------------------------------------
# Size expressions
#
# Size nodes are hashed and compared without recursion.  Each node's hash
# is computed once, when it is built, from its children's (a slot, `_hash`,
# that is no field), and two sizes compare as trees do (see
# `_compare_as_trees`), with the hash in the label, so that sizes of
# unequal hashes differ at once.  A successor is the run s+n in one node:
# `base`, the s below it, which is no successor, and `n` >= 1, the number
# of successors, so a run costs one node whatever its length and
# extending it costs O(1).  Size nodes keep their fields in
# slots, and pickle and copy as the call that builds them anew, which
# computes the hash again.

class _Size(_Node):
    __slots__ = ("_hash",)

    def __init__(self) -> None:
        _set(self, "_hash", hash(type(self)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return type(self), tuple([getattr(self, f) for f in self._fields])


class Zero(_Size):
    __slots__ = ()

    def __repr__(self) -> str:
        return "0"


class Infty(_Size):
    __slots__ = ()

    def __repr__(self) -> str:
        return "oo"


class SVar(_Size):
    __slots__ = ("name",)
    _fields = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)
        _set(self, "_hash", hash(name))

    def __repr__(self) -> str:
        return self.name


class Succ(_Size):
    """Succ(arg) is arg+1; the node holds the run base+n it makes."""
    __slots__ = ("base", "n")
    _fields = ("base", "n")

    def __init__(self, arg: "SizeExpr") -> None:
        if type(arg) is Succ:
            _run(self, arg.base, arg.n + 1)
        else:
            _run(self, arg, 1)

    @property
    def arg(self) -> "SizeExpr":
        """The size this is one more than."""
        return size_plus(self.base, self.n - 1)

    def _kids(self) -> tuple:
        return (self.base,)

    def _with(self, kids) -> "SizeExpr":
        return size_plus(kids[0], self.n)

    def __repr__(self) -> str:
        return f"{self.base!r}" + "+1" * self.n

    def __reduce__(self):
        return size_plus, (self.base, self.n)


class _MinMax(_Size):
    __slots__ = ("left", "right")
    _fields = ("left", "right")

    def __init__(self, left: "SizeExpr", right: "SizeExpr") -> None:
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_hash", hash((type(self), left._hash, right._hash)))

    def _kids(self) -> tuple:
        return (self.left, self.right)

    def _with(self, kids) -> "SizeExpr":
        return type(self)(*kids)


class SMin(_MinMax):
    __slots__ = ()


class SMax(_MinMax):
    __slots__ = ()


SizeExpr = Union[Zero, Infty, SVar, Succ, SMin, SMax]


def _run(x: Succ, base: SizeExpr, n: int) -> Succ:
    _set(x, "base", base)
    _set(x, "n", n)
    _set(x, "_hash", hash((Succ, base._hash, n)))
    return x


ZERO = Zero()
INFTY = Infty()
ONE = Succ(ZERO)


def size_plus(s: SizeExpr, n: int) -> SizeExpr:
    """s+n: n successors on top of s, as one node."""
    if n < 1:
        return s
    if type(s) is Succ:
        s, n = s.base, s.n + n
    return _run(object.__new__(Succ), s, n)


def size_const(n: int) -> SizeExpr:
    """The n-fold successor of 0."""
    return size_plus(ZERO, n)


def smin(*args: SizeExpr) -> SizeExpr:
    """Left-nested n-ary minimum; smin(s) is s itself."""
    return reduce(SMin, args)


def smax(*args: SizeExpr) -> SizeExpr:
    return reduce(SMax, args)


class CyclicDefMap(Exception):
    pass


# ---------------------------------------------------------------------------
# Types

class TyVar(_Node):
    _fields = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)

    def __repr__(self) -> str:
        return self.name


class Coind(_Node):
    """A decorated (co)inductive type d^s(params).

    Covers both inductive and coinductive definitions; the polarity lives in
    the registry entry for `defname`.  Undecorated surface syntax d(params)
    is sugar for size oo.  Its children are its parameters; its size is
    walked by the size walks.
    """

    _fields = ("defname", "size", "params")

    def __init__(self, defname: str, size: SizeExpr,
                 params: tuple["Type", ...] = ()) -> None:
        _set(self, "defname", defname)
        _set(self, "size", size)
        _set(self, "params", params)

    def _kids(self) -> tuple:
        return self.params

    def _with(self, kids) -> "Type":
        return Coind(self.defname, self.size, tuple(kids))


class Arrow(_Node):
    _fields = ("dom", "cod")

    def __init__(self, dom: "Type", cod: "Type") -> None:
        _set(self, "dom", dom)
        _set(self, "cod", cod)

    def _kids(self) -> tuple:
        return (self.dom, self.cod)

    def _with(self, kids) -> "Type":
        return Arrow(*kids)


class Forall(_Node):
    _fields = ("var", "body")

    def __init__(self, var: str, body: "Type") -> None:
        _set(self, "var", var)
        _set(self, "body", body)

    def _kids(self) -> tuple:
        return (self.body,)

    def _with(self, kids) -> "Type":
        return Forall(self.var, kids[0])


class Bot(_Node):
    """Least-type sentinel: below everything, absorbed by joins.

    Used by subtyping and inference for constructor arguments that
    constrain nothing (an empty list fixes no element type).  Not part of
    the surface language: it prints as `_|_`, which does not parse.
    """

    def __repr__(self) -> str:
        return "<bot>"


BOT = Bot()

Type = Union[TyVar, Coind, Arrow, Forall, Bot]


def _show(x: Union[SizeExpr, Type]) -> str:
    """The repr of a min, a max or a type with children, such as
    `(forall i. (Nat^i+1() -> List^max(i,oo)(A)))`, built by one fold."""
    return fold(x, _shown)


def _shown(x, kids: list, _c) -> str:
    cls = type(x)
    if cls is Succ:
        return kids[0] + "+1" * x.n
    if cls is SMin or cls is SMax:
        return f"{'min' if cls is SMin else 'max'}({kids[0]},{kids[1]})"
    if cls is Coind:
        return f"{x.defname}^{_show(x.size)}({','.join(kids)})"
    if cls is Arrow:
        return f"({kids[0]} -> {kids[1]})"
    return f"(forall {x.var}. {kids[0]})" if cls is Forall else repr(x)


for _cls in (SMin, SMax, Coind, Arrow, Forall):
    _cls.__repr__ = _show


# ---------------------------------------------------------------------------
# Terms
#
# Decorated and plain terms share their node shapes.  Each term class
# declares its children once, in `_kids` (for a case: the scrutinee,
# then the branch bodies), the term variables each child binds, in
# `_binds`, and how it is rebuilt over new children, in `_with`, or over
# new binder names, in `_rebind`; the walks below read nothing else of a
# term's shape.  Each node caches its free term variables in `fv`,
# computed from its children's by the `__init__` of its shape, so
# reading it costs O(1) and building a node never recurses.  `fv` takes
# no part in equality, hashing or repr.  Term nodes keep their fields in
# an instance dict.

class _Term(_Frozen):
    __slots__ = ()

    def _kids(self) -> tuple:
        return ()

    def _binds(self) -> tuple:
        return ()


class _VarShape(_Term):
    __slots__ = ()
    _fields = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)
        _set(self, "fv", frozenset((name,)))


class _ConShape(_Term):
    __slots__ = ()
    _fields = ("name",)
    fv = _NO_VARS

    def __init__(self, name: str) -> None:
        _set(self, "name", name)


class _AbsShape(_Term):
    # one term variable, `var`, bound over `body`; `_make(var, body)`
    # builds the node with its other fields kept
    __slots__ = ()
    _fields = ("var", "ty", "body")

    def __init__(self, var: str, ty: Type, body) -> None:  # Lam, Fix
        _set(self, "var", var)
        _set(self, "ty", ty)
        _bind(self, body)

    def _kids(self) -> tuple:
        return (self.body,)

    def _binds(self) -> tuple:
        return ((self.var,),)

    def _with(self, kids):
        return self._make(self.var, kids[0])

    def _rebind(self, binds):
        return self._make(binds[0][0], self.body)

    def _make(self, var, body):  # Lam, Fix: (var, ty, body)
        return type(self)(var, self.ty, body)


def _bind(x: _AbsShape, body) -> None:
    # sets the body of x, whose `var` is set, and the free variables
    _set(x, "body", body)
    fv = body.fv
    _set(x, "fv", fv - {x.var} if x.var in fv else fv)


class _AppShape(_Term):
    __slots__ = ()
    _fields = ("fun", "arg")

    def __init__(self, fun, arg) -> None:
        _set(self, "fun", fun)
        _set(self, "arg", arg)
        _set(self, "fv", _union(fun.fv, arg.fv))

    def _kids(self) -> tuple:
        return (self.fun, self.arg)

    def _binds(self) -> tuple:
        return ((), ())

    def _with(self, kids):
        return type(self)(*kids)


class _CaseShape(_Term):
    __slots__ = ()
    _fields = ("scrutinee", "branches")

    def __init__(self, scrutinee, branches: tuple) -> None:
        _set(self, "scrutinee", scrutinee)
        _set(self, "branches", branches)
        fv = scrutinee.fv
        for b in branches:
            bfv = b.body.fv
            if not bfv.isdisjoint(b.binders):
                bfv = bfv.difference(b.binders)
            fv = _union(fv, bfv)
        _set(self, "fv", fv)

    def _kids(self) -> tuple:
        return (self.scrutinee, *(b.body for b in self.branches))

    def _binds(self) -> tuple:
        return ((), *(b.binders for b in self.branches))

    def _with(self, kids):
        return type(self)(kids[0], tuple(
            b if body is b.body else type(b)(b.con, b.binders, body)
            for b, body in zip(self.branches, kids[1:])))

    def _rebind(self, binds):
        return type(self)(self.scrutinee, tuple(
            type(b)(b.con, names, b.body)
            for b, names in zip(self.branches, binds[1:])))


class _BranchShape(_Frozen):
    __slots__ = ()
    _fields = ("con", "binders", "body")

    def __init__(self, con: str, binders: tuple[str, ...], body) -> None:
        _set(self, "con", con)
        _set(self, "binders", binders)
        _set(self, "body", body)


class _OneKid(_Term):
    # SizeApp and SizeLam: one child, under no term binder
    __slots__ = ()

    def _binds(self) -> tuple:
        return ((),)


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    # reuse an operand when it already holds the union, so chains of
    # applications share one set instead of copying it at every node
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


# Decorated terms

class Var(_VarShape):
    pass


class Con(_ConShape):
    pass


class Lam(_AbsShape):
    pass


class App(_AppShape):
    pass


class SizeApp(_OneKid):
    _fields = ("fun", "size")

    def __init__(self, fun: "Term", size: SizeExpr) -> None:
        _set(self, "fun", fun)
        _set(self, "size", size)
        _set(self, "fv", fun.fv)

    def _kids(self) -> tuple:
        return (self.fun,)

    def _with(self, kids):
        return SizeApp(kids[0], self.size)


class SizeLam(_OneKid):
    _fields = ("var", "body")

    def __init__(self, var: str, body: "Term") -> None:
        _set(self, "var", var)
        _set(self, "body", body)
        _set(self, "fv", body.fv)

    def _kids(self) -> tuple:
        return (self.body,)

    def _with(self, kids):
        return SizeLam(self.var, kids[0])


class Branch(_BranchShape):
    pass


class Case(_CaseShape):
    pass


class Fix(_AbsShape):
    pass


class Cofix(_AbsShape):
    _fields = ("size_var", "var", "ty", "body")

    def __init__(self, size_var: str, var: str, ty: Type, body: "Term"
                 ) -> None:
        _set(self, "size_var", size_var)
        _set(self, "var", var)
        _set(self, "ty", ty)
        _bind(self, body)

    def _make(self, var, body):
        return Cofix(self.size_var, var, self.ty, body)


Term = Union[Var, Con, Lam, App, SizeApp, SizeLam, Case, Fix, Cofix]


# Plain (erased) terms

class PVar(_VarShape):
    pass


class PCon(_ConShape):
    pass


class PLam(_AbsShape):
    _fields = ("var", "body")

    def __init__(self, var: str, body: "PlainTerm") -> None:
        _set(self, "var", var)
        _bind(self, body)

    def _make(self, var, body):
        return PLam(var, body)


class PApp(_AppShape):
    pass


class PBranch(_BranchShape):
    pass


class PCase(_CaseShape):
    pass


PlainTerm = Union[PVar, PCon, PLam, PApp, PCase]


# Equality of sizes, types and terms, and of the approximants of
# `rewrite`, compares two trees in one loop over pairs of nodes, not once
# per level, and each pair of shared nodes once: two nodes are equal when
# they are of one class, agree on their fields besides their children
# (their `_EQ_LABEL`), and have equal children.  The hash mixes the same
# three things, bottom-up in one loop, so equal trees hash alike; a size
# has its hash from when it was built.  A label holds whatever fixes the
# number of children, so that pairing them off compares them all.

def _branch_labels(x) -> tuple:
    return tuple((b.con, b.binders) for b in x.branches)


_EQ_LABEL: dict = {}


def _compare_as_trees(labels: dict) -> None:
    """Give each class in `labels` the tree equality and hash, with its
    label (a function of a node, or None for a node with no fields
    besides its children).  A size keeps the hash it was built with."""
    _EQ_LABEL.update(labels)
    for cls in labels:
        cls.__eq__ = _term_eq
        if not issubclass(cls, _Size):
            cls.__hash__ = _term_hash


def _term_eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    # a pair of shared nodes is compared once: `seen` holds the pairs
    # with children already pushed, made when the first is; self and
    # other keep their nodes, and so the ids, alive
    todo = [(self, other)]
    seen = None
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        if b.__class__ is not a.__class__:
            return False
        label = _EQ_LABEL[a.__class__]
        if label is not None and label(a) != label(b):
            return False
        kids = a._kids()
        if kids:
            pair = id(a) << 64 | id(b)
            if seen is None:
                seen = set()
            elif pair in seen:
                continue
            seen.add(pair)
            todo.extend(zip(kids, b._kids()))
    return True


def _term_hash(self) -> int:
    # a node's hash once its children's are known; each node of a shared
    # subterm is hashed once
    memo: dict[int, int] = {}
    todo = [self]
    while todo:
        x = todo[-1]
        if id(x) in memo:
            todo.pop()
            continue
        kids = x._kids()
        missing = [k for k in kids if id(k) not in memo]
        if missing:
            todo.extend(missing)
            continue
        todo.pop()
        label = _EQ_LABEL[x.__class__]
        memo[id(x)] = hash((x.__class__.__name__,
                            None if label is None else label(x),
                            *[memo[id(k)] for k in kids]))
    return memo[id(self)]


_compare_as_trees({
    Zero: None, Infty: None, SVar: attrgetter("name"),
    Succ: attrgetter("_hash", "n"), SMin: attrgetter("_hash"),
    SMax: attrgetter("_hash"),
    TyVar: attrgetter("name"), Arrow: None, Forall: attrgetter("var"),
    Coind: lambda x: (x.defname, x.size, len(x.params)), Bot: None,
    Var: attrgetter("name"), Con: attrgetter("name"),
    PVar: attrgetter("name"), PCon: attrgetter("name"),
    Lam: attrgetter("var", "ty"), Fix: attrgetter("var", "ty"),
    Cofix: attrgetter("size_var", "var", "ty"), PLam: attrgetter("var"),
    SizeLam: attrgetter("var"), SizeApp: attrgetter("size"),
    App: None, PApp: None, Case: _branch_labels, PCase: _branch_labels,
})


# ---------------------------------------------------------------------------
# Variable sets

def sv(x: Union[SizeExpr, Type]) -> frozenset[str]:
    """All size variables occurring in a size expression or type."""
    if type(x) is Succ:
        x = x.base
    if type(x) is SVar:
        return frozenset((x.name,))
    if type(x) is Zero or type(x) is Infty:
        return _NO_VARS
    out: set[str] = set()
    for y in nodes(x):
        if type(y) is SVar:
            out.add(y.name)
        elif type(y) is Coind:
            out.update(z.name for z in nodes(y.size) if type(z) is SVar)
    return frozenset(out)


def fsv(x) -> frozenset[str]:
    """Free size variables of a size, a type or a decorated term: those
    no forall, size abstraction or cofix binds (a term's annotations
    included)."""
    return fold(x, _fsv_node)


def _fsv_node(x, kids: list, _c) -> frozenset[str]:
    cls = type(x)
    if cls is SVar:
        return frozenset((x.name,))
    out = kids[0] if kids else _NO_VARS
    for k in kids[1:]:
        out = _union(out, k)
    if cls is Coind or cls is SizeApp:
        out = _union(out, sv(x.size))
    elif cls is Lam or cls is Fix or cls is Cofix:
        out = _union(out, fsv(x.ty))
    bound = (x.var if cls is Forall or cls is SizeLam
             else x.size_var if cls is Cofix else None)
    return out - {bound} if bound in out else out


def tv(t: Type) -> frozenset[str]:
    """All type variables occurring in a type."""
    return frozenset(x.name for x in nodes(t) if type(x) is TyVar)


def forall_binders(t: Type) -> frozenset[str]:
    """The size variables bound by a forall somewhere in a type."""
    return frozenset(x.var for x in nodes(t) if type(x) is Forall)


def size_names(t: Term) -> frozenset[str]:
    """Every size variable a term names: free, bound or binding,
    annotations included."""
    out: set[str] = set()
    for x in nodes(t):
        cls = type(x)
        if cls is SizeApp:
            out |= sv(x.size)
        elif cls is SizeLam:
            out.add(x.var)
        elif cls is Lam or cls is Fix or cls is Cofix:
            out |= sv(x.ty) | forall_binders(x.ty)
            if cls is Cofix:
                out.add(x.size_var)
    return frozenset(out)


def fresh_name(base: str, *avoid: Container[str]) -> str:
    """First of base, base_1, base_2, ... in none of `avoid`."""
    v, n = base, 0
    while any(v in a for a in avoid):
        n += 1
        v = f"{base}_{n}"
    return v


# ---------------------------------------------------------------------------
# Substitution

def subst_type_sizes(t, sizes: Mapping[str, SizeExpr],
                     mapping: Optional[Mapping[str, Type]] = None,
                     binder: Optional[Callable[[str], Optional[str]]] = None):
    """t, a size or a type, with each free size variable of `sizes` and
    each type variable of `mapping` replaced by its value, all at once.
    A forall that binds a name of `sizes` again keeps it in its scope.
    At each forall, in pre-order, `binder`, when given, returns its new
    name, or None to keep it; the old name is then replaced by the new
    one in its scope, at once with the rest.

    Nothing is renamed to avoid capture: no forall of t, as named here,
    may bind a free size variable of a value put in its scope.  Typing
    meets this by construction, since each value it puts under a forall
    is a name minted after that forall, a constant, a machine name under
    a forall the user spelled, or a `$a` name that subtyping picks apart
    from both types it relates (see `typecheck` and `subtyping`).
    """
    if not sizes and not mapping and binder is None:
        return t

    def enter(x, ren: dict):
        # at a forall: the renaming its scope gets
        if type(x) is Forall:
            if x.var in ren:  # bound here: the scope keeps it
                ren = {y: by for y, by in ren.items() if y != x.var}
            if binder is not None and (v := binder(x.var)) is not None:
                ren = {**ren, x.var: SVar(v)}
        return x, ren

    def node(x, kids, ren: dict):
        cls = type(x)
        if cls is SVar:
            return ren.get(x.name, x)
        if cls is TyVar:
            return mapping.get(x.name, x) if mapping else x
        if cls is Forall and x.var in ren:
            return Forall(ren[x.var].name, kids[0])
        if cls is Coind and ren:
            size = fold(x.size, node, ctx=ren)
            if size is not x.size:
                return Coind(x.defname, size, tuple(kids))
        return rebuilt(x, kids)

    return fold(t, node, enter=enter, ctx=dict(sizes))


def subst_term(t: Term, replacement: Term, var: str) -> Term:
    """Capture-avoiding substitution of a decorated term for a free variable.

    Used to link file bindings; typing itself never substitutes terms.
    """
    return substitute(t, ((var, replacement),))


def substitute(t, pairs):
    """t, a decorated or plain term, with the value of each (name, value)
    pair put for the free occurrences of the name, all at once: a name
    takes the value of the first pair that names it.  A binder that
    would capture a free variable of a value put under it is first
    renamed, in its scope, to the first name fresh_name gives that is
    free in neither the values nor the scope and is none of the scope's
    other binders.  A subterm no name is free in is returned as it is,
    the same object.

    The walk reads the node shapes itself: through `fold`, two
    callbacks per node doubled the cost of reduction.  Its stack holds
    (node, steps, out, i): node is to get `steps` (see `_steps_into`),
    and the result goes to out[i].  The nodes it changes are rebuilt
    last, children before parents, over the lists of their children's
    values."""
    first: dict = {}
    for y, v in pairs:
        if y in t.fv:
            first.setdefault(y, v)
    if not first:
        return t
    vals: list = [t]  # the result, in vals[0]
    nodes: list = []  # (node, its children's values, out, i), pre-order
    work: list = [(t, tuple(first.items()), vals, 0)]
    while work:
        x, s, out, i = work.pop()
        kids = x._kids()
        if not kids:  # a variable
            out[i] = _subst_var(x, s)
            continue
        new = list(kids)
        nodes.append((x, new, out, i))
        binds = x._binds()
        renamed = None
        for j, (k, names) in enumerate(zip(kids, binds)):
            c, names2 = _steps_into(s, k.fv, names)
            if c is not None:
                work.append((k, c, new, j))
            if names2 is not names:
                renamed = renamed or list(binds)
                renamed[j] = names2
        if renamed is not None:
            nodes[-1] = (x._rebind(renamed), new, out, i)
    for x, new, out, i in reversed(nodes):  # children before parents
        out[i] = x._with(new)
    return vals[0]


def _steps_into(steps, fv, names):
    """The substitutions a child with free variables fv, under binders
    `names`, gets from `steps` (None for none), and its binders after
    the renaming they call for.

    Each step (y, v) puts v for y, where v is a term, or a name that y
    is renamed to.  The renaming steps are made one after the other;
    the steps that put terms come after them and are made at once.  A
    binder that those would capture is renamed first, by a renaming step
    put in front of them.  fv follows the renaming steps made so far."""
    if len(steps) == 1:
        y, v = steps[0]
        if y not in fv or y in names:
            return None, names
        if not names or type(v) is not str and v.fv.isdisjoint(names):
            return steps, names
    out: list = []
    puts: list = []
    for y, v in steps:
        if y not in fv or y in names:
            continue
        if type(v) is not str:
            puts.append((y, v))
            continue
        if v in names:
            names, fv = _rename_apart(names, frozenset((v,)), fv, out)
        out.append((y, v))
        fv = (fv - {y}) | {v}
    if puts:
        free = frozenset().union(*[v.fv for _y, v in puts])
        if not free.isdisjoint(names):
            names, fv = _rename_apart(names, free, fv, out)
        out += puts
    return tuple(out) or None, names


def _rename_apart(names, free, fv, out):
    """`names` with each binder in free renamed to the first name
    fresh_name gives that is none of free, fv and names (fv holds the
    names the steps put for); out gets a renaming step for each renamed
    binder fv has.  Also fv after the renaming steps."""
    for i, x in enumerate(names):
        if x in free:
            nv = fresh_name(x, free | fv | set(names))
            if x in fv:
                out.append((x, nv))
                fv = (fv - {x}) | {nv}
            names = names[:i] + (nv,) + names[i + 1:]
    return names, fv


def _subst_var(x, steps):
    """A variable after the steps that reach it rename or replace it."""
    name = x.name
    for y, v in steps:
        if y == name:
            if type(v) is not str:
                return v
            name = v
    return type(x)(name)


# ---------------------------------------------------------------------------
# Alpha equality

def alpha_eq(a, b) -> bool:
    """Alpha-equality of two sizes, types, decorated or plain terms.

    Forall binders and the term variables a term binds compare up to
    renaming; a term's size binders compare by name, its size arguments
    structurally, and its annotations as types on their own.  One loop
    over a stack of pairs, each with the binders in scope on either
    side: a name maps to a mark its binding site shares with the other
    side's."""
    todo = [(a, b, {}, {})]
    while todo:
        a, b, ra, rb = todo.pop()
        cls = type(a)
        if cls is not type(b):
            return False
        if cls is SVar or cls is Var or cls is PVar:
            ma, mb = ra.get(a.name), rb.get(b.name)
            if ma is not mb or ma is None and a.name != b.name:
                return False
            continue
        if isinstance(a, _Size) and not ra and not rb:
            if a != b:  # nothing bound: equality, in a loop of its own
                return False
            continue
        label = _LABELS.get(cls)
        if label is not None and label(a) != label(b):
            return False
        if cls is Forall:
            mark = object()
            todo.append((a.body, b.body, {**ra, a.var: mark},
                         {**rb, b.var: mark}))
            continue
        if cls is Coind:
            todo.append((a.size, b.size, ra, rb))
        elif cls is Lam or cls is Fix or cls is Cofix:
            todo.append((a.ty, b.ty, {}, {}))
        ka, kb = a._kids(), b._kids()
        if len(ka) != len(kb):
            return False
        if not isinstance(a, _Term):
            todo.extend((x, y, ra, rb) for x, y in zip(ka, kb))
            continue
        for x, y, xs, ys in zip(ka, kb, a._binds(), b._binds()):
            if len(xs) != len(ys):
                return False
            xa, yb = ra, rb
            if xs:
                xa, yb = dict(ra), dict(rb)
                for p, q in zip(xs, ys):
                    xa[p] = yb[q] = object()
            todo.append((x, y, xa, yb))
    return True


# What two nodes of a class must share besides their children and binders
_LABELS = {
    Succ: attrgetter("n"), Coind: attrgetter("defname"),
    TyVar: attrgetter("name"), Con: attrgetter("name"),
    PCon: attrgetter("name"), SizeApp: attrgetter("size"),
    SizeLam: attrgetter("var"), Cofix: attrgetter("size_var"),
    Case: lambda x: [b.con for b in x.branches],
    PCase: lambda x: [b.con for b in x.branches],
}


# ---------------------------------------------------------------------------
# Definitions and the registry

class ConstructorSig(_Frozen):
    _fields = ("name", "arg_types", "span")
    _uncompared = ("span",)

    def __init__(self, name: str, arg_types: tuple[Type, ...],
                 span: Optional[tuple[int, int]] = None) -> None:
        _set(self, "name", name)
        _set(self, "arg_types", arg_types)
        _set(self, "span", span)
        # per argument, whether its type is closed (mentions no type
        # variable); computed once, when the signature is built
        _set(self, "closed", tuple(not tv(a) for a in arg_types))


class Definition(_Frozen):
    _fields = ("name", "coinductive", "params", "constructors", "span")
    _uncompared = ("span",)

    def __init__(self, name: str, coinductive: bool, params: tuple[str, ...],
                 constructors: tuple[ConstructorSig, ...],
                 span: Optional[tuple[int, int]] = None) -> None:
        _set(self, "name", name)
        _set(self, "coinductive", coinductive)
        _set(self, "params", params)
        _set(self, "constructors", constructors)
        _set(self, "span", span)

    @property
    def rec_var(self) -> str:
        # the recursive type variable is written with the definition's name
        return self.name


class Diagnostic(_Frozen):
    _fields = ("message", "span")

    def __init__(self, message: str,
                 span: Optional[tuple[int, int]] = None) -> None:
        _set(self, "message", message)
        _set(self, "span", span)

    def __str__(self) -> str:
        if self.span is None:
            return self.message
        line, col = self.span
        return f"{line}:{col}: {self.message}"


class RegistryError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(map(str, diagnostics)))


class DefRegistry:
    """Named (co)inductive definitions plus a constructor index.

    Populated by the parser (or programmatically); `validate_registry` must
    pass before the registry is used for typing or evaluation.
    """

    def __init__(self) -> None:
        self.defs: dict[str, Definition] = {}
        # constructor name -> its definition and signature
        self._cons: dict[str, tuple[Definition, ConstructorSig]] = {}
        self.validated = False
        self.order: tuple[str, ...] = ()

    def add(self, d: Definition) -> None:
        if self.validated:
            raise RegistryError([Diagnostic("registry is frozen after validation")])
        if d.name in self.defs:
            raise RegistryError([Diagnostic(f"duplicate definition {d.name}", d.span)])
        for c in d.constructors:
            if c.name in self._cons:
                raise RegistryError(
                    [Diagnostic(f"duplicate constructor {c.name}", c.span)])
        self.defs[d.name] = d
        for c in d.constructors:
            self._cons.setdefault(c.name, (d, c))

    def __contains__(self, name: str) -> bool:
        return name in self.defs

    def definition(self, name: str) -> Definition:
        return self.defs[name]

    def constructor_entry(self, con: str
                          ) -> Optional[tuple[Definition, ConstructorSig]]:
        """The definition a constructor belongs to and its signature."""
        return self._cons.get(con)

    def constructor(self, con: str) -> Optional[ConstructorSig]:
        entry = self._cons.get(con)
        return None if entry is None else entry[1]

    def constructors(self, defname: str) -> tuple[ConstructorSig, ...]:
        return self.defs[defname].constructors

    def mentioned_defs(self, t: Type) -> frozenset[str]:
        return frozenset(x.defname for x in nodes(t) if type(x) is Coind)


def strictly_positive(t: Type, reg: DefRegistry) -> bool:
    """Strict positivity of a type over the registry.

    Holds when the type is closed, is a type variable, is an arrow with a
    closed domain and strictly positive codomain, is a forall over a
    strictly positive body, or is d^oo applied to strictly positive
    parameters.
    """
    return fold(t, _positive)[1]


def _positive(t: Type, kids: list, _ctx) -> tuple[bool, bool]:
    # (whether t mentions a type variable, whether it is strictly positive)
    cls = type(t)
    if cls is TyVar:
        return True, True
    if cls is Arrow:
        (dom_open, _), (cod_open, cod_ok) = kids
        if not (dom_open or cod_open):
            return False, True
        return True, not dom_open and cod_ok
    if cls is Forall:
        return kids[0]
    if cls is Coind:
        if not any(o for o, _ in kids):
            return False, True
        return True, t.size == INFTY and all(ok for _, ok in kids)
    return False, True


def check_type_wf(t: Type, reg: DefRegistry,
                  tyvars: frozenset[str] = frozenset()) -> list[Diagnostic]:
    """Arity and name well-formedness of a type over the registry."""
    out: list[Diagnostic] = []
    for x in nodes(t):
        if type(x) is TyVar:
            if x.name not in tyvars:
                out.append(Diagnostic(f"unknown type variable {x.name}"))
        elif type(x) is Coind:
            d = reg.defs.get(x.defname)
            if d is None:
                out.append(Diagnostic(
                    f"unknown (co)inductive type {x.defname}"))
            elif len(d.params) != len(x.params):
                out.append(Diagnostic(
                    f"{x.defname} expects {len(d.params)} parameter(s), "
                    f"got {len(x.params)}"))
    return out


def check_term_wf(t: Term, reg: DefRegistry) -> list[Diagnostic]:
    """Well-formedness of a decorated term built without the parser.

    Annotation types must pass `check_type_wf` with no type variables
    allowed; case branches must use known constructors, pairwise
    distinct, with the right number of pairwise distinct binders.
    Diagnostics come in source order: a node's own before its children's,
    and a case branch's before its body's.  The parser refuses the same
    faults as it reads term text, with the first one's line:col, so a
    parsed term needs no call here.
    """
    def node(t: Term, kids: list, _c) -> list[Diagnostic]:
        cls = type(t)
        out: list[Diagnostic] = []
        if cls is Con and reg.constructor(t.name) is None:
            out.append(Diagnostic(f"unknown constructor {t.name}"))
        elif cls is Lam or cls is Fix or cls is Cofix:
            out += check_type_wf(t.ty, reg)
        elif cls is Case:
            out += kids[0]
            kids = kids[1:]
            seen: set[str] = set()
            for b, body in zip(t.branches, kids):
                if b.con in seen:
                    out.append(Diagnostic(f"duplicate case branch for {b.con}"))
                seen.add(b.con)
                sig = reg.constructor(b.con)
                if sig is None:
                    out.append(Diagnostic(f"unknown constructor {b.con} in case"))
                elif len(sig.arg_types) != len(b.binders):
                    out.append(Diagnostic(
                        f"branch for {b.con} binds {len(b.binders)} variable(s), "
                        f"constructor has {len(sig.arg_types)} argument(s)"))
                twice = [x for i, x in enumerate(b.binders)
                         if x in b.binders[:i]]
                if twice:
                    out.append(Diagnostic(
                        f"branch for {b.con} binds {twice[0]} twice"))
                out += body
            return out
        for k in kids:
            out += k
        return out

    return fold(t, node)


def validate_registry(reg: DefRegistry) -> list[Diagnostic]:
    """Run all registry well-formedness checks.

    Checks, per definition: at least one constructor; every constructor
    argument type well-formed by `check_type_wf`, with the recursive and
    parameter variables as its type variables, strictly positive and
    without free size variables; every parameter variable used by some
    constructor.  Globally: the definition-dependency relation must be
    acyclic (the cycle is named otherwise).  On success the registry is
    frozen and a topological order of definitions is recorded.
    """
    out: list[Diagnostic] = []
    for d in reg.defs.values():
        allowed = frozenset({d.rec_var}) | frozenset(d.params)
        if not d.constructors:
            out.append(Diagnostic(f"{d.name}: empty constructor list", d.span))
        used_params: set[str] = set()
        for c in d.constructors:
            for i, a in enumerate(c.arg_types):
                at = f"{d.name}.{c.name}: argument {i + 1}"
                out += [Diagnostic(f"{at}: {w.message}", c.span)
                        for w in check_type_wf(a, reg, allowed)]
                if fsv(a):
                    out.append(Diagnostic(
                        f"{at} has free size variable(s) "
                        f"{', '.join(sorted(fsv(a)))}", c.span))
                if not strictly_positive(a, reg):
                    out.append(Diagnostic(
                        f"{at} is not strictly positive", c.span))
                used_params |= tv(a)
        for p in d.params:
            if p not in used_params:
                out.append(Diagnostic(
                    f"{d.name}: parameter {p} does not occur in any "
                    f"constructor argument type", d.span))

    order, cycle = depth_first_order(reg.defs, lambda n: sorted(
        _dependencies(reg, n).intersection(reg.defs)))
    if cycle is not None:
        out.append(Diagnostic(
            "definition dependency cycle: " + " -> ".join(cycle)))
    if not out:
        reg.order = tuple(order)
        reg.validated = True
    return out


def _dependencies(reg: DefRegistry, name: str) -> frozenset[str]:
    deps: frozenset[str] = frozenset()
    for c in reg.defs[name].constructors:
        for a in c.arg_types:
            deps |= reg.mentioned_defs(a)
    return deps


def depth_first_order(roots: Iterable, deps: Callable
                      ) -> tuple[list, Optional[list]]:
    """The post-order of one depth-first search from each root in turn,
    going from each node n to the nodes deps(n) lists, in that order;
    and the first cycle met, as a path that ends where it starts, or
    None.  The order is complete only when there is no cycle.  The
    search keeps its own stack, so a long chain needs no deep Python
    stack."""
    order: list = []
    done: set = set()
    for root in roots:
        if root in done:
            continue
        path, on_path = [root], {root}
        stack = [iter(deps(root))]
        while stack:
            for m in stack[-1]:
                if m in done:
                    continue
                if m in on_path:
                    return order, path[path.index(m):] + [m]
                path.append(m)
                on_path.add(m)
                stack.append(iter(deps(m)))
                break
            else:
                stack.pop()
                on_path.discard(path[-1])
                done.add(path[-1])
                order.append(path.pop())
    return order, None


# ---------------------------------------------------------------------------
# Node counting (used to measure constraint growth)

def node_count(x) -> int:
    """Number of tree nodes in a size expression, type, or term (a case
    branch counts as a node, and so do the annotations of a term)."""
    total, stack = 0, [x]
    while stack:
        for y in nodes(stack.pop()):
            cls = type(y)
            total += y.n if cls is Succ else 1
            if cls is Coind or cls is SizeApp:
                stack.append(y.size)
            elif cls is Lam or cls is Fix or cls is Cofix:
                stack.append(y.ty)
            elif cls is Case or cls is PCase:
                total += len(y.branches)
    return total
