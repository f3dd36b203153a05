"""Abstract syntax for the sized (co)inductive lambda calculus.

Three syntactic categories (size expressions, types, terms) plus top-level
(co)inductive definitions.  This module holds the tree types, variable and
substitution machinery, alpha-equality, and the definition registry with
its well-formedness validation.

All values are immutable after construction; a validated registry is
read-only, so everything here is safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

__all__ = [
    "SizeExpr", "Zero", "Infty", "SVar", "Succ", "SMin", "SMax",
    "ZERO", "INFTY", "ONE", "size_const", "size_plus", "smin", "smax",
    "CyclicDefMap", "rebuilt", "size_nodes", "fold_size", "type_nodes",
    "fold_type", "depth_first_order",
    "Type", "TyVar", "Coind", "Arrow", "Forall", "Bot", "BOT",
    "Term", "Var", "Con", "Lam", "App", "SizeApp", "SizeLam",
    "Case", "Branch", "Fix", "Cofix",
    "PlainTerm", "PVar", "PCon", "PLam", "PApp", "PCase", "PBranch",
    "ConstructorSig", "Definition", "DefRegistry",
    "Diagnostic", "RegistryError",
    "sv", "fsv", "tv", "fsv_term", "term_free_vars", "forall_binders",
    "size_names",
    "subst_size", "subst_type_size", "subst_type_sizes",
    "subst_type", "subst_type_multi", "subst_term",
    "alpha_eq_type", "alpha_eq_term", "alpha_eq_plain",
    "strictly_positive", "validate_registry", "check_type_wf",
    "check_term_wf", "fresh_name", "node_count", "uniquify_size_binders",
    "rename_binders_apart",
]


_NO_VARS: frozenset[str] = frozenset()


# ---------------------------------------------------------------------------
# Node shapes
#
# Each size and type node class declares its children once, in `_kids`,
# and how it is rebuilt over new ones, in `_with`; the walks below read
# nothing else of a node's shape.  A successor's child is the base of
# the run of successors it tops, so a walk takes a run in one step.

class _Node:
    __slots__ = ()

    def _kids(self) -> tuple:
        return ()


def rebuilt(x, kids):
    """x over the children `kids`: x itself when each is the child x had."""
    if all(map(is_, kids, x._kids())):
        return x
    return x._with(kids)


# ---------------------------------------------------------------------------
# Size expressions
#
# Size nodes are hashed and compared without recursion.  Each node's hash
# is computed once, when it is built, from its children's (a field that
# takes no part in comparison), and one loop compares two trees.  A
# successor also records the run of successors it tops: `n`, their
# number, and `base`, the first node below them that is no successor.
# Each class sets its fields in an `__init__` of its own, the cheapest
# way to build a frozen node.

_size_class = dataclass(frozen=True, eq=False, slots=True, init=False)


@_size_class
class _Size(_Node):
    _hash: int = field(init=False, compare=False, repr=False)

    def __init__(self) -> None:
        _set(self, "_hash", hash(type(self)))

    def __eq__(self, other):
        if not isinstance(other, _Size):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            if type(a) is SVar:
                if a.name != b.name:
                    return False
            elif type(a) is Succ and a.n != b.n:
                return False
            else:
                stack.extend(zip(a._kids(), b._kids()))
        return True

    def __hash__(self) -> int:
        return self._hash


@_size_class
class Zero(_Size):
    def __repr__(self) -> str:
        return "0"


@_size_class
class Infty(_Size):
    def __repr__(self) -> str:
        return "oo"


@_size_class
class SVar(_Size):
    name: str

    def __init__(self, name: str) -> None:
        _set(self, "name", name)
        _set(self, "_hash", hash(name))

    def __repr__(self) -> str:
        return self.name


@_size_class
class Succ(_Size):
    arg: "SizeExpr"
    n: int = field(init=False, compare=False, repr=False)
    base: "SizeExpr" = field(init=False, compare=False, repr=False)

    def __init__(self, arg: "SizeExpr") -> None:
        _set(self, "arg", arg)
        run = type(arg) is Succ
        _set(self, "n", arg.n + 1 if run else 1)
        _set(self, "base", arg.base if run else arg)
        _set(self, "_hash", hash((Succ, arg._hash)))

    def _kids(self) -> tuple:
        return (self.base,)

    def _with(self, kids) -> "SizeExpr":
        return size_plus(kids[0], self.n)

    def __repr__(self) -> str:
        return f"{self.arg!r}+1"


@_size_class
class _MinMax(_Size):
    left: "SizeExpr"
    right: "SizeExpr"

    def __init__(self, left: "SizeExpr", right: "SizeExpr") -> None:
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_hash", hash((type(self), left._hash, right._hash)))

    def _kids(self) -> tuple:
        return (self.left, self.right)

    def _with(self, kids) -> "SizeExpr":
        return type(self)(*kids)


@_size_class
class SMin(_MinMax):
    def __repr__(self) -> str:
        return f"min({self.left!r},{self.right!r})"


@_size_class
class SMax(_MinMax):
    def __repr__(self) -> str:
        return f"max({self.left!r},{self.right!r})"


SizeExpr = Union[Zero, Infty, SVar, Succ, SMin, SMax]

_set = object.__setattr__

ZERO = Zero()
INFTY = Infty()
ONE = Succ(ZERO)


def size_plus(s: SizeExpr, n: int) -> SizeExpr:
    """s+n: n successors on top of s."""
    for _ in range(n):
        s = Succ(s)
    return s


def size_const(n: int) -> SizeExpr:
    """The n-fold successor of 0."""
    return size_plus(ZERO, n)


def smin(*args: SizeExpr) -> SizeExpr:
    """Left-nested n-ary minimum; smin(s) is s itself."""
    if not args:
        raise ValueError("smin needs at least one argument")
    acc = args[0]
    for a in args[1:]:
        acc = SMin(acc, a)
    return acc


def smax(*args: SizeExpr) -> SizeExpr:
    if not args:
        raise ValueError("smax needs at least one argument")
    acc = args[0]
    for a in args[1:]:
        acc = SMax(acc, a)
    return acc


class CyclicDefMap(Exception):
    pass


def size_nodes(s: SizeExpr, into: Optional[tuple] = None
               ) -> Iterator[SizeExpr]:
    """The nodes of a size in pre-order, left to right; a run of
    successors is one node, its top, followed by the run's base.  With
    `into`, only the children of nodes of those classes are visited."""
    stack = [s]
    while stack:
        s = stack.pop()
        yield s
        if into is None or type(s) in into:
            stack.extend(reversed(s._kids()))


def fold_size(s: SizeExpr, fn: Callable, into: Optional[tuple] = None,
              defs: Optional[Mapping[str, SizeExpr]] = None):
    """The value of fn at the root of a size, computed bottom-up.

    `fn(x, kids)` gets a node and the values of its children (`_kids`),
    left to right, and returns the value of x; a run of successors is
    one node, its top, whose child is the run's base.  With `into`, only
    nodes of those classes have their children visited; any other node
    is passed to fn with no kids.  With `defs`, a variable it defines
    stands for its definition: its value is that of defs[name], computed
    once, and a cyclic defs raises CyclicDefMap.

    The walk keeps its own stack: work items are nodes to visit, and
    (node, k) markers that pass a node its k children's values, or
    (name, -1) markers that record the value of a definition."""
    memo: dict[str, object] = {}
    opened: set[str] = set()
    vals: list = []
    work: list = [s]
    while work:
        x = work.pop()
        if type(x) is tuple:
            x, k = x
            if k < 0:
                memo[x] = vals[-1]
            else:
                kids = vals[len(vals) - k:]
                del vals[len(vals) - k:]
                vals.append(fn(x, kids))
            continue
        if defs is not None and type(x) is SVar and x.name in defs:
            name = x.name
            if name in memo:
                vals.append(memo[name])
            elif name in opened:
                raise CyclicDefMap(f"cyclic definition map: {sorted(defs)}")
            else:
                opened.add(name)
                work.append((name, -1))
                work.append(defs[name])
            continue
        kids = x._kids() if into is None or type(x) in into else ()
        if kids:
            work.append((x, len(kids)))
            work.extend(reversed(kids))
        else:
            vals.append(fn(x, kids))
    return vals[0]


# ---------------------------------------------------------------------------
# Types

@dataclass(frozen=True)
class TyVar(_Node):
    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Coind(_Node):
    """A decorated (co)inductive type d^s(params).

    Covers both inductive and coinductive definitions; the polarity lives in
    the registry entry for `defname`.  Undecorated surface syntax d(params)
    is sugar for size oo.  Its children are its parameters; its size is
    walked by the size walks.
    """

    defname: str
    size: SizeExpr
    params: tuple["Type", ...] = ()

    def _kids(self) -> tuple:
        return self.params

    def _with(self, kids) -> "Type":
        return Coind(self.defname, self.size, tuple(kids))

    def __repr__(self) -> str:
        ps = ",".join(map(repr, self.params))
        return f"{self.defname}^{self.size!r}({ps})"


@dataclass(frozen=True)
class Arrow(_Node):
    dom: "Type"
    cod: "Type"

    def _kids(self) -> tuple:
        return (self.dom, self.cod)

    def _with(self, kids) -> "Type":
        return Arrow(*kids)

    def __repr__(self) -> str:
        return f"({self.dom!r} -> {self.cod!r})"


@dataclass(frozen=True)
class Forall(_Node):
    var: str
    body: "Type"

    def _kids(self) -> tuple:
        return (self.body,)

    def _with(self, kids) -> "Type":
        return Forall(self.var, kids[0])

    def __repr__(self) -> str:
        return f"(forall {self.var}. {self.body!r})"


@dataclass(frozen=True)
class Bot(_Node):
    """Least-type sentinel: below everything, absorbed by joins.

    Used by subtyping and inference for constructor arguments that
    constrain nothing (an empty list fixes no element type).  Not part of
    the surface language: never printed, never parsed.
    """

    def __repr__(self) -> str:
        return "<bot>"


BOT = Bot()

Type = Union[TyVar, Coind, Arrow, Forall, Bot]


def type_nodes(t: Type) -> Iterator[tuple[Type, frozenset[str]]]:
    """(node, bound) for the nodes of a type in pre-order, left to right:
    bound holds the size variables of the foralls around the node."""
    stack = [(t, _NO_VARS)]
    while stack:
        t, bound = stack.pop()
        yield t, bound
        kids = t._kids()
        if kids:
            if type(t) is Forall:
                bound = bound | {t.var}
            for k in reversed(kids):
                stack.append((k, bound))


def fold_type(t: Type, fn: Callable, enter: Optional[Callable] = None,
              ctx=None):
    """The value of fn at the root of a type, computed bottom-up.

    `fn(x, kids, ctx)` gets a node, the values of its children (`_kids`),
    left to right, and the context they were walked in, and returns the
    value of x.  The context starts as `ctx` and passes down unchanged,
    except that `enter(x, ctx)`, called at each forall on the way down
    (in pre-order, left to right), returns the context of its body.  The
    walk keeps its own stack of nodes to visit and of (node, context, k)
    markers that pass a node its k children's values."""
    vals: list = []
    work: list = [(t, ctx)]
    while work:
        item = work.pop()
        if len(item) == 3:
            x, c, k = item
            kids = vals[len(vals) - k:]
            del vals[len(vals) - k:]
            vals.append(fn(x, kids, c))
            continue
        x, c = item
        if enter is not None and type(x) is Forall:
            c = enter(x, c)
        kids = x._kids()
        if kids:
            work.append((x, c, len(kids)))
            for k in reversed(kids):
                work.append((k, c))
        else:
            vals.append(fn(x, kids, c))
    return vals[0]


# ---------------------------------------------------------------------------
# Decorated terms

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Con:
    name: str


@dataclass(frozen=True)
class Lam:
    var: str
    ty: Type
    body: "Term"


@dataclass(frozen=True)
class App:
    fun: "Term"
    arg: "Term"


@dataclass(frozen=True)
class SizeApp:
    fun: "Term"
    size: SizeExpr


@dataclass(frozen=True)
class SizeLam:
    var: str
    body: "Term"


@dataclass(frozen=True)
class Branch:
    con: str
    binders: tuple[str, ...]
    body: "Term"


@dataclass(frozen=True)
class Case:
    scrutinee: "Term"
    branches: tuple[Branch, ...]


@dataclass(frozen=True)
class Fix:
    var: str
    ty: Type
    body: "Term"


@dataclass(frozen=True)
class Cofix:
    size_var: str
    var: str
    ty: Type
    body: "Term"


Term = Union[Var, Con, Lam, App, SizeApp, SizeLam, Case, Fix, Cofix]


# ---------------------------------------------------------------------------
# Plain (erased) terms
#
# Each plain term caches its free variables in `fv`, computed from its
# children's `fv` when it is built, so reading it costs O(1) and building
# a node never recurses.  `fv` takes no part in equality, hashing or repr.

def _fv_field():
    return field(init=False, compare=False, repr=False)


@dataclass(frozen=True)
class PVar:
    name: str
    fv: frozenset[str] = _fv_field()

    def __post_init__(self) -> None:
        _set(self, "fv", frozenset((self.name,)))


@dataclass(frozen=True)
class PCon:
    name: str
    fv: frozenset[str] = _fv_field()

    def __post_init__(self) -> None:
        _set(self, "fv", _NO_VARS)


@dataclass(frozen=True)
class PLam:
    var: str
    body: "PlainTerm"
    fv: frozenset[str] = _fv_field()

    def __post_init__(self) -> None:
        fv = self.body.fv
        _set(self, "fv", fv - {self.var} if self.var in fv else fv)


@dataclass(frozen=True)
class PApp:
    fun: "PlainTerm"
    arg: "PlainTerm"
    fv: frozenset[str] = _fv_field()

    def __post_init__(self) -> None:
        _set(self, "fv", _union(self.fun.fv, self.arg.fv))


@dataclass(frozen=True)
class PBranch:
    con: str
    binders: tuple[str, ...]
    body: "PlainTerm"


@dataclass(frozen=True)
class PCase:
    scrutinee: "PlainTerm"
    branches: tuple[PBranch, ...]
    fv: frozenset[str] = _fv_field()

    def __post_init__(self) -> None:
        fv = self.scrutinee.fv
        for b in self.branches:
            bfv = b.body.fv
            if not bfv.isdisjoint(b.binders):
                bfv = bfv.difference(b.binders)
            fv = _union(fv, bfv)
        _set(self, "fv", fv)


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    # reuse an operand when it already holds the union, so chains of
    # applications share one set instead of copying it at every node
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


PlainTerm = Union[PVar, PCon, PLam, PApp, PCase]


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
    sizes = [x] if isinstance(x, _Size) else [
        t.size for t, _ in type_nodes(x) if type(t) is Coind]
    return frozenset(y.name for s in sizes for y in size_nodes(s)
                     if type(y) is SVar)


def fsv(x: Union[SizeExpr, Type]) -> frozenset[str]:
    """Free size variables (those not bound by a forall)."""
    if isinstance(x, _Size):
        return sv(x)
    out: set[str] = set()
    for t, bound in type_nodes(x):
        if type(t) is Coind:
            out |= sv(t.size).difference(bound)
    return frozenset(out)


def tv(t: Type) -> frozenset[str]:
    """All type variables occurring in a type."""
    return frozenset(x.name for x, _ in type_nodes(t) if type(x) is TyVar)


def fsv_term(t: Term) -> frozenset[str]:
    """Free size variables of a decorated term (annotations included)."""
    out: set[str] = set()
    stack: list[tuple[Term, frozenset[str]]] = [(t, _NO_VARS)]
    while stack:
        t, bound = stack.pop()
        while True:
            cls = type(t)
            if cls is App:
                stack.append((t.arg, bound))
                t = t.fun
            elif cls is Var or cls is Con:
                break
            elif cls is SizeApp:
                out |= sv(t.size).difference(bound)
                t = t.fun
            elif cls is SizeLam:
                bound = bound | {t.var}
                t = t.body
            elif cls is Lam or cls is Fix or cls is Cofix:
                if cls is Cofix:
                    bound = bound | {t.size_var}
                out |= fsv(t.ty).difference(bound)
                t = t.body
            elif cls is Case:
                stack.extend((b.body, bound) for b in t.branches)
                t = t.scrutinee
            else:
                raise TypeError(t)
    return frozenset(out)


def forall_binders(t: Type) -> frozenset[str]:
    """The size variables bound by a forall somewhere in a type."""
    return frozenset(x.var for x, _ in type_nodes(t) if type(x) is Forall)


def size_names(t: Term) -> frozenset[str]:
    """Every size variable a term names: free, bound or binding,
    annotations included."""
    out: set[str] = set()
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, (Var, Con)):
            continue
        if isinstance(t, (Lam, Fix, Cofix)):
            out |= sv(t.ty) | forall_binders(t.ty)
        if isinstance(t, Cofix):
            out.add(t.size_var)
        elif isinstance(t, SizeLam):
            out.add(t.var)
        if isinstance(t, App):
            stack += [t.fun, t.arg]
        elif isinstance(t, SizeApp):
            out |= sv(t.size)
            stack.append(t.fun)
        elif isinstance(t, Case):
            stack.append(t.scrutinee)
            stack += [b.body for b in t.branches]
        else:
            stack.append(t.body)
    return frozenset(out)


def fresh_name(base: str, avoid: Iterable[str]) -> str:
    """First of base, base_1, base_2, ... not in avoid."""
    avoid = set(avoid)
    if base not in avoid:
        return base
    n = 1
    while f"{base}_{n}" in avoid:
        n += 1
    return f"{base}_{n}"


# ---------------------------------------------------------------------------
# Substitution

def subst_size(s: SizeExpr, by: SizeExpr, var: str) -> SizeExpr:
    def node(x, kids):
        if type(x) is SVar:
            return by if x.name == var else x
        return rebuilt(x, kids)

    return fold_size(s, node)


def subst_type_size(t: Type, by: SizeExpr, var: str) -> Type:
    """t[by/var], capture-avoiding for forall-bound size variables."""
    return subst_type_sizes(t, ((by, var),))


def subst_type(t: Type, by: Type, var: str) -> Type:
    return subst_type_multi(t, {var: by})


def subst_type_multi(t: Type, mapping: dict[str, Type]) -> Type:
    """Simultaneous type-variable substitution.

    Size-variable capture by foralls in t is avoided by renaming the
    binder when it clashes with a free size variable of a substituted type.
    """
    return subst_type_sizes(t, (), mapping)


def subst_type_sizes(t: Type, steps: tuple[tuple[SizeExpr, str], ...],
                     mapping: Optional[Mapping[str, Type]] = None,
                     binder: Optional[Callable[[str], Optional[str]]] = None
                     ) -> Type:
    """t with the size substitutions `steps`, (by, var) pairs, made one
    after the other, each as `subst_type_size` makes it; then the type
    variables of `mapping` replaced at once, as `subst_type_multi` does.

    A forall whose binder a substitution would capture is renamed first.
    `binder`, when given, may rename each forall binder afterwards, in
    pre-order: it returns the new name, or None to keep the binder.
    """
    clash = frozenset().union(*map(fsv, (mapping or {}).values()))

    def enter(x: Forall, ctx):
        # the binder x gets, and the substitutions its body gets
        v, done = x.var, []

        def rename(nv: str) -> None:
            nonlocal v
            done.append((SVar(nv), v))
            v = nv

        def free() -> frozenset[str]:
            # the free size variables of x's body after the steps done
            names = fsv(x.body)
            for by, y in done:
                if y in names:
                    names = (names - {y}) | sv(by)
            return names

        for by, y in ctx[0]:
            if v != y:  # else y is bound here and the body keeps it
                if v in sv(by):
                    rename(fresh_name(v, sv(by) | free() | {y}))
                done.append((by, y))
        if v in clash:
            rename(fresh_name(v, clash | free()))
        if binder is not None and (nv := binder(v)) is not None:
            rename(nv)
        return tuple(done), v

    def node(x, kids, ctx):
        cls = type(x)
        if cls is TyVar:
            return mapping.get(x.name, x) if mapping else x
        if cls is Coind:
            size = x.size
            for by, y in ctx[0]:
                size = subst_size(size, by, y)
            if size is not x.size:
                return Coind(x.defname, size, tuple(kids))
        elif cls is Forall and ctx[1] != x.var:
            return Forall(ctx[1], kids[0])
        return rebuilt(x, kids)

    return fold_type(t, node, enter, (steps, None))


def subst_term(t: Term, replacement: Term, var: str) -> Term:
    """Capture-avoiding substitution of a decorated term for a free variable.

    Used to link file bindings; typing itself never substitutes terms.
    """
    free = term_free_vars(replacement)

    def go(t: Term, bound: frozenset[str]) -> Term:
        if isinstance(t, Var):
            return replacement if (t.name == var and t.name not in bound) else t
        if isinstance(t, Con):
            return t
        if isinstance(t, Lam):
            if t.var == var:
                return t
            if t.var in free:
                nv = fresh_name(t.var, free | term_free_vars(t.body) | {var})
                body = _rename_term_var(t.body, t.var, nv)
                return Lam(nv, t.ty, go(body, bound))
            return Lam(t.var, t.ty, go(t.body, bound))
        if isinstance(t, App):
            return App(go(t.fun, bound), go(t.arg, bound))
        if isinstance(t, SizeApp):
            return SizeApp(go(t.fun, bound), t.size)
        if isinstance(t, SizeLam):
            return SizeLam(t.var, go(t.body, bound))
        if isinstance(t, Case):
            brs = []
            for b in t.branches:
                if var in b.binders:
                    brs.append(b)
                    continue
                binders = list(b.binders)
                body = b.body
                for i, x in enumerate(binders):
                    if x in free:
                        nv = fresh_name(x, free | term_free_vars(body) | set(binders) | {var})
                        body = _rename_term_var(body, x, nv)
                        binders[i] = nv
                brs.append(Branch(b.con, tuple(binders), go(body, bound)))
            return Case(go(t.scrutinee, bound), tuple(brs))
        if isinstance(t, Fix):
            if t.var == var:
                return t
            if t.var in free:
                nv = fresh_name(t.var, free | term_free_vars(t.body) | {var})
                return Fix(nv, t.ty, go(_rename_term_var(t.body, t.var, nv), bound))
            return Fix(t.var, t.ty, go(t.body, bound))
        if isinstance(t, Cofix):
            if t.var == var:
                return t
            if t.var in free:
                nv = fresh_name(t.var, free | term_free_vars(t.body) | {var})
                return Cofix(t.size_var, nv, t.ty,
                             go(_rename_term_var(t.body, t.var, nv), bound))
            return Cofix(t.size_var, t.var, t.ty, go(t.body, bound))
        raise TypeError(t)

    return go(t, frozenset())


def term_free_vars(t: Term) -> frozenset[str]:
    """Free term variables of a decorated term."""
    out: set[str] = set()
    stack: list[tuple[Term, frozenset[str]]] = [(t, _NO_VARS)]
    while stack:
        t, bound = stack.pop()
        while True:
            cls = type(t)
            if cls is App:
                stack.append((t.arg, bound))
                t = t.fun
            elif cls is Var:
                if t.name not in bound:
                    out.add(t.name)
                break
            elif cls is Con:
                break
            elif cls is SizeApp:
                t = t.fun
            elif cls is SizeLam:
                t = t.body
            elif cls is Lam or cls is Fix or cls is Cofix:
                bound = bound | {t.var}
                t = t.body
            elif cls is Case:
                stack.extend((b.body, bound.union(b.binders))
                             for b in t.branches)
                t = t.scrutinee
            else:
                raise TypeError(t)
    return frozenset(out)


def _rename_term_var(t: Term, old: str, new: str) -> Term:
    return subst_term(t, Var(new), old)


def uniquify_size_binders(t: Term, avoid: Iterable[str] = ()) -> Term:
    """Rename size binders so every SizeLam/Cofix binder name is unique.

    Names are kept when already unique, so pretty output is untouched for
    well-named sources.  Free size variables are never renamed; binders
    also avoid the forall-bound names of annotation types (distinct
    binding sites) and any extra names the caller supplies (typically
    every size variable the typing context names, bound ones included).
    """
    used: set[str] = set(fsv_term(t)) | _annotation_binders(t) | set(avoid)

    def rename_size(s: SizeExpr, ren: dict[str, str]) -> SizeExpr:
        for old, new in ren.items():
            s = subst_size(s, SVar(new), old)
        return s

    def rename_type(ty: Type, ren: dict[str, str]) -> Type:
        return subst_type_sizes(ty, tuple((SVar(new), old)
                                          for old, new in ren.items()))

    # Preorder names the binders (left to right, as they are met), and
    # postorder rebuilds each node from its children's results on `out`.
    out: list[Term] = []
    work: list[tuple[bool, Term, dict[str, str], str]] = [(False, t, {}, "")]
    while work:
        built, t, ren, nv = work.pop()
        cls = type(t)
        if not built:
            if cls is Var or cls is Con:
                out.append(t)
                continue
            inner = ren
            if cls is SizeLam or cls is Cofix:
                old = t.var if cls is SizeLam else t.size_var
                nv = fresh_name(old, used)
                used.add(nv)
                inner = {**ren, old: nv}
            work.append((True, t, ren, nv))
            if cls is Case:
                work.extend((False, b.body, inner, "")
                            for b in reversed(t.branches))
                work.append((False, t.scrutinee, inner, ""))
            elif cls is App:
                work.append((False, t.arg, inner, ""))
                work.append((False, t.fun, inner, ""))
            elif cls is SizeApp:
                work.append((False, t.fun, inner, ""))
            elif cls in (Lam, SizeLam, Fix, Cofix):
                work.append((False, t.body, inner, ""))
            else:
                raise TypeError(t)
            continue
        if cls is App:
            arg = out.pop()
            fun = out.pop()
            out.append(t if fun is t.fun and arg is t.arg else App(fun, arg))
        elif cls is Case:
            n = len(t.branches)
            bodies = out[len(out) - n:]
            del out[len(out) - n:]
            scrut = out.pop()
            out.append(Case(scrut, tuple(Branch(b.con, b.binders, body)
                                         for b, body in zip(t.branches,
                                                            bodies))))
        elif cls is SizeApp:
            out.append(SizeApp(out.pop(), rename_size(t.size, ren)))
        elif cls is SizeLam:
            out.append(SizeLam(nv, out.pop()))
        elif cls is Lam:
            out.append(Lam(t.var, rename_type(t.ty, ren), out.pop()))
        elif cls is Fix:
            out.append(Fix(t.var, rename_type(t.ty, ren), out.pop()))
        else:
            out.append(Cofix(nv, t.var,
                             rename_type(t.ty, {**ren, t.size_var: nv}),
                             out.pop()))
    return out[0]


def rename_binders_apart(t: Type, avoid: Iterable[str]) -> Type:
    """The type with its forall binders renamed apart from `avoid` and
    from each other, as `uniquify_size_binders` renames a term's: a
    binder keeps its name when no earlier one took it, and otherwise
    takes the next free name of its family (i, i_1, i_2, ...)."""
    used = set(avoid) | fsv(t)

    def enter(x: Forall, ren: dict[str, str]) -> dict[str, str]:
        nv = x.var
        if nv in used:
            base, _, n = nv.rpartition("_")
            nv = fresh_name(base if base and n.isdigit() else nv, used)
        used.add(nv)
        return {**ren, x.var: nv}

    def node(x, kids, ren: dict[str, str]):
        cls = type(x)
        if cls is Forall and ren[x.var] != x.var:
            return Forall(ren[x.var], kids[0])
        if cls is Coind and ren:
            size = fold_size(x.size, lambda s, ks: SVar(ren[s.name])
                             if type(s) is SVar and s.name in ren
                             else rebuilt(s, ks))
            if size is not x.size:
                return Coind(x.defname, size, tuple(kids))
        return rebuilt(x, kids)

    return fold_type(t, node, enter, {})


def _annotation_binders(t: Term) -> frozenset[str]:
    out: set[str] = set()
    stack = [t]
    while stack:
        t = stack.pop()
        cls = type(t)
        if cls is App:
            stack.append(t.fun)
            stack.append(t.arg)
        elif cls is Var or cls is Con:
            continue
        elif cls is SizeApp:
            stack.append(t.fun)
        elif cls is SizeLam:
            stack.append(t.body)
        elif cls is Case:
            stack.append(t.scrutinee)
            stack.extend(b.body for b in t.branches)
        elif cls is Lam or cls is Fix or cls is Cofix:
            out |= forall_binders(t.ty)
            stack.append(t.body)
        else:
            raise TypeError(t)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Alpha equality

def alpha_eq_type(a: Type, b: Type) -> bool:
    return _aeq_ty(a, b, {}, {})


def _aeq_ty(a: Type, b: Type, ra: dict, rb: dict) -> bool:
    if isinstance(a, Bot) and isinstance(b, Bot):
        return True
    if isinstance(a, TyVar) and isinstance(b, TyVar):
        return a.name == b.name
    if isinstance(a, Coind) and isinstance(b, Coind):
        return (a.defname == b.defname
                and _aeq_size(a.size, b.size, ra, rb)
                and len(a.params) == len(b.params)
                and all(_aeq_ty(p, q, ra, rb) for p, q in zip(a.params, b.params)))
    if isinstance(a, Arrow) and isinstance(b, Arrow):
        return _aeq_ty(a.dom, b.dom, ra, rb) and _aeq_ty(a.cod, b.cod, ra, rb)
    if isinstance(a, Forall) and isinstance(b, Forall):
        mark = object()
        return _aeq_ty(a.body, b.body, {**ra, a.var: mark}, {**rb, b.var: mark})
    return False


def _aeq_size(a: SizeExpr, b: SizeExpr, ra: dict, rb: dict) -> bool:
    if isinstance(a, SVar) and isinstance(b, SVar):
        return ra.get(a.name, a.name) is rb.get(b.name, object()) \
            if a.name in ra or b.name in rb \
            else a.name == b.name
    if isinstance(a, Zero) and isinstance(b, Zero):
        return True
    if isinstance(a, Infty) and isinstance(b, Infty):
        return True
    if isinstance(a, Succ) and isinstance(b, Succ):
        return _aeq_size(a.arg, b.arg, ra, rb)
    if isinstance(a, SMin) and isinstance(b, SMin):
        return _aeq_size(a.left, b.left, ra, rb) and _aeq_size(a.right, b.right, ra, rb)
    if isinstance(a, SMax) and isinstance(b, SMax):
        return _aeq_size(a.left, b.left, ra, rb) and _aeq_size(a.right, b.right, ra, rb)
    return False


def alpha_eq_term(a: Term, b: Term) -> bool:
    return _aeq_tm(a, b, {}, {})


def _aeq_tm(a: Term, b: Term, ra: dict, rb: dict) -> bool:
    if isinstance(a, Var) and isinstance(b, Var):
        if a.name in ra or b.name in rb:
            return ra.get(a.name) is rb.get(b.name) and a.name in ra and b.name in rb
        return a.name == b.name
    if isinstance(a, Con) and isinstance(b, Con):
        return a.name == b.name
    if isinstance(a, Lam) and isinstance(b, Lam):
        if not alpha_eq_type(a.ty, b.ty):
            return False
        m = object()
        return _aeq_tm(a.body, b.body, {**ra, a.var: m}, {**rb, b.var: m})
    if isinstance(a, App) and isinstance(b, App):
        return _aeq_tm(a.fun, b.fun, ra, rb) and _aeq_tm(a.arg, b.arg, ra, rb)
    if isinstance(a, SizeApp) and isinstance(b, SizeApp):
        return _aeq_tm(a.fun, b.fun, ra, rb) and a.size == b.size
    if isinstance(a, SizeLam) and isinstance(b, SizeLam):
        # size binders compare by name; size alpha handled at the type level
        return a.var == b.var and _aeq_tm(a.body, b.body, ra, rb)
    if isinstance(a, Case) and isinstance(b, Case):
        if len(a.branches) != len(b.branches):
            return False
        if not _aeq_tm(a.scrutinee, b.scrutinee, ra, rb):
            return False
        for ba, bb in zip(a.branches, b.branches):
            if ba.con != bb.con or len(ba.binders) != len(bb.binders):
                return False
            ra2, rb2 = dict(ra), dict(rb)
            for xa, xb in zip(ba.binders, bb.binders):
                m = object()
                ra2[xa] = m
                rb2[xb] = m
            if not _aeq_tm(ba.body, bb.body, ra2, rb2):
                return False
        return True
    if isinstance(a, Fix) and isinstance(b, Fix):
        if not alpha_eq_type(a.ty, b.ty):
            return False
        m = object()
        return _aeq_tm(a.body, b.body, {**ra, a.var: m}, {**rb, b.var: m})
    if isinstance(a, Cofix) and isinstance(b, Cofix):
        if a.size_var != b.size_var or not alpha_eq_type(a.ty, b.ty):
            return False
        m = object()
        return _aeq_tm(a.body, b.body, {**ra, a.var: m}, {**rb, b.var: m})
    return False


def alpha_eq_plain(a: PlainTerm, b: PlainTerm) -> bool:
    return _aeq_pl(a, b, {}, {})


def _aeq_pl(a: PlainTerm, b: PlainTerm, ra: dict, rb: dict) -> bool:
    if isinstance(a, PVar) and isinstance(b, PVar):
        if a.name in ra or b.name in rb:
            return ra.get(a.name) is rb.get(b.name) and a.name in ra and b.name in rb
        return a.name == b.name
    if isinstance(a, PCon) and isinstance(b, PCon):
        return a.name == b.name
    if isinstance(a, PLam) and isinstance(b, PLam):
        m = object()
        return _aeq_pl(a.body, b.body, {**ra, a.var: m}, {**rb, b.var: m})
    if isinstance(a, PApp) and isinstance(b, PApp):
        return _aeq_pl(a.fun, b.fun, ra, rb) and _aeq_pl(a.arg, b.arg, ra, rb)
    if isinstance(a, PCase) and isinstance(b, PCase):
        if len(a.branches) != len(b.branches):
            return False
        if not _aeq_pl(a.scrutinee, b.scrutinee, ra, rb):
            return False
        for ba, bb in zip(a.branches, b.branches):
            if ba.con != bb.con or len(ba.binders) != len(bb.binders):
                return False
            ra2, rb2 = dict(ra), dict(rb)
            for xa, xb in zip(ba.binders, bb.binders):
                m = object()
                ra2[xa] = m
                rb2[xb] = m
            if not _aeq_pl(ba.body, bb.body, ra2, rb2):
                return False
        return True
    return False


# ---------------------------------------------------------------------------
# Definitions and the registry

@dataclass(frozen=True)
class ConstructorSig:
    name: str
    arg_types: tuple[Type, ...]
    span: Optional[tuple[int, int]] = field(default=None, compare=False)
    # per argument, whether its type is closed (mentions no type
    # variable); computed once, when the signature is built
    closed: tuple[bool, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "closed",
                           tuple(not tv(a) for a in self.arg_types))


@dataclass(frozen=True)
class Definition:
    name: str
    coinductive: bool
    params: tuple[str, ...]
    constructors: tuple[ConstructorSig, ...]
    span: Optional[tuple[int, int]] = field(default=None, compare=False)

    @property
    def rec_var(self) -> str:
        # the recursive type variable is written with the definition's name
        return self.name


@dataclass(frozen=True)
class Diagnostic:
    message: str
    span: Optional[tuple[int, int]] = None

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

    def def_of_constructor(self, con: str) -> Optional[Definition]:
        entry = self._cons.get(con)
        return None if entry is None else entry[0]

    def constructor(self, con: str) -> Optional[ConstructorSig]:
        entry = self._cons.get(con)
        return None if entry is None else entry[1]

    def arity(self, con: str) -> int:
        sig = self.constructor(con)
        if sig is None:
            raise KeyError(con)
        return len(sig.arg_types)

    def constructors(self, defname: str) -> tuple[ConstructorSig, ...]:
        return self.defs[defname].constructors

    def mentioned_defs(self, t: Type) -> frozenset[str]:
        return frozenset(x.defname for x, _ in type_nodes(t)
                         if type(x) is Coind)


def strictly_positive(t: Type, reg: DefRegistry) -> bool:
    """Strict positivity of a type over the registry.

    Holds when the type is closed, is a type variable, is an arrow with a
    closed domain and strictly positive codomain, is a forall over a
    strictly positive body, or is d^oo applied to strictly positive
    parameters.
    """
    return fold_type(t, _positive)[1]


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
    for x, _ in type_nodes(t):
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
    """Well-formedness of a decorated term.

    Annotation types must be closed (no type variables) and arity-correct;
    case branches must use known constructors, pairwise distinct, with the
    right number of binders.
    """
    out: list[Diagnostic] = []

    def check_ann(ty: Type) -> None:
        out.extend(check_type_wf(ty, reg))
        extra = tv(ty)
        if extra:
            out.append(Diagnostic(
                f"annotation type must be closed, has type variable(s) "
                f"{', '.join(sorted(extra))}"))

    # a stack of terms to visit and of diagnostics to emit, popped in
    # preorder so the diagnostics come out in source order
    stack: list = [t]
    while stack:
        t = stack.pop()
        cls = type(t)
        if cls is list:
            out.extend(t)
        elif cls is App:
            stack.append(t.arg)
            stack.append(t.fun)
        elif cls is Var:
            pass
        elif cls is Con:
            if reg.constructor(t.name) is None:
                out.append(Diagnostic(f"unknown constructor {t.name}"))
        elif cls is SizeApp:
            stack.append(t.fun)
        elif cls is SizeLam:
            stack.append(t.body)
        elif cls is Lam or cls is Fix or cls is Cofix:
            stack.append(t.body)
            check_ann(t.ty)
        elif cls is Case:
            todo: list = [t.scrutinee]
            seen: set[str] = set()
            for b in t.branches:
                diags = []
                if b.con in seen:
                    diags.append(Diagnostic(f"duplicate case branch for {b.con}"))
                seen.add(b.con)
                sig = reg.constructor(b.con)
                if sig is None:
                    diags.append(Diagnostic(f"unknown constructor {b.con} in case"))
                elif len(sig.arg_types) != len(b.binders):
                    diags.append(Diagnostic(
                        f"branch for {b.con} binds {len(b.binders)} variable(s), "
                        f"constructor has {len(sig.arg_types)} argument(s)"))
                todo += [diags, b.body]
            stack.extend(reversed(todo))
        else:
            raise TypeError(t)
    return out


def validate_registry(reg: DefRegistry) -> list[Diagnostic]:
    """Run all registry well-formedness checks.

    Checks, per definition: at least one constructor; every constructor
    argument type strictly positive, with type variables among the
    recursive and parameter variables and no free size variables; every
    parameter variable used by some constructor.  Globally: the
    definition-dependency relation must be acyclic (the cycle is named
    otherwise).  On success the registry is frozen and a topological
    order of definitions is recorded.
    """
    out: list[Diagnostic] = []
    for d in reg.defs.values():
        allowed = frozenset({d.rec_var}) | frozenset(d.params)
        if not d.constructors:
            out.append(Diagnostic(f"{d.name}: empty constructor list", d.span))
        used_params: set[str] = set()
        for c in d.constructors:
            for i, a in enumerate(c.arg_types):
                bad_names = tv(a) - allowed
                if bad_names:
                    out.append(Diagnostic(
                        f"{d.name}.{c.name}: argument {i + 1} mentions "
                        f"unknown type variable(s) {', '.join(sorted(bad_names))}",
                        c.span))
                if fsv(a):
                    out.append(Diagnostic(
                        f"{d.name}.{c.name}: argument {i + 1} has free size "
                        f"variable(s) {', '.join(sorted(fsv(a)))}", c.span))
                if not strictly_positive(a, reg):
                    out.append(Diagnostic(
                        f"{d.name}.{c.name}: argument {i + 1} is not strictly "
                        f"positive", c.span))
                out.extend(_check_arities(a, reg, c, d))
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


def _check_arities(t: Type, reg: DefRegistry, c: ConstructorSig,
                   d: Definition) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for x, _ in type_nodes(t):
        if type(x) is not Coind:
            continue
        other = reg.defs.get(x.defname)
        if other is None:
            out.append(Diagnostic(
                f"{d.name}.{c.name}: unknown type {x.defname}", c.span))
        elif len(other.params) != len(x.params):
            out.append(Diagnostic(
                f"{d.name}.{c.name}: {x.defname} expects "
                f"{len(other.params)} parameter(s)", c.span))
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
    """Number of tree nodes in a size expression, type, or term."""
    total, stack = 0, [x]
    while stack:
        x = stack.pop()
        cls = type(x)
        if isinstance(x, _Size):
            total += sum(y.n if type(y) is Succ else 1 for y in size_nodes(x))
            continue
        if isinstance(x, _Node):
            for y, _ in type_nodes(x):
                total += 1
                if type(y) is Coind:
                    stack.append(y.size)
            continue
        total += 1
        if cls in (Lam, Fix, Cofix):
            stack += [x.ty, x.body]
        elif cls in (App, PApp):
            stack += [x.fun, x.arg]
        elif cls is SizeApp:
            stack += [x.fun, x.size]
        elif cls in (SizeLam, PLam):
            stack.append(x.body)
        elif cls in (Case, PCase):
            total += len(x.branches)
            stack += [x.scrutinee, *(b.body for b in x.branches)]
        elif cls not in (Var, Con, PVar, PCon):
            raise TypeError(x)
    return total
