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
from typing import Iterable, Optional, Union

__all__ = [
    "SizeExpr", "Zero", "Infty", "SVar", "Succ", "SMin", "SMax",
    "ZERO", "INFTY", "ONE", "size_const", "smin", "smax",
    "Type", "TyVar", "Coind", "Arrow", "Forall", "Bot", "BOT",
    "Term", "Var", "Con", "Lam", "App", "SizeApp", "SizeLam",
    "Case", "Branch", "Fix", "Cofix",
    "PlainTerm", "PVar", "PCon", "PLam", "PApp", "PCase", "PBranch",
    "ConstructorSig", "Definition", "DefRegistry",
    "Diagnostic", "RegistryError",
    "sv", "fsv", "tv", "fsv_term", "term_free_vars", "forall_binders",
    "size_names",
    "subst_size", "subst_type_size",
    "subst_type", "subst_type_multi", "subst_term",
    "alpha_eq_type", "alpha_eq_term", "alpha_eq_plain",
    "strictly_positive", "validate_registry", "check_type_wf",
    "check_term_wf", "fresh_name", "node_count", "uniquify_size_binders",
    "rename_binders_apart",
]


# ---------------------------------------------------------------------------
# Size expressions

@dataclass(frozen=True)
class Zero:
    def __repr__(self) -> str:
        return "0"


@dataclass(frozen=True)
class Infty:
    def __repr__(self) -> str:
        return "oo"


@dataclass(frozen=True)
class SVar:
    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Succ:
    arg: "SizeExpr"

    def __repr__(self) -> str:
        return f"{self.arg!r}+1"


@dataclass(frozen=True)
class SMin:
    left: "SizeExpr"
    right: "SizeExpr"

    def __repr__(self) -> str:
        return f"min({self.left!r},{self.right!r})"


@dataclass(frozen=True)
class SMax:
    left: "SizeExpr"
    right: "SizeExpr"

    def __repr__(self) -> str:
        return f"max({self.left!r},{self.right!r})"


SizeExpr = Union[Zero, Infty, SVar, Succ, SMin, SMax]

ZERO = Zero()
INFTY = Infty()
ONE = Succ(ZERO)


def size_const(n: int) -> SizeExpr:
    """The n-fold successor of 0."""
    s: SizeExpr = ZERO
    for _ in range(n):
        s = Succ(s)
    return s


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


# ---------------------------------------------------------------------------
# Types

@dataclass(frozen=True)
class TyVar:
    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Coind:
    """A decorated (co)inductive type d^s(params).

    Covers both inductive and coinductive definitions; the polarity lives in
    the registry entry for `defname`.  Undecorated surface syntax d(params)
    is sugar for size oo.
    """

    defname: str
    size: SizeExpr
    params: tuple["Type", ...] = ()

    def __repr__(self) -> str:
        ps = ",".join(map(repr, self.params))
        return f"{self.defname}^{self.size!r}({ps})"


@dataclass(frozen=True)
class Arrow:
    dom: "Type"
    cod: "Type"

    def __repr__(self) -> str:
        return f"({self.dom!r} -> {self.cod!r})"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Type"

    def __repr__(self) -> str:
        return f"(forall {self.var}. {self.body!r})"


@dataclass(frozen=True)
class Bot:
    """Least-type sentinel: below everything, absorbed by joins.

    Used by subtyping and inference for constructor arguments that
    constrain nothing (an empty list fixes no element type).  Not part of
    the surface language: never printed, never parsed.
    """

    def __repr__(self) -> str:
        return "<bot>"


BOT = Bot()

Type = Union[TyVar, Coind, Arrow, Forall, Bot]


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

_NO_VARS: frozenset[str] = frozenset()


def _fv_field():
    return field(init=False, compare=False, repr=False)


def _set_fv(node, fv: frozenset[str]) -> None:
    object.__setattr__(node, "fv", fv)


@dataclass(frozen=True)
class PVar:
    name: str
    fv: frozenset[str] = _fv_field()

    def __post_init__(self) -> None:
        _set_fv(self, frozenset((self.name,)))


@dataclass(frozen=True)
class PCon:
    name: str
    fv: frozenset[str] = _fv_field()

    def __post_init__(self) -> None:
        _set_fv(self, _NO_VARS)


@dataclass(frozen=True)
class PLam:
    var: str
    body: "PlainTerm"
    fv: frozenset[str] = _fv_field()

    def __post_init__(self) -> None:
        fv = self.body.fv
        _set_fv(self, fv - {self.var} if self.var in fv else fv)


@dataclass(frozen=True)
class PApp:
    fun: "PlainTerm"
    arg: "PlainTerm"
    fv: frozenset[str] = _fv_field()

    def __post_init__(self) -> None:
        _set_fv(self, _union(self.fun.fv, self.arg.fv))


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
        _set_fv(self, fv)


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
    cls = type(x)
    while cls is Succ:
        x = x.arg
        cls = type(x)
    if cls is SVar:
        return frozenset((x.name,))
    if cls is Zero or cls is Infty:
        return _NO_VARS
    acc: set[str] = set()
    stack = [x]
    while stack:
        x = stack.pop()
        cls = type(x)
        while cls is Succ:
            x = x.arg
            cls = type(x)
        if cls is SVar:
            acc.add(x.name)
        elif cls is SMin or cls is SMax:
            stack.append(x.left)
            stack.append(x.right)
        elif cls is Coind:
            stack.append(x.size)
            stack.extend(x.params)
        elif cls is Arrow:
            stack.append(x.dom)
            stack.append(x.cod)
        elif cls is Forall:
            stack.append(x.body)
    return frozenset(acc)


def fsv(x: Union[SizeExpr, Type]) -> frozenset[str]:
    """Free size variables (those not bound by a forall)."""
    if isinstance(x, Forall):
        return frozenset(fsv(x.body) - {x.var})
    if isinstance(x, Arrow):
        return fsv(x.dom) | fsv(x.cod)
    if isinstance(x, Coind):
        acc = fsv(x.size)
        for p in x.params:
            acc |= fsv(p)
        return acc
    if isinstance(x, (TyVar, Bot)):
        return frozenset()
    return sv(x)


def tv(t: Type) -> frozenset[str]:
    """All type variables occurring in a type."""
    if isinstance(t, TyVar):
        return frozenset({t.name})
    if isinstance(t, Coind):
        acc: frozenset[str] = frozenset()
        for p in t.params:
            acc |= tv(p)
        return acc
    if isinstance(t, Arrow):
        return tv(t.dom) | tv(t.cod)
    if isinstance(t, Forall):
        return tv(t.body)
    if isinstance(t, Bot):
        return frozenset()
    return frozenset()


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
    if isinstance(t, Forall):
        return frozenset({t.var}) | forall_binders(t.body)
    if isinstance(t, Arrow):
        return forall_binders(t.dom) | forall_binders(t.cod)
    if isinstance(t, Coind):
        acc: frozenset[str] = frozenset()
        for p in t.params:
            acc |= forall_binders(p)
        return acc
    return frozenset()


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
    if isinstance(s, SVar):
        return by if s.name == var else s
    if isinstance(s, Succ):
        return Succ(subst_size(s.arg, by, var))
    if isinstance(s, SMin):
        return SMin(subst_size(s.left, by, var), subst_size(s.right, by, var))
    if isinstance(s, SMax):
        return SMax(subst_size(s.left, by, var), subst_size(s.right, by, var))
    return s


def subst_type_size(t: Type, by: SizeExpr, var: str) -> Type:
    """t[by/var], capture-avoiding for forall-bound size variables."""
    if isinstance(t, (TyVar, Bot)):
        return t
    if isinstance(t, Coind):
        return Coind(t.defname, subst_size(t.size, by, var),
                     tuple(subst_type_size(p, by, var) for p in t.params))
    if isinstance(t, Arrow):
        return Arrow(subst_type_size(t.dom, by, var),
                     subst_type_size(t.cod, by, var))
    if isinstance(t, Forall):
        if t.var == var:
            return t
        if t.var in sv(by):
            nv = fresh_name(t.var, sv(by) | fsv(t.body) | {var})
            body = subst_type_size(t.body, SVar(nv), t.var)
            return Forall(nv, subst_type_size(body, by, var))
        return Forall(t.var, subst_type_size(t.body, by, var))
    raise TypeError(t)


def subst_type(t: Type, by: Type, var: str) -> Type:
    return subst_type_multi(t, {var: by})


def subst_type_multi(t: Type, mapping: dict[str, Type]) -> Type:
    """Simultaneous type-variable substitution.

    Size-variable capture by foralls in t is avoided by renaming the
    binder when it clashes with a free size variable of a substituted type.
    """
    if isinstance(t, Bot):
        return t
    if isinstance(t, TyVar):
        return mapping.get(t.name, t)
    if isinstance(t, Coind):
        return Coind(t.defname, t.size,
                     tuple(subst_type_multi(p, mapping) for p in t.params))
    if isinstance(t, Arrow):
        return Arrow(subst_type_multi(t.dom, mapping),
                     subst_type_multi(t.cod, mapping))
    if isinstance(t, Forall):
        clash = set()
        for rep in mapping.values():
            clash |= fsv(rep)
        if t.var in clash:
            nv = fresh_name(t.var, clash | fsv(t.body))
            body = subst_type_size(t.body, SVar(nv), t.var)
            return Forall(nv, subst_type_multi(body, mapping))
        return Forall(t.var, subst_type_multi(t.body, mapping))
    raise TypeError(t)


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
        for old, new in ren.items():
            ty = subst_type_size(ty, SVar(new), old)
        return ty

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

    def size(s: SizeExpr, ren: dict[str, str]) -> SizeExpr:
        if isinstance(s, SVar):
            return SVar(ren.get(s.name, s.name))
        if isinstance(s, Succ):
            return Succ(size(s.arg, ren))
        if isinstance(s, (SMin, SMax)):
            return type(s)(size(s.left, ren), size(s.right, ren))
        return s

    def go(t: Type, ren: dict[str, str]) -> Type:
        if isinstance(t, Forall):
            nv = t.var
            if nv in used:
                base, _, n = nv.rpartition("_")
                nv = fresh_name(base if base and n.isdigit() else nv, used)
            used.add(nv)
            return Forall(nv, go(t.body, {**ren, t.var: nv}))
        if isinstance(t, Arrow):
            return Arrow(go(t.dom, ren), go(t.cod, ren))
        if isinstance(t, Coind):
            return Coind(t.defname, size(t.size, ren),
                         tuple(go(p, ren) for p in t.params))
        return t

    return go(t, {})


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
        if isinstance(t, Coind):
            acc = frozenset({t.defname})
            for p in t.params:
                acc |= self.mentioned_defs(p)
            return acc
        if isinstance(t, Arrow):
            return self.mentioned_defs(t.dom) | self.mentioned_defs(t.cod)
        if isinstance(t, Forall):
            return self.mentioned_defs(t.body)
        return frozenset()


def strictly_positive(t: Type, reg: DefRegistry) -> bool:
    """Strict positivity of a type over the registry.

    Holds when the type is closed, is a type variable, is an arrow with a
    closed domain and strictly positive codomain, is a forall over a
    strictly positive body, or is d^oo applied to strictly positive
    parameters.
    """
    if not tv(t):
        return True
    if isinstance(t, TyVar):
        return True
    if isinstance(t, Arrow):
        return not tv(t.dom) and strictly_positive(t.cod, reg)
    if isinstance(t, Forall):
        return strictly_positive(t.body, reg)
    if isinstance(t, Coind):
        return t.size == INFTY and all(strictly_positive(p, reg) for p in t.params)
    return False


def check_type_wf(t: Type, reg: DefRegistry,
                  tyvars: frozenset[str] = frozenset()) -> list[Diagnostic]:
    """Arity and name well-formedness of a type over the registry."""
    out: list[Diagnostic] = []
    if isinstance(t, TyVar):
        if t.name not in tyvars:
            out.append(Diagnostic(f"unknown type variable {t.name}"))
    elif isinstance(t, Coind):
        d = reg.defs.get(t.defname)
        if d is None:
            out.append(Diagnostic(f"unknown (co)inductive type {t.defname}"))
        elif len(d.params) != len(t.params):
            out.append(Diagnostic(
                f"{t.defname} expects {len(d.params)} parameter(s), "
                f"got {len(t.params)}"))
        for p in t.params:
            out.extend(check_type_wf(p, reg, tyvars))
    elif isinstance(t, Arrow):
        out.extend(check_type_wf(t.dom, reg, tyvars))
        out.extend(check_type_wf(t.cod, reg, tyvars))
    elif isinstance(t, Forall):
        out.extend(check_type_wf(t.body, reg, tyvars))
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

    cycle = _dependency_cycle(reg)
    if cycle is not None:
        out.append(Diagnostic(
            "definition dependency cycle: " + " -> ".join(cycle)))
    if not out:
        reg.order = _topological_order(reg)
        reg.validated = True
    return out


def _check_arities(t: Type, reg: DefRegistry, c: ConstructorSig,
                   d: Definition) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    if isinstance(t, Coind):
        other = reg.defs.get(t.defname)
        if other is None:
            out.append(Diagnostic(
                f"{d.name}.{c.name}: unknown type {t.defname}", c.span))
        elif len(other.params) != len(t.params):
            out.append(Diagnostic(
                f"{d.name}.{c.name}: {t.defname} expects "
                f"{len(other.params)} parameter(s)", c.span))
        for p in t.params:
            out.extend(_check_arities(p, reg, c, d))
    elif isinstance(t, Arrow):
        out.extend(_check_arities(t.dom, reg, c, d))
        out.extend(_check_arities(t.cod, reg, c, d))
    elif isinstance(t, Forall):
        out.extend(_check_arities(t.body, reg, c, d))
    return out


def _dependencies(reg: DefRegistry, name: str) -> frozenset[str]:
    deps: frozenset[str] = frozenset()
    for c in reg.defs[name].constructors:
        for a in c.arg_types:
            deps |= reg.mentioned_defs(a)
    return deps


def _dependency_cycle(reg: DefRegistry) -> Optional[list[str]]:
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in reg.defs}
    stack: list[str] = []

    def visit(n: str) -> Optional[list[str]]:
        color[n] = GRAY
        stack.append(n)
        for m in sorted(_dependencies(reg, n)):
            if m not in color:
                continue
            if color[m] == GRAY:
                i = stack.index(m)
                return stack[i:] + [m]
            if color[m] == WHITE:
                r = visit(m)
                if r is not None:
                    return r
        stack.pop()
        color[n] = BLACK
        return None

    for n in reg.defs:
        if color[n] == WHITE:
            r = visit(n)
            if r is not None:
                return r
    return None


def _topological_order(reg: DefRegistry) -> tuple[str, ...]:
    out: list[str] = []
    seen: set[str] = set()

    def visit(n: str) -> None:
        if n in seen:
            return
        seen.add(n)
        for m in sorted(_dependencies(reg, n)):
            if m in reg.defs:
                visit(m)
        out.append(n)

    for n in reg.defs:
        visit(n)
    return tuple(out)


# ---------------------------------------------------------------------------
# Node counting (used to measure constraint growth)

def node_count(x) -> int:
    """Number of tree nodes in a size expression, type, or term."""
    if isinstance(x, (Zero, Infty, SVar, TyVar, Bot, Var, Con, PVar, PCon)):
        return 1
    if isinstance(x, Succ):
        return 1 + node_count(x.arg)
    if isinstance(x, (SMin, SMax)):
        return 1 + node_count(x.left) + node_count(x.right)
    if isinstance(x, Coind):
        return 1 + node_count(x.size) + sum(node_count(p) for p in x.params)
    if isinstance(x, Arrow):
        return 1 + node_count(x.dom) + node_count(x.cod)
    if isinstance(x, Forall):
        return 1 + node_count(x.body)
    if isinstance(x, Lam):
        return 1 + node_count(x.ty) + node_count(x.body)
    if isinstance(x, (App, PApp)):
        return 1 + node_count(x.fun) + node_count(x.arg)
    if isinstance(x, SizeApp):
        return 1 + node_count(x.fun) + node_count(x.size)
    if isinstance(x, (SizeLam, PLam)):
        return 1 + node_count(x.body)
    if isinstance(x, (Case, PCase)):
        return 1 + node_count(x.scrutinee) + sum(
            1 + node_count(b.body) for b in x.branches)
    if isinstance(x, Fix):
        return 1 + node_count(x.ty) + node_count(x.body)
    if isinstance(x, Cofix):
        return 1 + node_count(x.ty) + node_count(x.body)
    raise TypeError(x)
