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
    acc: set[str] = set()
    _sv(x, acc)
    return frozenset(acc)


def _sv(x, acc: set[str]) -> None:
    if isinstance(x, SVar):
        acc.add(x.name)
    elif isinstance(x, Succ):
        _sv(x.arg, acc)
    elif isinstance(x, (SMin, SMax)):
        _sv(x.left, acc)
        _sv(x.right, acc)
    elif isinstance(x, Coind):
        _sv(x.size, acc)
        for p in x.params:
            _sv(p, acc)
    elif isinstance(x, Arrow):
        _sv(x.dom, acc)
        _sv(x.cod, acc)
    elif isinstance(x, Forall):
        _sv(x.body, acc)
    elif isinstance(x, (TyVar, Bot, Zero, Infty)):
        pass


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
    if isinstance(t, (Var, Con)):
        return frozenset()
    if isinstance(t, Lam):
        return fsv(t.ty) | fsv_term(t.body)
    if isinstance(t, App):
        return fsv_term(t.fun) | fsv_term(t.arg)
    if isinstance(t, SizeApp):
        return fsv_term(t.fun) | sv(t.size)
    if isinstance(t, SizeLam):
        return frozenset(fsv_term(t.body) - {t.var})
    if isinstance(t, Case):
        acc = fsv_term(t.scrutinee)
        for b in t.branches:
            acc |= fsv_term(b.body)
        return acc
    if isinstance(t, Fix):
        return fsv(t.ty) | fsv_term(t.body)
    if isinstance(t, Cofix):
        return frozenset((fsv(t.ty) | fsv_term(t.body)) - {t.size_var})
    raise TypeError(t)


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
    if isinstance(t, Var):
        return frozenset({t.name})
    if isinstance(t, Con):
        return frozenset()
    if isinstance(t, Lam):
        return frozenset(term_free_vars(t.body) - {t.var})
    if isinstance(t, App):
        return term_free_vars(t.fun) | term_free_vars(t.arg)
    if isinstance(t, SizeApp):
        return term_free_vars(t.fun)
    if isinstance(t, SizeLam):
        return term_free_vars(t.body)
    if isinstance(t, Case):
        acc = term_free_vars(t.scrutinee)
        for b in t.branches:
            acc |= term_free_vars(b.body) - set(b.binders)
        return acc
    if isinstance(t, (Fix, Cofix)):
        return frozenset(term_free_vars(t.body) - {t.var})
    raise TypeError(t)


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

    def go(t: Term, ren: dict[str, str]) -> Term:
        if isinstance(t, (Var, Con)):
            return t
        if isinstance(t, Lam):
            return Lam(t.var, _rename_type(t.ty, ren), go(t.body, ren))
        if isinstance(t, App):
            return App(go(t.fun, ren), go(t.arg, ren))
        if isinstance(t, SizeApp):
            return SizeApp(go(t.fun, ren), _rename_size(t.size, ren))
        if isinstance(t, SizeLam):
            nv = fresh_name(t.var, used)
            used.add(nv)
            return SizeLam(nv, go(t.body, {**ren, t.var: nv}))
        if isinstance(t, Case):
            return Case(go(t.scrutinee, ren),
                        tuple(Branch(b.con, b.binders, go(b.body, ren))
                              for b in t.branches))
        if isinstance(t, Fix):
            return Fix(t.var, _rename_type(t.ty, ren), go(t.body, ren))
        if isinstance(t, Cofix):
            nv = fresh_name(t.size_var, used)
            used.add(nv)
            return Cofix(nv, t.var, _rename_type(t.ty, {**ren, t.size_var: nv}),
                         go(t.body, {**ren, t.size_var: nv}))
        raise TypeError(t)

    def _rename_size(s: SizeExpr, ren: dict[str, str]) -> SizeExpr:
        for old, new in ren.items():
            s = subst_size(s, SVar(new), old)
        return s

    def _rename_type(ty: Type, ren: dict[str, str]) -> Type:
        for old, new in ren.items():
            ty = subst_type_size(ty, SVar(new), old)
        return ty

    return go(t, {})


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
    if isinstance(t, (Var, Con)):
        return frozenset()
    if isinstance(t, Lam):
        return forall_binders(t.ty) | _annotation_binders(t.body)
    if isinstance(t, App):
        return _annotation_binders(t.fun) | _annotation_binders(t.arg)
    if isinstance(t, SizeApp):
        return _annotation_binders(t.fun)
    if isinstance(t, SizeLam):
        return _annotation_binders(t.body)
    if isinstance(t, Case):
        acc = _annotation_binders(t.scrutinee)
        for b in t.branches:
            acc |= _annotation_binders(b.body)
        return acc
    if isinstance(t, (Fix, Cofix)):
        return forall_binders(t.ty) | _annotation_binders(t.body)
    raise TypeError(t)


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
        self._con_index: dict[str, str] = {}
        self.validated = False
        self.order: tuple[str, ...] = ()

    def add(self, d: Definition) -> None:
        if self.validated:
            raise RegistryError([Diagnostic("registry is frozen after validation")])
        if d.name in self.defs:
            raise RegistryError([Diagnostic(f"duplicate definition {d.name}", d.span)])
        for c in d.constructors:
            if c.name in self._con_index:
                raise RegistryError(
                    [Diagnostic(f"duplicate constructor {c.name}", c.span)])
        self.defs[d.name] = d
        for c in d.constructors:
            self._con_index[c.name] = d.name

    def __contains__(self, name: str) -> bool:
        return name in self.defs

    def definition(self, name: str) -> Definition:
        return self.defs[name]

    def def_of_constructor(self, con: str) -> Optional[Definition]:
        dn = self._con_index.get(con)
        return self.defs[dn] if dn is not None else None

    def constructor(self, con: str) -> Optional[ConstructorSig]:
        d = self.def_of_constructor(con)
        if d is None:
            return None
        for c in d.constructors:
            if c.name == con:
                return c
        return None

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

    def go(t: Term) -> None:
        if isinstance(t, (Var, Con)):
            if isinstance(t, Con) and reg.constructor(t.name) is None:
                out.append(Diagnostic(f"unknown constructor {t.name}"))
            return
        if isinstance(t, Lam):
            check_ann(t.ty)
            go(t.body)
        elif isinstance(t, App):
            go(t.fun)
            go(t.arg)
        elif isinstance(t, (SizeApp, SizeLam)):
            go(t.fun if isinstance(t, SizeApp) else t.body)
        elif isinstance(t, Case):
            go(t.scrutinee)
            seen: set[str] = set()
            for b in t.branches:
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
                go(b.body)
        elif isinstance(t, (Fix, Cofix)):
            check_ann(t.ty)
            go(t.body)
        else:
            raise TypeError(t)

    go(t)
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
