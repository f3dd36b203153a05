"""Pretty-printers for sizes, types, and terms.

Printing round-trips: `parse(print(x))` returns a tree equal to `x` (up to
the `^oo` sugar, which both sides treat as absent).  Successor chains over
0 print as plain numerals.
"""

from __future__ import annotations

from .syntax import (
    INFTY, App, Arrow, Branch, Case, Coind, Cofix, Fix, Forall, Lam, PApp,
    PCase, PCon, PLam, PVar, PlainTerm, SizeApp, SizeExpr, SizeLam, SMax,
    SMin, Succ, SVar, Term, TyVar, Type, Var, Con, Zero, fold_size, fold_type,
)

__all__ = ["print_size", "print_type", "print_term", "print_plain"]


def print_size(s: SizeExpr) -> str:
    return fold_size(s, _print_size)


def _print_size(s: SizeExpr, kids: list[str]) -> str:
    cls = type(s)
    if cls is Succ:
        # a run of n successors prints as n over 0, else as base+n
        return str(s.n) if type(s.base) is Zero else f"{kids[0]}+{s.n}"
    if cls is SMin or cls is SMax:
        return f"{'min' if cls is SMin else 'max'}({kids[0]}, {kids[1]})"
    if cls is SVar:
        return s.name
    return "0" if cls is Zero else "oo"


def _caret(s: SizeExpr) -> str:
    if s == INFTY:
        return ""
    if isinstance(s, (Zero, SVar)):
        return f"^{print_size(s)}"
    p = print_size(s)
    if p.isdigit():
        return f"^{p}"
    return f"^({p})"


def print_type(t: Type) -> str:
    return fold_type(t, _print_type)


def _print_type(t: Type, kids: list[str], _ctx) -> str:
    cls = type(t)
    if cls is Forall:
        return f"forall {t.var}. {kids[0]}"
    if cls is Arrow:  # an arrow or forall domain is parenthesised
        dom = f"({kids[0]})" if type(t.dom) in (Arrow, Forall) else kids[0]
        return f"{dom} -> {kids[1]}"
    if cls is TyVar:
        return t.name
    if cls is Coind:
        head = t.defname + _caret(t.size)
        return head + "(" + ", ".join(kids) + ")" if kids else head
    raise TypeError(f"not a printable type: {t!r}")


def print_term(t: Term) -> str:
    if isinstance(t, Lam):
        return f"\\{t.var} : {print_type(t.ty)}. {print_term(t.body)}"
    if isinstance(t, SizeLam):
        return f"/\\{t.var}. {print_term(t.body)}"
    if isinstance(t, Fix):
        return f"fix {t.var} : {print_type(t.ty)} . {print_term(t.body)}"
    if isinstance(t, Cofix):
        return (f"cofix[{t.size_var}] {t.var} : {print_type(t.ty)} . "
                f"{print_term(t.body)}")
    if isinstance(t, Case):
        brs = "; ".join(_print_branch(b) for b in t.branches)
        return f"case {_term_app(t.scrutinee)} of {{ {brs} }}"
    return _term_app(t)


def _print_branch(b: Branch) -> str:
    head = " ".join((b.con,) + b.binders)
    return f"{head} => {print_term(b.body)}"


def _term_app(t: Term) -> str:
    if isinstance(t, App):
        return f"{_term_app(t.fun)} {_term_atom(t.arg)}"
    if isinstance(t, SizeApp):
        return f"{_term_app(t.fun)} [{print_size(t.size)}]"
    return _term_atom(t)


def _term_atom(t: Term) -> str:
    if isinstance(t, (Var, Con)):
        return t.name
    return f"({print_term(t)})"


def print_plain(t: PlainTerm) -> str:
    if isinstance(t, PLam):
        return f"\\{t.var}. {_plain_app(t.body)}" \
            if isinstance(t.body, (PVar, PCon, PApp)) \
            else f"\\{t.var}. {print_plain(t.body)}"
    if isinstance(t, PCase):
        brs = "; ".join(
            " ".join((b.con,) + b.binders) + " => " + print_plain(b.body)
            for b in t.branches)
        return f"case {_plain_atom(t.scrutinee)} of {{ {brs} }}"
    return _plain_app(t)


def _plain_app(t: PlainTerm) -> str:
    if isinstance(t, PApp):
        return f"{_plain_app(t.fun)} {_plain_atom(t.arg)}"
    return _plain_atom(t)


def _plain_atom(t: PlainTerm) -> str:
    if isinstance(t, (PVar, PCon)):
        return t.name
    return f"({print_plain(t)})"
