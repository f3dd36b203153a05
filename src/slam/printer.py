"""Pretty-printers for sizes, types, and terms.

Printing round-trips: `parse(print(x))` returns a tree equal to `x` (up to
the `^oo` sugar, which both sides treat as absent), except for the least
type `Bot`, which prints as `_|_` and does not parse.  Successor chains
over 0 print as plain numerals.

Each printer is one node function over the one fold of `syntax.py`
(`fold`), so nesting depth costs heap, not Python stack.  A term's text carries its precedence,
which decides where its parent puts parentheses; decorated and plain
terms share the one term printer.
"""

from __future__ import annotations

from typing import Union

from .syntax import (
    INFTY, App, Arrow, Bot, Case, Coind, Fix, Forall, Lam, PApp, PCase,
    PCon, PLam, PVar, PlainTerm, SizeApp, SizeExpr, SizeLam, SMax, SMin, Succ,
    SVar, Term, TyVar, Type, Var, Con, Zero, fold,
)

__all__ = ["print_size", "print_type", "print_term"]


def print_size(s: SizeExpr) -> str:
    return fold(s, _print_size)


def _print_size(s: SizeExpr, kids: list[str], _c) -> str:
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
    return fold(t, _print_type)


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
    if cls is Bot:
        return "_|_"
    raise TypeError(f"not a printable type: {t!r}")


def print_term(t: Union[Term, PlainTerm]) -> str:
    """A decorated or plain term as source text."""
    return fold(t, _print_term)[0]


# A term prints as (text, precedence): an atom (a variable or constructor)
# goes anywhere, an application heads an application, and a binder or a
# case goes in parentheses wherever less than a whole term is expected.
_ATOM, _APP, _TOP = 0, 1, 2


def _at(kid: tuple[str, int], prec: int) -> str:
    """A child's text where terms up to precedence `prec` go bare."""
    text, p = kid
    return text if p <= prec else f"({text})"


def _print_term(t, kids: list, _ctx) -> tuple[str, int]:
    cls = type(t)
    if cls is App or cls is PApp:
        return f"{_at(kids[0], _APP)} {_at(kids[1], _ATOM)}", _APP
    if cls is Var or cls is Con or cls is PVar or cls is PCon:
        return t.name, _ATOM
    if cls is SizeApp:
        return f"{_at(kids[0], _APP)} [{print_size(t.size)}]", _APP
    if cls is Case or cls is PCase:
        # a decorated scrutinee may be an application, a plain one not
        scrut = _at(kids[0], _APP if cls is Case else _ATOM)
        brs = "; ".join(" ".join((b.con,) + b.binders) + " => " + body[0]
                        for b, body in zip(t.branches, kids[1:]))
        return f"case {scrut} of {{ {brs} }}", _TOP
    body = kids[0][0]
    if cls is Lam:
        return f"\\{t.var} : {print_type(t.ty)}. {body}", _TOP
    if cls is PLam:
        return f"\\{t.var}. {body}", _TOP
    if cls is SizeLam:
        return f"/\\{t.var}. {body}", _TOP
    if cls is Fix:
        return f"fix {t.var} : {print_type(t.ty)} . {body}", _TOP
    return (f"cofix[{t.size_var}] {t.var} : {print_type(t.ty)} . {body}",
            _TOP)
