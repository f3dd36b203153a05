"""Subtyping: constraint generation, the decided order, join/meet, targets.

Inductive types are covariant in their size, coinductive ones
contravariant; parameters are always covariant, arrows contravariant in
the domain, and foralls relate bodies under a common binder.  Instead of
deciding sizes inline, `gen_sub_constraints` collects the size
inequalities a subtyping requires; `subtype` hands them to the validity
solver.

Binder alignment: types produced by inference may reference shared size
definitions, so renaming their forall binder syntactically would be
wrong.  Callers that own a definition map pass a `BinderEnv`; binders
registered as linear (single-consumer) are then aliased through the map
rather than renamed.  Without an environment both binders are renamed to
a fresh common name, which is correct for self-contained types; the
names are counted from `$a1` anew per call, apart from every size
variable and forall binder of the two types, so equal calls give equal
results.
"""

from __future__ import annotations

import itertools
from typing import Optional, Protocol

from .syntax import (
    BOT, Arrow, Bot, Coind, DefRegistry, Forall, SMax, SMin, SVar, SizeExpr,
    TyVar, Type, forall_binders, subst_type_sizes, sv,
)

__all__ = [
    "Bot", "BOT", "BinderEnv", "gen_sub_constraints", "subtype",
    "join", "meet", "tgt", "chgtgt",
]

Pair = tuple[SizeExpr, SizeExpr]


class BinderEnv(Protocol):
    u: dict[str, SizeExpr]
    linear: set[str]

    def fresh_binder(self) -> str: ...


class _Fresh:
    """The binder environment of a call made without one: no definition
    map, no linear binders, and binder names `$a1`, `$a2`, ... apart
    from the size names of the types the call relates."""

    def __init__(self, *types: Type):
        self.u: dict[str, SizeExpr] = {}
        self.linear: set[str] = set()
        self._taken = frozenset().union(
            *(sv(t) | forall_binders(t) for t in types))
        self._counter = itertools.count(1)

    def fresh_binder(self) -> str:
        f = f"$a{next(self._counter)}"
        while f in self._taken:
            f = f"$a{next(self._counter)}"
        return f


def _align(b1: str, body1: Type, b2: str, body2: Type,
           env: BinderEnv) -> Optional[tuple[str, Type, Type]]:
    """A common binder for two forall bodies, or None when impossible.

    Linear binders are aliased through the definition map so occurrences
    hidden inside shared definitions stay correct; a pair of plain
    binders is renamed to a fresh common name.  A linear binder that was
    already consumed cannot be aligned again.
    """
    if b1 == b2:
        return b1, body1, body2
    if b2 in env.linear:
        if b2 in env.u:
            return None
        env.linear.discard(b2)
        env.u[b2] = SVar(b1)
        return b1, body1, body2
    if b1 in env.linear:
        if b1 in env.u:
            return None
        env.linear.discard(b1)
        env.u[b1] = SVar(b2)
        return b2, body1, body2
    f = env.fresh_binder()
    return (f, subst_type_sizes(body1, {b1: SVar(f)}),
            subst_type_sizes(body2, {b2: SVar(f)}))


def gen_sub_constraints(t1, t2, reg: DefRegistry,
                        env: Optional[BinderEnv] = None
                        ) -> Optional[list[Pair]]:
    """Size inequalities equivalent to t1 <= t2, or None when the shapes
    are incompatible (no forall instantiation, no structural mismatch)."""
    if env is None:
        env = _Fresh(t1, t2)
    out: dict[Pair, None] = {}
    # the pairs still to relate, popped in the order a recursive walk
    # would meet them, since aligning binders updates `env`
    todo = [(t1, t2)]
    while todo:
        a, b = todo.pop()
        if isinstance(a, Bot):
            continue
        if isinstance(a, TyVar) and isinstance(b, TyVar):
            if a.name != b.name:
                return None
        elif isinstance(a, Coind) and isinstance(b, Coind):
            if a.defname != b.defname or len(a.params) != len(b.params):
                return None
            if reg.definition(a.defname).coinductive:
                out[(b.size, a.size)] = None
            else:
                out[(a.size, b.size)] = None
            todo.extend(reversed(list(zip(a.params, b.params))))
        elif isinstance(a, Arrow) and isinstance(b, Arrow):
            todo.append((a.cod, b.cod))
            todo.append((b.dom, a.dom))
        elif isinstance(a, Forall) and isinstance(b, Forall):
            aligned = _align(a.var, a.body, b.var, b.body, env)
            if aligned is None:
                return None
            todo.append(aligned[1:])
        else:
            return None
    return list(out)


def subtype(t1, t2, reg: DefRegistry,
            u: Optional[dict[str, SizeExpr]] = None) -> bool:
    """Decide t1 <= t2 under a definition map (empty by default)."""
    from .constraints import SizeConstraint, is_valid

    pairs = gen_sub_constraints(t1, t2, reg)
    if pairs is None:
        return False
    return is_valid(SizeConstraint(dict(u or {}), pairs)).valid


def join(t1, t2, reg: DefRegistry, env: Optional[BinderEnv] = None):
    """Least upper bound, or None when undefined."""
    return _lattice(t1, t2, reg, _Fresh(t1, t2) if env is None else env,
                    up=True)


def meet(t1, t2, reg: DefRegistry, env: Optional[BinderEnv] = None):
    """Greatest lower bound, or None when undefined."""
    return _lattice(t1, t2, reg, _Fresh(t1, t2) if env is None else env,
                    up=False)


def _lattice(a, b, reg, env, up: bool):
    """The join (up) or the meet of a and b, or None when it is undefined.

    Pairs are related depth-first in the order a recursive walk would
    meet them, since aligning binders updates `env`: parameters left to
    right, an arrow's domain (flipped) before its codomain, and a forall's
    binders before its body.  The result of each pair goes to `out`; a
    marker (node, k, up) rebuilds node over the last k of them."""
    out: list[Type] = []
    work: list = [(a, b, up)]
    while work:
        a, b, up = work.pop()
        if type(b) is int:
            kids = out[len(out) - b:]
            del out[len(out) - b:]
            out.append(a._with(kids))
        elif isinstance(a, Bot):
            out.append(b if up else BOT)
        elif isinstance(b, Bot):
            out.append(a if up else BOT)
        elif isinstance(a, TyVar) and isinstance(b, TyVar):
            if a.name != b.name:
                return None
            out.append(a)
        elif isinstance(a, Coind) and isinstance(b, Coind):
            if a.defname != b.defname or len(a.params) != len(b.params):
                return None
            minmax = SMin if up == reg.definition(a.defname).coinductive \
                else SMax
            work.append((Coind(a.defname, minmax(a.size, b.size)),
                         len(a.params), up))
            work.extend(reversed([(p, q, up)
                                  for p, q in zip(a.params, b.params)]))
        elif isinstance(a, Arrow) and isinstance(b, Arrow):
            work += [(a, 2, up), (a.cod, b.cod, up), (a.dom, b.dom, not up)]
        elif isinstance(a, Forall) and isinstance(b, Forall):
            aligned = _align(a.var, a.body, b.var, b.body, env)
            if aligned is None:
                return None
            v, abody, bbody = aligned
            work += [(Forall(v, abody), 1, up), (abody, bbody, up)]
        else:
            return None
    return out[0]


def tgt(t: Type) -> Type:
    """The target of a type: what remains after all arrows and foralls."""
    while isinstance(t, (Arrow, Forall)):
        t = t._kids()[-1]
    return t


def chgtgt(t: Type, alpha: Type) -> Type:
    """The type with its target exchanged for alpha.

    Free size variables of alpha may intentionally be captured by foralls
    of t; that is the point of the operation.
    """
    spine = []
    while isinstance(t, (Arrow, Forall)):
        spine.append(t)
        t = t._kids()[-1]
    for t in reversed(spine):
        alpha = t._with(t._kids()[:-1] + (alpha,))
    return alpha
