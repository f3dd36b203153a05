"""Subtyping: constraint generation, the decided order, join/meet, targets.

Inductive types are covariant in their size, coinductive ones
contravariant; parameters are always covariant, arrows contravariant in
the domain, and foralls relate bodies under a common binder.  Instead of
deciding sizes inline, `gen_sub_constraints` collects the size
inequalities a subtyping requires; `subtype` hands them to the validity
solver.

Binder alignment: two foralls with different binders are related under
a fresh common binder that each side is renamed to.  Types produced by
inference may reference shared size definitions, so renaming their
binder syntactically would be wrong: callers that own a definition map
pass a `BinderEnv`, which opens each side through that map.  Without an
environment both binders are renamed by substitution, which is correct
for self-contained types; the names are counted from `$a1` anew per
call, apart from every size variable and forall binder of the two types,
so none is captured where it is put and equal calls give equal results.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional, Protocol

from .syntax import (
    BOT, Arrow, Bot, Coind, DefRegistry, Forall, SMax, SMin, SVar, SizeExpr,
    TyVar, Type, forall_binders, subst_type_sizes, sv,
)

__all__ = [
    "Bot", "BOT", "BinderEnv", "gen_sub_constraints",
    "gen_shape_constraints", "subtype",
    "join", "meet", "tgt", "chgtgt",
]

Pair = tuple[SizeExpr, SizeExpr]
Hole = Callable[[Type, TyVar, tuple[str, ...]], bool]


class BinderEnv(Protocol):
    def fresh_binder(self) -> str: ...

    def rename(self, binder: str, body: Type, to: str) -> Type: ...


class _Fresh:
    """The binder environment of a call made without one: binder names
    `$a1`, `$a2`, ... apart from the size names of the types the call
    relates, and renaming by substitution."""

    def __init__(self, *types: Type):
        self._taken = frozenset().union(
            *(sv(t) | forall_binders(t) for t in types))
        self._counter = itertools.count(1)

    def fresh_binder(self) -> str:
        f = f"$a{next(self._counter)}"
        while f in self._taken:
            f = f"$a{next(self._counter)}"
        return f

    def rename(self, binder: str, body: Type, to: str) -> Type:
        return subst_type_sizes(body, {binder: SVar(to)})


def _align(b1: str, body1: Type, b2: str, body2: Type,
           env: BinderEnv) -> tuple[str, Type, Type]:
    """A common binder for two forall bodies: their binder, when they
    share it, or else a fresh one that `env` renames each side to."""
    if b1 == b2:
        return b1, body1, body2
    f = env.fresh_binder()
    return f, env.rename(b1, body1, f), env.rename(b2, body2, f)


def gen_sub_constraints(t1, t2, reg: DefRegistry,
                        env: Optional[BinderEnv] = None
                        ) -> Optional[list[Pair]]:
    """Size inequalities equivalent to t1 <= t2, or None when the shapes
    are incompatible (no forall instantiation, no structural mismatch)."""
    return _relate(t1, t2, reg, _Fresh(t1, t2) if env is None else env)


def gen_shape_constraints(theta: Type, sigma: Type, reg: DefRegistry,
                          env: BinderEnv, hole: Hole) -> Optional[list[Pair]]:
    """The size inequalities of theta <= sigma with the type variables of
    sigma, a declared constructor-argument shape, as holes, or None when
    a hole refuses or the shapes are incompatible.

    At each hole x, `hole(th, x, bound)` gets the part th of theta met
    there and the common names of the binders aligned above it, and
    returns whether th fits; nothing else is related there."""
    return _relate(theta, sigma, reg, env, hole)


def _relate(t1, t2, reg: DefRegistry, env: BinderEnv,
            hole: Optional[Hole] = None) -> Optional[list[Pair]]:
    out: dict[Pair, None] = {}
    # the pairs still to relate, with the binders aligned above them,
    # popped in the order a recursive walk would meet them, since
    # aligning binders updates `env`
    todo = [(t1, t2, ())]
    while todo:
        a, b, bound = todo.pop()
        if hole is not None and isinstance(b, TyVar):
            if not hole(a, b, bound):
                return None
        elif isinstance(a, Bot):
            continue
        elif isinstance(a, TyVar) and isinstance(b, TyVar):
            if a.name != b.name:
                return None
        elif isinstance(a, Coind) and isinstance(b, Coind):
            if a.defname != b.defname or len(a.params) != len(b.params):
                return None
            if reg.definition(a.defname).coinductive:
                out[(b.size, a.size)] = None
            else:
                out[(a.size, b.size)] = None
            todo.extend(reversed([(p, q, bound)
                                  for p, q in zip(a.params, b.params)]))
        elif isinstance(a, Arrow) and isinstance(b, Arrow):
            todo.append((a.cod, b.cod, bound))
            todo.append((b.dom, a.dom, bound))
        elif isinstance(a, Forall) and isinstance(b, Forall):
            v, abody, bbody = _align(a.var, a.body, b.var, b.body, env)
            todo.append((abody, bbody, bound + (v,)))
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
            v, abody, bbody = _align(a.var, a.body, b.var, b.body, env)
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
