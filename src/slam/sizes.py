"""Size-expression algebra.

Evaluation under valuations (saturating at infinity), elimination of
infinity, pushing +1 below min/max, the canonical one-layer peeling
operators `overline` (s >= overline(s)+1 whenever s >= 1) and `underline`
(s <= underline(s)+1 always), the semantic order on size expressions, and
the cheap lower-bound test against a definition map.
"""

from __future__ import annotations

from typing import Mapping, Union

from .syntax import (
    INFTY, ZERO, Infty, SizeExpr, SMax, SMin, Succ, SVar, Zero, fold, nodes,
    rebuilt, size_plus,
)

__all__ = [
    "ExtNat", "eval_size", "simplify_infty",
    "normalize_succ", "overline", "underline", "size_leq", "size_ge_const",
    "SizeError",
]

ExtNat = Union[int, float]  # a natural number or float('inf')
INF: ExtNat = float("inf")


class SizeError(Exception):
    pass


def eval_size(v: Mapping[str, ExtNat], s: SizeExpr) -> ExtNat:
    """Evaluate a size expression under a valuation, a mapping in which
    a variable it leaves out is 0; arithmetic saturates at infinity."""
    return _evaluate(s, lambda n: v.get(n, 0))


def _evaluate(s: SizeExpr, get, defs: Mapping[str, SizeExpr] | None = None
              ) -> ExtNat | None:
    """The value of s with each variable's value read from `get`, or
    from its definition in `defs` (each evaluated once).  A variable
    whose value is None makes the whole value None."""
    return fold(s, size_value, defs=defs, ctx=get)


def size_value(x: SizeExpr, kids, get) -> ExtNat | None:
    """The value of node x from its children's values, as `_evaluate`
    computes it."""
    cls = type(x)
    if cls is Succ:
        v = kids[0]
        return v if v is None or v == INF else v + x.n
    if cls is SMin or cls is SMax:
        left, right = kids
        if left is None or right is None:
            return None
        return min(left, right) if cls is SMin else max(left, right)
    if cls is SVar:
        return get(x.name)
    return 0 if cls is Zero else INF


def simplify_infty(s: SizeExpr) -> SizeExpr:
    """Rewrite with oo+1 = oo, max(oo,s) = oo, min(oo,s) = s.

    The result is either exactly oo or contains no oo, and evaluates the
    same as the input under every valuation; an oo-free input is
    returned as it is.
    """
    if any(type(x) is Infty for x in nodes(s)):
        return fold(s, _simplify_infty)
    return s


def _simplify_infty(x: SizeExpr, kids, _c) -> SizeExpr:
    cls = type(x)
    if cls is Succ:
        if type(kids[0]) is Infty:
            return INFTY
    elif cls is SMin:
        if type(kids[0]) is Infty:
            return kids[1]
        if type(kids[1]) is Infty:
            return kids[0]
    elif cls is SMax:
        if type(kids[0]) is Infty or type(kids[1]) is Infty:
            return INFTY
    return rebuilt(x, kids)


def normalize_succ(s: SizeExpr) -> SizeExpr:
    """Push +1 below min/max so no min/max sits under a successor.

    Requires an oo-free input; uses max(a,b)+1 = max(a+1,b+1) and the
    min analogue.
    """
    return fold(s, _normalize_succ)


def _normalize_succ(x: SizeExpr, kids, _c) -> SizeExpr:
    cls = type(x)
    if cls is Infty:
        raise SizeError("normalize_succ needs an oo-free expression")
    if cls is Succ and type(kids[0]) in (SMin, SMax):
        n = x.n
        return fold(kids[0], lambda y, ks, _c: rebuilt(y, ks) if ks
                    else size_plus(y, n), into=(SMin, SMax))
    return rebuilt(x, kids)


# ---------------------------------------------------------------------------
# overline / underline
#
# An occurrence is superfluous when it is not under any +1.  overline
# replaces superfluous variable occurrences by 0, underline by their own
# successor; afterwards every node simplifies bottom-up to one of the
# shapes 0, oo, or w+1 using min/max absorption of 0 and oo and the +1
# distribution laws.  The shape invariant is checked, not assumed.

_SHAPE_ZERO = "zero"
_SHAPE_INF = "inf"
_SHAPE_SUCC = "succ"


def _peel(s: SizeExpr, *, bump: bool,
          defs: Mapping[str, SizeExpr] | None = None
          ) -> tuple[str, SizeExpr | None]:
    """Shape of the replaced expression: zero, inf, or (succ, w) with w+1.
    With `defs`, a superfluous variable it defines stands for its
    definition, peeled once however often it occurs."""
    def node(x: SizeExpr, kids, _c) -> tuple[str, SizeExpr | None]:
        cls = type(x)
        if cls is Zero:
            return _SHAPE_ZERO, None
        if cls is Infty:
            return _SHAPE_INF, None
        if cls is SVar:
            # a superfluous variable occurrence: i becomes i+1 or 0
            return (_SHAPE_SUCC, x) if bump else (_SHAPE_ZERO, None)
        if cls is Succ:
            # everything below a +1 is kept verbatim
            return _SHAPE_SUCC, x.arg
        (ls, lw), (rs, rw) = kids
        if cls is SMin:
            if ls == _SHAPE_ZERO or rs == _SHAPE_ZERO:
                return _SHAPE_ZERO, None
            if ls == _SHAPE_INF:
                return rs, rw
            if rs == _SHAPE_INF:
                return ls, lw
            return _SHAPE_SUCC, SMin(lw, rw)
        if ls == _SHAPE_INF or rs == _SHAPE_INF:
            return _SHAPE_INF, None
        if ls == _SHAPE_ZERO:
            return rs, rw
        if rs == _SHAPE_ZERO:
            return ls, lw
        return _SHAPE_SUCC, SMax(lw, rw)

    return fold(s, node, into=(SMin, SMax), defs=defs)


def overline(s: SizeExpr,
             defs: Mapping[str, SizeExpr] | None = None) -> SizeExpr:
    """The canonical expression with s >= overline(s)+1.

    Precondition: s >= 1 under every valuation.  Superfluous variable
    occurrences are replaced by 0, except that with `defs` one of a
    variable it defines stands for its definition; if the result does
    not take the shape w+1 (or oo) the precondition was violated and
    SizeError is raised.
    """
    shape, w = _peel(s, bump=False, defs=defs)
    if shape == _SHAPE_INF:
        return INFTY
    if shape == _SHAPE_SUCC:
        assert w is not None
        return w
    raise SizeError(f"overline precondition violated: {s!r} is not >= 1")


def underline(s: SizeExpr) -> SizeExpr:
    """The canonical expression with s <= underline(s)+1; underline(0) = 0."""
    shape, w = _peel(s, bump=True)
    if shape == _SHAPE_INF:
        return INFTY
    if shape == _SHAPE_SUCC:
        assert w is not None
        return w
    return ZERO


def size_leq(s1: SizeExpr, s2: SizeExpr) -> bool:
    """Whether v(s1) <= v(s2) for every valuation."""
    from .constraints import SizeConstraint, is_valid
    return is_valid(SizeConstraint({}, [(s1, s2)])).valid


def size_ge_const(u: Mapping[str, SizeExpr], s: SizeExpr, k: int) -> bool:
    """Whether the expansion of s through u is at least k at every valuation.

    The minimum over valuations respecting u is attained with all free
    variables at 0, so it is computed directly (each definition of u
    evaluated once, no syntactic expansion).
    """
    return _evaluate(s, lambda name: 0, u) >= k
