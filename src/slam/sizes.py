"""Size-expression algebra.

Evaluation under valuations (saturating at infinity), elimination of
infinity, pushing +1 below min/max, the canonical one-layer peeling
operators `overline` (s >= overline(s)+1 whenever s >= 1) and `underline`
(s <= underline(s)+1 always), the semantic order on size expressions, and
the cheap lower-bound test against a definition map.
"""

from __future__ import annotations

from typing import Mapping, Union

from .syntax import INFTY, ZERO, Infty, SizeExpr, SMax, SMin, Succ, SVar, Zero

__all__ = [
    "ExtNat", "SizeValuation", "eval_size", "simplify_infty",
    "normalize_succ", "overline", "underline", "size_leq", "size_ge_const",
    "SizeError",
]

ExtNat = Union[int, float]  # a natural number or float('inf')
INF: ExtNat = float("inf")


class SizeError(Exception):
    pass


class SizeValuation:
    """A total map from size variables to natural numbers or infinity."""

    def __init__(self, mapping: Mapping[str, ExtNat] | None = None,
                 default: ExtNat = 0):
        self.mapping = dict(mapping or {})
        self.default = default

    def __getitem__(self, name: str) -> ExtNat:
        return self.mapping.get(name, self.default)

    def updated(self, name: str, value: ExtNat) -> "SizeValuation":
        return SizeValuation({**self.mapping, name: value}, self.default)

    def __repr__(self) -> str:
        return f"SizeValuation({self.mapping!r}, default={self.default!r})"


def eval_size(v: SizeValuation | Mapping[str, ExtNat], s: SizeExpr) -> ExtNat:
    """Evaluate a size expression; arithmetic saturates at infinity."""
    get = v.__getitem__ if isinstance(v, SizeValuation) else \
        (lambda n: v.get(n, 0))
    return _eval(get, s)


def _eval(get, s: SizeExpr) -> ExtNat:
    if isinstance(s, Zero):
        return 0
    if isinstance(s, Infty):
        return INF
    if isinstance(s, SVar):
        return get(s.name)
    if isinstance(s, Succ):
        x = _eval(get, s.arg)
        return x + 1 if x != INF else INF
    if isinstance(s, SMin):
        return min(_eval(get, s.left), _eval(get, s.right))
    if isinstance(s, SMax):
        return max(_eval(get, s.left), _eval(get, s.right))
    raise TypeError(s)


def simplify_infty(s: SizeExpr) -> SizeExpr:
    """Rewrite with oo+1 = oo, max(oo,s) = oo, min(oo,s) = s.

    The result is either exactly oo or contains no oo, and evaluates the
    same as the input under every valuation.
    """
    if isinstance(s, Succ):
        a = simplify_infty(s.arg)
        return INFTY if a == INFTY else Succ(a)
    if isinstance(s, SMin):
        l, r = simplify_infty(s.left), simplify_infty(s.right)
        if l == INFTY:
            return r
        if r == INFTY:
            return l
        return SMin(l, r)
    if isinstance(s, SMax):
        l, r = simplify_infty(s.left), simplify_infty(s.right)
        if l == INFTY or r == INFTY:
            return INFTY
        return SMax(l, r)
    return s


def normalize_succ(s: SizeExpr) -> SizeExpr:
    """Push +1 below min/max so no min/max sits under a successor.

    Requires an oo-free input; uses max(a,b)+1 = max(a+1,b+1) and the
    min analogue.
    """
    if isinstance(s, Infty):
        raise SizeError("normalize_succ needs an oo-free expression")
    if isinstance(s, (Zero, SVar)):
        return s
    if isinstance(s, Succ):
        return _plus1(normalize_succ(s.arg))
    if isinstance(s, SMin):
        return SMin(normalize_succ(s.left), normalize_succ(s.right))
    if isinstance(s, SMax):
        return SMax(normalize_succ(s.left), normalize_succ(s.right))
    raise TypeError(s)


def _plus1(s: SizeExpr) -> SizeExpr:
    if isinstance(s, SMin):
        return SMin(_plus1(s.left), _plus1(s.right))
    if isinstance(s, SMax):
        return SMax(_plus1(s.left), _plus1(s.right))
    return Succ(s)


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


def _peel(s: SizeExpr, *, bump: bool) -> tuple[str, SizeExpr | None]:
    """Shape of the replaced expression: zero, inf, or (succ, w) with w+1."""
    if isinstance(s, Zero):
        return _SHAPE_ZERO, None
    if isinstance(s, Infty):
        return _SHAPE_INF, None
    if isinstance(s, SVar):
        # a superfluous variable occurrence
        if bump:
            return _SHAPE_SUCC, s  # i becomes i+1
        return _SHAPE_ZERO, None   # i becomes 0
    if isinstance(s, Succ):
        # everything below a +1 is kept verbatim
        return _SHAPE_SUCC, s.arg
    if isinstance(s, SMin):
        ls, lw = _peel(s.left, bump=bump)
        rs, rw = _peel(s.right, bump=bump)
        if ls == _SHAPE_ZERO or rs == _SHAPE_ZERO:
            return _SHAPE_ZERO, None
        if ls == _SHAPE_INF:
            return rs, rw
        if rs == _SHAPE_INF:
            return ls, lw
        return _SHAPE_SUCC, SMin(lw, rw)
    if isinstance(s, SMax):
        ls, lw = _peel(s.left, bump=bump)
        rs, rw = _peel(s.right, bump=bump)
        if ls == _SHAPE_INF or rs == _SHAPE_INF:
            return _SHAPE_INF, None
        if ls == _SHAPE_ZERO:
            return rs, rw
        if rs == _SHAPE_ZERO:
            return ls, lw
        return _SHAPE_SUCC, SMax(lw, rw)
    raise TypeError(s)


def overline(s: SizeExpr) -> SizeExpr:
    """The canonical expression with s >= overline(s)+1.

    Precondition: s >= 1 under every valuation.  Superfluous variable
    occurrences are replaced by 0; if the result does not take the shape
    w+1 (or oo) the precondition was violated and SizeError is raised.
    """
    shape, w = _peel(s, bump=False)
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
    variables at 0, so it is computed directly (memoised through u, no
    syntactic expansion).
    """
    memo: dict[str, ExtNat] = {}

    def val(name: str) -> ExtNat:
        if name in memo:
            return memo[name]
        if name in u:
            memo[name] = _eval(val, u[name])
        else:
            memo[name] = 0
        return memo[name]

    return _eval(val, s) >= k


def const_value(s: SizeExpr) -> ExtNat | None:
    """The constant value of a variable-free expression, else None."""
    n = 0
    while isinstance(s, Succ):
        n += 1
        s = s.arg
    if isinstance(s, Zero):
        v: ExtNat | None = 0
    elif isinstance(s, Infty):
        return INF
    elif isinstance(s, (SMin, SMax)):
        l, r = const_value(s.left), const_value(s.right)
        if l is None or r is None:
            return None
        v = min(l, r) if isinstance(s, SMin) else max(l, r)
    else:
        return None
    return v + n if v != INF else INF
