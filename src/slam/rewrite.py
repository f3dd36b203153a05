"""Erasure and the untyped rewrite system.

Decorated terms erase to plain lambda terms with case; fix and cofix
become applications of the Turing fixpoint combinator.  Reduction is
normal order (leftmost-outermost beta and iota).  Possibly infinite
results are observed through finite approximants: constructor trees cut
off with bottom leaves, where bottom stands for divergence and fuel
exhaustion is its computable surrogate.  Membership of approximants in
the finite approximations of observable (co)inductive types gives the
empirical productivity harness.

Reduction shares work instead of redoing it.  Plain terms cache their
free variables (`fv`), so `psubst` returns every subterm the variable is
not free in as the same object and rebuilds only the path to its
occurrences.  An observation keeps a memo of weak head normal forms
keyed by subterm identity and fuel limit: `approximant` one per call,
`productivity_check` one for all depths, since the approximant at depth
n+1 revisits the subterms of the one at depth n.  The memo saves time
only; the reduction steps a memo hit stands for are still charged, so
fuel use and fuel-limited results are those of reducing afresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

from .sizes import INF, ExtNat, SizeValuation, eval_size
from .syntax import (
    App, Case, Coind, Cofix, DefRegistry, Fix, Lam, PApp, PBranch, PCase,
    PCon, PLam, PVar, PlainTerm, SizeApp, SizeLam, SVar, Term, TyVar, Type,
    Var, Con, alpha_eq_plain, fresh_name, type_nodes,
)

__all__ = [
    "Y_COMBINATOR", "OMEGA", "erase", "psubst",
    "step", "StepResult", "whnf", "WhnfResult",
    "Approximant", "Constr", "Bottom", "Opaque", "EvalBudget",
    "approximant", "refines", "member", "NonObservableType", "observable",
    "productivity_check", "ProductivityReport", "DepthVerdict",
]


def _turing() -> PlainTerm:
    # (\x. \f. f (x x f)) applied to itself
    half = PLam("x", PLam("f", PApp(
        PVar("f"), PApp(PApp(PVar("x"), PVar("x")), PVar("f")))))
    return PApp(half, half)


Y_COMBINATOR: PlainTerm = _turing()
OMEGA: PlainTerm = PApp(PLam("x", PApp(PVar("x"), PVar("x"))),
                        PLam("x", PApp(PVar("x"), PVar("x"))))


# ---------------------------------------------------------------------------
# Erasure

def erase(t: Term) -> PlainTerm:
    """Drop types and size operations; fix/cofix become Y applications.

    The walk keeps its own stack: a node is met once on the way down,
    and a 1-tuple holding it rebuilds its erasure from its children's
    erasures on `out` on the way up."""
    out: list[PlainTerm] = []
    work: list = [t]
    while work:
        t = work.pop()
        cls = type(t)
        if cls is tuple:
            t = t[0]
            cls = type(t)
            if cls is App:
                arg = out.pop()
                out.append(PApp(out.pop(), arg))
            elif cls is Case:
                n = len(t.branches)
                bodies = out[len(out) - n:]
                del out[len(out) - n:]
                out.append(PCase(out.pop(), tuple(
                    PBranch(b.con, b.binders, body)
                    for b, body in zip(t.branches, bodies))))
            elif cls is Lam:
                out.append(PLam(t.var, out.pop()))
            else:  # Fix, Cofix
                out.append(PApp(Y_COMBINATOR, PLam(t.var, out.pop())))
        elif cls is Var:
            out.append(PVar(t.name))
        elif cls is Con:
            out.append(PCon(t.name))
        elif cls is App:
            work += [(t,), t.arg, t.fun]
        elif cls is SizeApp:
            work.append(t.fun)
        elif cls is SizeLam:
            work.append(t.body)
        elif cls is Case:
            work.append((t,))
            work.extend(b.body for b in reversed(t.branches))
            work.append(t.scrutinee)
        elif cls is Lam or cls is Fix or cls is Cofix:
            work += [(t,), t.body]
        else:
            raise TypeError(t)
    return out[0]


# ---------------------------------------------------------------------------
# Substitution on plain terms

def psubst(t: PlainTerm, var: str, value: PlainTerm) -> PlainTerm:
    """Capture-avoiding substitution of `value` for `var` in `t`.

    A subterm in which `var` is not free is returned as it is, the same
    object, so the result shares every untouched part of `t`."""
    free = value.fv

    def go(t: PlainTerm) -> PlainTerm:
        if var not in t.fv:
            return t
        if isinstance(t, PVar):
            return value
        if isinstance(t, PLam):
            if t.var in free:
                nv = fresh_name(t.var, free | t.body.fv | {var})
                return PLam(nv, go(_prename(t.body, t.var, nv)))
            return PLam(t.var, go(t.body))
        if isinstance(t, PApp):
            return PApp(go(t.fun), go(t.arg))
        if isinstance(t, PCase):
            brs = []
            for b in t.branches:
                if var in b.binders or var not in b.body.fv:
                    brs.append(b)
                    continue
                binders = list(b.binders)
                body = b.body
                for i, x in enumerate(binders):
                    if x in free:
                        nv = fresh_name(x, free | body.fv | set(binders) | {var})
                        body = _prename(body, x, nv)
                        binders[i] = nv
                brs.append(PBranch(b.con, tuple(binders), go(body)))
            return PCase(go(t.scrutinee), tuple(brs))
        raise TypeError(t)

    return go(t)


def _prename(t: PlainTerm, old: str, new: str) -> PlainTerm:
    return psubst(t, old, PVar(new))


# ---------------------------------------------------------------------------
# Reduction

def _spine(t: PlainTerm) -> tuple[PlainTerm, list[PlainTerm]]:
    args: list[PlainTerm] = []
    while isinstance(t, PApp):
        args.append(t.arg)
        t = t.fun
    args.reverse()
    return t, args


def _apply(t: PlainTerm, args: list[PlainTerm]) -> PlainTerm:
    for a in args:
        t = PApp(t, a)
    return t


def _iota_branch(t: PCase) -> Optional[tuple[PBranch, list[PlainTerm]]]:
    """The branch an iota step would take, if any.

    Requires a constructor-headed scrutinee, pairwise distinct branch
    constructors, a branch for the head constructor, and matching arity.
    """
    names = [b.con for b in t.branches]
    if len(set(names)) != len(names):
        return None
    head, args = _spine(t.scrutinee)
    if not isinstance(head, PCon):
        return None
    for b in t.branches:
        if b.con == head.name:
            if len(b.binders) == len(args):
                return b, args
            return None
    return None


@dataclass
class StepResult:
    term: Optional[PlainTerm]  # None when in normal form
    stuck: bool = False        # some case subterm can never fire


def step(t: PlainTerm) -> StepResult:
    """Contract the leftmost-outermost beta or iota redex."""
    reduced = _step1(t)
    if reduced is not None:
        return StepResult(reduced, False)
    return StepResult(None, _has_stuck_case(t))


def _step1(t: PlainTerm) -> Optional[PlainTerm]:
    if isinstance(t, PApp):
        if isinstance(t.fun, PLam):
            return psubst(t.fun.body, t.fun.var, t.arg)
        r = _step1(t.fun)
        if r is not None:
            return PApp(r, t.arg)
        r = _step1(t.arg)
        return None if r is None else PApp(t.fun, r)
    if isinstance(t, PCase):
        hit = _iota_branch(t)
        if hit is not None:
            b, args = hit
            body = b.body
            for x, a in zip(b.binders, args):
                body = psubst(body, x, a)
            return body
        r = _step1(t.scrutinee)
        if r is not None:
            return PCase(r, t.branches)
        for i, b in enumerate(t.branches):
            r = _step1(b.body)
            if r is not None:
                brs = list(t.branches)
                brs[i] = PBranch(b.con, b.binders, r)
                return PCase(t.scrutinee, tuple(brs))
        return None
    if isinstance(t, PLam):
        r = _step1(t.body)
        return None if r is None else PLam(t.var, r)
    return None


def _has_stuck_case(t: PlainTerm) -> bool:
    if isinstance(t, PCase):
        head, _args = _spine(t.scrutinee)
        if isinstance(head, (PCon, PLam)) and _iota_branch(t) is None:
            return True
        return _has_stuck_case(t.scrutinee) or \
            any(_has_stuck_case(b.body) for b in t.branches)
    if isinstance(t, PApp):
        return _has_stuck_case(t.fun) or _has_stuck_case(t.arg)
    if isinstance(t, PLam):
        return _has_stuck_case(t.body)
    return False


@dataclass
class WhnfResult:
    kind: str                  # "head" | "value" | "fuel"
    term: PlainTerm            # the reduced term
    head: Optional[str] = None
    args: tuple[PlainTerm, ...] = ()
    stuck: bool = False
    steps: int = 0


def whnf(t: PlainTerm, fuel: int) -> WhnfResult:
    """Head-reduce until a constructor application, a value, or fuel runs
    out.  Values are abstractions, variable-headed spines, and stuck
    cases."""
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    steps = 0
    while True:
        head, args = _spine(t)
        if isinstance(head, PCon):
            return WhnfResult("head", t, head.name, tuple(args), False, steps)
        if isinstance(head, PLam):
            if not args:
                return WhnfResult("value", t, steps=steps)
            if steps >= fuel:
                return WhnfResult("fuel", t, steps=steps)
            steps += 1
            t = _apply(psubst(head.body, head.var, args[0]), args[1:])
            continue
        if isinstance(head, PVar):
            return WhnfResult("value", t, steps=steps)
        assert isinstance(head, PCase)
        remaining = fuel - steps
        if remaining <= 0:
            return WhnfResult("fuel", t, steps=steps)
        inner = whnf(head.scrutinee, remaining)
        steps += inner.steps
        rebuilt = _apply(PCase(inner.term, head.branches), args)
        if inner.kind == "fuel":
            return WhnfResult("fuel", rebuilt, steps=steps)
        case2 = PCase(inner.term, head.branches)
        hit = _iota_branch(case2)
        if hit is None:
            stuck = inner.kind == "head" or isinstance(inner.term, PLam) \
                or (inner.kind == "value" and inner.stuck)
            return WhnfResult("value", rebuilt, stuck=stuck, steps=steps)
        if steps >= fuel:
            return WhnfResult("fuel", rebuilt, steps=steps)
        steps += 1
        b, cargs = hit
        body = b.body
        for x, a in zip(b.binders, cargs):
            body = psubst(body, x, a)
        t = _apply(body, args)


# ---------------------------------------------------------------------------
# Approximants

@dataclass(frozen=True)
class Constr:
    con: str
    children: tuple["Approximant", ...] = ()


@dataclass(frozen=True)
class Bottom:
    fuel_limited: bool = field(default=False, compare=False)


@dataclass(frozen=True)
class Opaque:
    term: PlainTerm


Approximant = Union[Constr, Bottom, Opaque]


@dataclass(frozen=True)
class EvalBudget:
    """Reduction fuel per weak-head normalization, and observation depth."""
    fuel: int = 10000
    depth: int = 5

    def __post_init__(self) -> None:
        if self.fuel <= 0 or self.depth < 0:
            raise ValueError("fuel must be positive and depth non-negative")


def approximant(t: PlainTerm, budget: EvalBudget,
                reg: Optional[DefRegistry] = None) -> Approximant:
    """Observe a term to the given depth.

    Depth zero is bottom; otherwise head-normalize, descend under
    constructors, and wrap non-constructor values opaquely.  Fuel
    exhaustion becomes a bottom leaf marked fuel-limited.

    With a registry, the depth budget is spent on the recursive chain of
    coinductive constructors while other components are computed in full
    (that is what the finite approximations of a coinductive type ask
    for: n correct layers whose non-recursive parts are complete).
    Without one, every constructor level costs one unit of depth.  A
    global gas tank of fuel*(depth+2) reduction steps bounds the full
    descents.
    """
    gas = [budget.fuel * (budget.depth + 2)]
    a, _steps, _lim = _approx(t, budget.depth, budget.fuel, reg, gas)
    return a


_FULL_DEPTH = float("inf")


# A whnf memo maps (id(t), fuel limit) to (t, whnf(t, limit)); holding t
# keeps its id from being reused while the entry lives.
_WhnfMemo = dict[tuple[int, int], tuple[PlainTerm, WhnfResult]]


class _Node:
    """A constructor node of `_approx` whose children are being observed."""
    __slots__ = ("head", "args", "depths", "kids", "steps", "limited")

    def __init__(self, head: str, args: tuple, depths: list, steps: int):
        self.head, self.args, self.depths = head, args, depths
        self.kids: list[Approximant] = []
        self.steps = steps
        self.limited = False


def _approx(t: PlainTerm, depth, fuel: int, reg: Optional[DefRegistry],
            gas: list[int], memo: Optional[_WhnfMemo] = None
            ) -> tuple[Approximant, int, bool]:
    """The approximant of `t`, the reduction steps it was charged, and
    whether fuel cut it.  A subterm met again under the same limit reuses
    its whnf from the memo (a fresh one when none is passed); whnf is a
    pure function of the term and the limit, so its steps are charged
    all the same.

    Children are observed left to right, each in full before the next,
    on a stack of open constructor nodes rather than the Python stack."""
    if memo is None:
        memo = {}
    path: list[_Node] = []
    while True:
        # observe t at `depth`: either a leaf result or a new open node
        if reg is None and depth <= 0:
            res = (Bottom(), 0, False)
        elif gas[0] <= 0:
            res = (Bottom(fuel_limited=True), 0, True)
        else:
            limit = min(fuel, gas[0])
            key = (id(t), limit)
            hit = memo.get(key)
            if hit is None:
                r = whnf(t, limit)
                memo[key] = (t, r)
            else:
                r = hit[1]
            gas[0] -= r.steps
            if r.kind == "fuel":
                res = (Bottom(fuel_limited=True), r.steps, True)
            elif r.kind != "head":
                res = (Opaque(r.term), r.steps, False)
            else:
                depths = _child_depths(r.head, len(r.args), depth, reg)
                if depths is None:  # a coinductive (or unknown) layer at 0
                    res = (Bottom(), r.steps, False)
                elif not r.args:
                    res = (Constr(r.head, ()), r.steps, False)
                else:
                    path.append(_Node(r.head, r.args, depths, r.steps))
                    t, depth = r.args[0], depths[0]
                    continue
        # hand the result to the open nodes it completes
        while path:
            node = path[-1]
            node.kids.append(res[0])
            node.steps += res[1]
            node.limited = node.limited or res[2]
            i = len(node.kids)
            if i < len(node.args):
                t, depth = node.args[i], node.depths[i]
                break
            path.pop()
            res = (Constr(node.head, tuple(node.kids)), node.steps,
                   node.limited)
        else:
            return res


def _child_depths(con: str, n: int, depth,
                  reg: Optional[DefRegistry]) -> Optional[list]:
    """Per-child depth budgets, or None when the node itself is cut.

    Only coinductive constructors consume depth (that is what the
    approximation levels of a coinductive type count); inductive spines
    pass it through and closed components are computed in full.
    """
    if reg is None:
        return [depth - 1] * n
    entry = reg.constructor_entry(con)
    if entry is None or len(entry[1].arg_types) != n:
        return None if depth <= 0 else [depth - 1] * n
    d, sig = entry
    if d.coinductive:
        if depth <= 0:
            return None
        depth -= 1
    return [_FULL_DEPTH if closed else depth for closed in sig.closed]


def refines(a1: Approximant, a2: Approximant) -> bool:
    """Whether a2 is a1 with some subtrees replaced by bottom."""
    todo = [(a1, a2)]
    while todo:
        a1, a2 = todo.pop()
        if isinstance(a2, Bottom):
            continue
        if isinstance(a1, Constr) and isinstance(a2, Constr):
            if a1.con != a2.con or len(a1.children) != len(a2.children):
                return False
            todo.extend(zip(a1.children, a2.children))
        elif not (isinstance(a1, Opaque) and isinstance(a2, Opaque)
                  and alpha_eq_plain(a1.term, a2.term)):
            return False
    return True


def approximant_nodes(a: Approximant) -> int:
    nodes, stack = 0, [a]
    while stack:
        a = stack.pop()
        nodes += 1
        if isinstance(a, Constr):
            stack.extend(a.children)
    return nodes


# ---------------------------------------------------------------------------
# Membership in valuation approximations

class NonObservableType(Exception):
    pass


def observable(tau: Type, reg: DefRegistry) -> bool:
    """Whether the type and all reachable constructor argument types are
    free of arrows and quantifiers."""
    seen: set[str] = set()
    todo = [tau]
    while todo:
        for t, _ in type_nodes(todo.pop()):
            if type(t) is Coind:
                if t.defname not in seen:
                    seen.add(t.defname)
                    todo.extend(a for c in reg.constructors(t.defname)
                                for a in c.arg_types)
            elif type(t) is not TyVar:
                return False
    return True


def member(a: Approximant, tau: Type, reg: DefRegistry,
           v: SizeValuation | Mapping[str, ExtNat] | None = None,
           strict: bool = False) -> bool:
    """Membership of an approximant in the valuation approximation of an
    observable type.

    For a coinductive type at finite level n, non-strict membership asks
    for at least n correct constructor layers (level 0 accepts
    everything); strict membership asks for exactly n layers ending in
    bottom (level 0 accepts only bottom).  For an inductive type, level n
    bounds the constructor depth from above and bottoms never belong.
    Parameters are checked at their own (full) interpretations; only the
    main recursive chain is approximated.
    """
    if not observable(tau, reg):
        raise NonObservableType(f"type is not observable: {tau!r}")
    if v is None:
        v = SizeValuation({})
    elif not isinstance(v, SizeValuation):
        v = SizeValuation(v)
    if not isinstance(tau, Coind):
        raise NonObservableType("membership needs a (co)inductive type")
    level = eval_size(v, tau.size)
    return _member(a, (tau.defname, [(p, {}) for p in tau.params], level,
                       strict), reg, v)


def _member(a: Approximant, goal: tuple, reg: DefRegistry, v) -> bool:
    """Whether the approximant meets the goal, with the goals it opens
    kept on a stack and checked depth-first, left to right.

    A goal is (t, env), membership in type t with its type variables
    read as the goals in env, or (dn, params, level, strict), membership
    in the level-approximation of definition dn with its parameters read
    as the goals in params."""
    todo = [(a, goal)]
    while todo:
        a, goal = todo.pop()
        while len(goal) == 2:
            t, env = goal
            if isinstance(t, TyVar):
                goal = env[t.name]
            elif isinstance(t, Coind):
                goal = (t.defname, [(p, env) for p in t.params],
                        eval_size(v, t.size), False)
            else:
                raise NonObservableType(f"non-observable position: {t!r}")
        dn, params, level, strict = goal
        d = reg.definition(dn)
        if d.coinductive:
            if strict and level == INF:
                raise ValueError("strict membership needs a finite level")
            if level <= 0:
                if strict and not isinstance(a, Bottom):
                    return False
                continue
        elif level <= 0:
            return False
        if not isinstance(a, Constr):
            return False
        entry = reg.constructor_entry(a.con)
        if entry is None or entry[0].name != dn:
            return False
        sig = entry[1]
        if len(sig.arg_types) != len(a.children):
            return False
        child_level = level - 1 if level != INF else INF
        env = {d.rec_var: (dn, params, child_level, strict)}
        env.update(zip(d.params, params))
        todo.extend(reversed([(k, (sigma, env)) for k, sigma
                              in zip(a.children, sig.arg_types)]))
    return True


# ---------------------------------------------------------------------------
# Productivity harness

@dataclass
class DepthVerdict:
    depth: int
    ok: bool
    nodes: int
    fuel_used: int
    fuel_limited: bool
    approx: Approximant


@dataclass
class ProductivityReport:
    verdicts: list[DepthVerdict]
    chain_ok: bool
    passed: bool
    fail_at: Optional[int]

    def render(self) -> str:
        lines = []
        for d in self.verdicts:
            extra = " fuel-limited" if d.fuel_limited else ""
            lines.append(f"{d.depth}: {'ok' if d.ok else 'fail'} "
                         f"(nodes={d.nodes}, fuelUsed={d.fuel_used}){extra}")
        lines.append("PASS" if self.passed else f"FAIL at n={self.fail_at}")
        return "\n".join(lines)


def productivity_check(t: PlainTerm, tau: Type, reg: DefRegistry,
                       max_depth: int = 5,
                       budget: EvalBudget | None = None) -> ProductivityReport:
    """Check approximants of increasing depth against the corresponding
    valuation approximations of an observable coinductive type, and that
    deeper approximants refine shallower ones."""
    if budget is None:
        budget = EvalBudget()
    if not (isinstance(tau, Coind) and reg.definition(tau.defname).coinductive):
        raise NonObservableType("productivity needs a coinductive type")
    if not observable(tau, reg):
        raise NonObservableType(f"type is not observable: {tau!r}")
    level_var = "$depth"
    tau_n = Coind(tau.defname, SVar(level_var), tau.params)
    verdicts: list[DepthVerdict] = []
    chain_ok = True
    fail_at: Optional[int] = None
    prev: Optional[Approximant] = None
    memo: _WhnfMemo = {}
    for n in range(max_depth + 1):
        gas = [budget.fuel * (n + 2)]
        a, steps, limited = _approx(t, n, budget.fuel, reg, gas, memo)
        ok = member(a, tau_n, reg, SizeValuation({level_var: n}))
        verdicts.append(DepthVerdict(n, ok, approximant_nodes(a), steps,
                                     limited, a))
        if prev is not None and not refines(a, prev):
            chain_ok = False
            if fail_at is None:
                fail_at = n
        if not ok and fail_at is None:
            fail_at = n
        prev = a
    passed = chain_ok and all(d.ok for d in verdicts)
    return ProductivityReport(verdicts, chain_ok, passed,
                              None if passed else fail_at)
