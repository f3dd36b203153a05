"""Erasure and the untyped rewrite system.

Decorated terms erase to plain lambda terms with case; fix and cofix
become applications of the Turing fixpoint combinator.  Reduction is
normal order (leftmost-outermost beta and iota).  Possibly infinite
results are observed through finite approximants: constructor trees cut
off with bottom leaves, where bottom stands for divergence and fuel
exhaustion is its computable surrogate.  Membership of approximants in
the finite approximations of observable (co)inductive types gives the
empirical productivity harness.

Every walk here is depth-safe: erasure and the single reduction step are
node functions over the term walks of `syntax.py` (`fold_term`,
`term_nodes`), `psubst` is the substitution `syntax.substitute` shares
with decorated terms, and `whnf` keeps the case heads waiting on their
scrutinees on a stack of its own.

Reduction shares work instead of redoing it.  Terms cache their free
variables (`fv`), so `psubst` returns every subterm the variable is not
free in as the same object and rebuilds only the path to its
occurrences.  An observation keeps a memo keyed by subterm identity and
fuel limit: `approximant` one per call, `productivity_check` one for all
depths, since the approximant at depth n+1 revisits the subterms of the
one at depth n.  It normalizes each shared subterm once per fuel limit
and observes it once per depth: the memo holds the weak head normal
form of every subterm met, and, for one met more than once, its finished
observations by depth, which a later visit reuses as the same object.
An approximant is thus a DAG (`cofix t. bnode zero t t` has 3*2^n - 2
nodes at depth n but 4n + 2 distinct ones), and membership,
refinement and the node count visit each distinct node, or pair of
nodes, once.  The memo saves time only: the reduction steps a reused
result stands for are still charged, and a kept observation is reused
only where the gas tank would give each of its whnf calls the full fuel
limit, so fuel use and fuel-limited results are those of reducing
afresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

from .sizes import INF, ExtNat, SizeValuation, eval_size
from .syntax import (
    App, Case, Coind, Con, DefRegistry, Lam, PApp, PBranch, PCase, PCon,
    PLam, PVar, PlainTerm, SizeApp, SizeLam, SVar, Term, TyVar, Type, Var,
    alpha_eq_plain, fold_term, rebuilt, substitute, term_nodes, type_nodes,
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
    """Drop types and size operations; fix/cofix become Y applications."""
    return fold_term(t, _erase)


def _erase(t: Term, kids: list, _ctx) -> PlainTerm:
    cls = type(t)
    if cls is App:
        return PApp(*kids)
    if cls is Var:
        return PVar(t.name)
    if cls is Con:
        return PCon(t.name)
    if cls is Lam:
        return PLam(t.var, kids[0])
    if cls is Case:
        return PCase(kids[0], tuple(PBranch(b.con, b.binders, body)
                                    for b, body in zip(t.branches, kids[1:])))
    if cls is SizeApp or cls is SizeLam:
        return kids[0]
    return PApp(Y_COMBINATOR, PLam(t.var, kids[0]))  # Fix, Cofix


# ---------------------------------------------------------------------------
# Substitution on plain terms

def psubst(t: PlainTerm, var: str, value: PlainTerm) -> PlainTerm:
    """Capture-avoiding substitution of `value` for `var` in `t`.

    A subterm in which `var` is not free is returned as it is, the same
    object, so the result shares every untouched part of `t`."""
    return substitute(t, var, value)


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
    """t with its leftmost-outermost redex, the first in pre-order,
    contracted; None when there is none.  Once it is found, every node
    still to be met is left as it is."""
    found = False

    def enter(x: PlainTerm, _ctx):
        nonlocal found
        if found:
            return None
        r = _contract(x)
        if r is None:
            return x, (True,) * len(x._kids())
        found = True
        return r, (None,) * len(r._kids())

    r = fold_term(t, lambda x, kids, _ctx: rebuilt(x, kids), enter, True)
    return r if found else None


def _contract(t: PlainTerm) -> Optional[PlainTerm]:
    """The contractum of t when t is a beta or iota redex, else None."""
    if type(t) is PApp and type(t.fun) is PLam:
        return psubst(t.fun.body, t.fun.var, t.arg)
    if type(t) is PCase:
        hit = _iota_branch(t)
        if hit is not None:
            b, args = hit
            body = b.body
            for x, a in zip(b.binders, args):
                body = psubst(body, x, a)
            return body
    return None


def _has_stuck_case(t: PlainTerm) -> bool:
    """Whether some case in t has a constructor or an abstraction as the
    head of its scrutinee and yet cannot take an iota step."""
    return any(type(x) is PCase
               and isinstance(_spine(x.scrutinee)[0], (PCon, PLam))
               and _iota_branch(x) is None for x in term_nodes(t))


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
    cases.

    The term is kept as its head and arguments, and built whole only for
    the result (t is None while it is not built).  A case at the head
    waits, with the arguments it is applied to, on a stack of pending
    frames while its scrutinee is head-reduced under the fuel left; the
    scrutinee's result then decides the case."""
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    steps = 0
    frames: list[tuple[PCase, list[PlainTerm]]] = []
    head, args = _spine(t)
    while True:
        if isinstance(head, PCon):
            kind = "head"
        elif isinstance(head, PLam) and args:
            if steps < fuel:
                steps += 1
                head, more = _spine(psubst(head.body, head.var, args[0]))
                args = more + args[1:]
                t = None
                continue
            kind = "fuel"
        elif isinstance(head, PCase):
            if steps < fuel:
                frames.append((head, args))
                t = head.scrutinee
                head, args = _spine(t)
                continue
            kind = "fuel"
        else:
            kind = "value"
        if t is None:
            t = _apply(head, args)
        res = WhnfResult(kind, t, head.name, tuple(args), False, steps) \
            if kind == "head" else WhnfResult(kind, t, steps=steps)
        # the result of a scrutinee decides the case waiting on it
        while frames:
            case, args = frames.pop()
            case = PCase(res.term, case.branches)
            if res.kind == "fuel":
                res = WhnfResult("fuel", _apply(case, args), steps=steps)
                continue
            hit = _iota_branch(case)
            if hit is None:
                stuck = res.kind == "head" or isinstance(res.term, PLam) \
                    or (res.kind == "value" and res.stuck)
                res = WhnfResult("value", _apply(case, args), stuck=stuck,
                                 steps=steps)
            elif steps >= fuel:
                res = WhnfResult("fuel", _apply(case, args), steps=steps)
            else:
                steps += 1
                b, cargs = hit
                body = b.body
                for x, a in zip(b.binders, cargs):
                    body = psubst(body, x, a)
                head, more = _spine(body)
                args = more + args
                t = None
                break
        else:
            return res


# ---------------------------------------------------------------------------
# Approximants

@dataclass(frozen=True)
class Constr:
    con: str
    children: tuple["Approximant", ...] = ()

    def __eq__(self, other):
        # one loop over pairs of nodes, not one call per level
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if type(a) is not type(b):
                return False
            if type(a) is Constr:
                if a.con != b.con or len(a.children) != len(b.children):
                    return False
                todo.extend(zip(a.children, b.children))
            elif a != b:
                return False
        return True


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
    return _approx(t, budget.depth, budget.fuel, reg, gas)[0]


_FULL_DEPTH = float("inf")


# An observation memo maps (id(t), fuel limit) to (t, whnf(t, limit)),
# or, once t has been observed in full at some depth, to (t, whnf(t,
# limit), {depth: what `_approx` returned for t at depth}).  Holding t
# keeps its id from being reused while the entry lives.
_Memo = dict[tuple[int, int], tuple]


class _Node:
    """A constructor node of `_approx` whose children are being observed;
    `done` is its term's table of full observations by depth when this
    one is to be kept there, else None."""
    __slots__ = ("head", "args", "depths", "kids", "steps", "limited",
                 "nodes", "done", "depth")

    def __init__(self, head: str, args: tuple, depths: list, steps: int,
                 done: Optional[dict], depth):
        self.head, self.args, self.depths = head, args, depths
        self.kids: list[Approximant] = []
        self.steps = steps
        self.limited = False
        self.nodes = 1
        self.done, self.depth = done, depth


def _approx(t: PlainTerm, depth, fuel: int, reg: Optional[DefRegistry],
            gas: list[int], memo: Optional[_Memo] = None
            ) -> tuple[Approximant, int, bool, int]:
    """The approximant of `t`, the reduction steps it was charged,
    whether fuel cut it, and its number of nodes counted as a tree.

    A subterm met again under the same limit reuses its whnf from the
    memo (a fresh one when none is passed); whnf is a pure function of
    the term and the limit, so its steps are charged all the same.  Such
    a subterm, met before, may be shared, so its finished observation at
    a depth is kept too, and a later visit at that depth reuses it, the
    same object, and charges its steps again.  Gas decides exactly when:
    an observation is kept only if the gas left after it is still at
    least `fuel`, so that every whnf in it had the limit `fuel`, and it
    is reused only if it leaves at least `fuel`, so that a fresh walk
    would have given each of those whnf the same limit.  The result thus
    reads as a walk of the tree, steps and fuel-limited leaves included,
    while each shared subterm is observed once per depth.  A subterm met
    for the first time is not looked up or kept, so unshared data costs
    no more than a plain walk.

    Children are observed left to right, each in full before the next,
    on a stack of open constructor nodes rather than the Python stack."""
    if memo is None:
        memo = {}
    path: list[_Node] = []
    while True:
        # observe t at `depth`: either a leaf result or a new open node
        if reg is None and depth <= 0:
            res = (Bottom(), 0, False, 1)
        elif gas[0] <= 0:
            res = (Bottom(fuel_limited=True), 0, True, 1)
        else:
            limit = min(fuel, gas[0])
            key = (id(t), limit)
            hit = memo.get(key)
            done = None
            if hit is None:
                r = whnf(t, limit)
                memo[key] = (t, r)
            else:  # met before, so maybe shared: keep its observations
                r = hit[1]
                if r.args:
                    if len(hit) == 2:
                        hit = memo[key] = (t, r, {})
                    done = hit[2]
                    kept = done.get(depth)
                    if kept is not None and gas[0] - kept[1] >= fuel:
                        gas[0] -= kept[1]
                        res, r = kept, None
            if r is not None:
                gas[0] -= r.steps
                if r.kind == "fuel":
                    res = (Bottom(fuel_limited=True), r.steps, True, 1)
                elif r.kind != "head":
                    res = (Opaque(r.term), r.steps, False, 1)
                else:
                    depths = _child_depths(r.head, len(r.args), depth, reg)
                    if depths is None:  # a coinductive (or unknown) layer at 0
                        res = (Bottom(), r.steps, False, 1)
                    elif not r.args:
                        res = (Constr(r.head, ()), r.steps, False, 1)
                    else:
                        path.append(_Node(r.head, r.args, depths, r.steps,
                                          done, depth))
                        t, depth = r.args[0], depths[0]
                        continue
        # hand the result to the open nodes it completes
        while path:
            node = path[-1]
            node.kids.append(res[0])
            node.steps += res[1]
            node.limited = node.limited or res[2]
            node.nodes += res[3]
            i = len(node.kids)
            if i < len(node.args):
                t, depth = node.args[i], node.depths[i]
                break
            path.pop()
            res = (Constr(node.head, tuple(node.kids)), node.steps,
                   node.limited, node.nodes)
            if node.done is not None and gas[0] >= fuel:
                node.done[node.depth] = res
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
    """Whether a2 is a1 with some subtrees replaced by bottom.

    Each pair of shared nodes is compared once; both approximants keep
    their nodes, and so the ids in `seen`, alive."""
    todo = [(a1, a2)]
    seen: set[int] = set()
    while todo:
        a1, a2 = todo.pop()
        if a1 is a2 or isinstance(a2, Bottom):
            continue
        if isinstance(a1, Constr) and isinstance(a2, Constr):
            kids = a1.children
            if a1.con != a2.con or len(kids) != len(a2.children):
                return False
            if kids:
                pair = id(a1) << 64 | id(a2)
                if pair not in seen:
                    seen.add(pair)
                    todo.extend(zip(kids, a2.children))
        elif not (isinstance(a1, Opaque) and isinstance(a2, Opaque)
                  and alpha_eq_plain(a1.term, a2.term)):
            return False
    return True


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
    as the goals in params.

    Membership is a conjunction, so a node met again under a goal it was
    already checked against is skipped.  The ids of both make the key in
    `seen`; the node lives as long as the approximant, and `seen` holds
    the goal, so neither id is reused while it is a key."""
    todo = [(a, goal)]
    seen: dict[int, tuple] = {}
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
        if not a.children:
            continue
        pair = id(a) << 64 | id(goal)
        if pair in seen:
            continue
        seen[pair] = goal
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
    memo: _Memo = {}
    for n in range(max_depth + 1):
        gas = [budget.fuel * (n + 2)]
        a, steps, limited, nodes = _approx(t, n, budget.fuel, reg, gas,
                                           memo)
        ok = member(a, tau_n, reg, SizeValuation({level_var: n}))
        verdicts.append(DepthVerdict(n, ok, nodes, steps, limited, a))
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
