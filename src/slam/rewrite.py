"""Erasure and the untyped rewrite system.

Decorated terms erase to plain lambda terms with case; fix and cofix
become applications of the Turing fixpoint combinator.  Reduction is
normal order (leftmost-outermost beta and iota).  Possibly infinite
results are observed through finite approximants: constructor trees cut
off with bottom leaves, where bottom stands for divergence and fuel
exhaustion is its computable surrogate.  Membership of approximants in
the finite approximations of observable (co)inductive types gives the
empirical productivity harness.

Every walk here is depth-safe: erasure is a node function over the term
fold of `syntax.py` (`fold`), every substitution is
`syntax.substitute`, and `whnf` and its readback keep their own stacks.

Reduction runs by need and charges fuel by name.  The one reducer is
the machine (`_force`, `_run`), which every command runs and whose
library entry is `whnf`.  It runs on closures, a term with an
environment, and substitutes nothing: a beta or iota step binds a name
to a thunk, an argument closure shared by every place that pushes or
binds it.  A thunk is reduced to weak head normal form once and keeps
it with its cost, the steps normal-order reduction takes to reach it;
meeting it again does no work but charges that cost again, so fuel,
`fuelUsed=` and fuel-limited results are those of normal order by
substitution.  Only opaque leaves
and the result of `whnf` are read back to terms, each thunk as its
original closure, by one simultaneous substitution of its env that
returns every subterm no bound variable is free in as the same object
(terms cache their free variables, `fv`).  `_branch_for` alone decides
which branch, if any, an iota step takes.  File bindings are not
substituted either: `closure` makes each one thunk, shared by every
use, as a heap of let-bound closures does.

An observation descends into the thunks of constructor arguments.
`approximant` observes a fresh term or closure, `productivity_check`
one for all depths, so depth n+1 finds the thunks of depth n reduced;
where the gas tank cannot bind, it grows depth n+1 from depth n
(`_extend`), observing only the leaves depth n cut one layer further.
A thunk observed more than once keeps its finished observations by
depth, which a later visit reuses as the same object.  An approximant
is thus a DAG (`cofix t. bnode zero t t` has 3*2^n - 2 nodes at depth n
but 4n + 2 distinct ones), and membership and refinement visit each
distinct node, or pair of nodes, once.  Each node counts the tree it
stands for when it is built, from its children's counts, as a term
caches `fv`: `nodes`; `steps`, the reduction steps charged for its
own head and its children's; and `limited`, whether fuel cut it or a
child.  A report reads them off the approximant.  Sharing saves time
only: a reused result charges the steps it stands for, and a kept
observation is reused only where the gas tank would give each of its
forcings the full fuel limit, so fuel use and fuel-limited results are
those of reducing afresh.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from .sizes import INF, ExtNat, eval_size
from .syntax import (
    App, Case, Coind, Con, DefRegistry, Lam, PApp, PBranch, PCase, PCon,
    PLam, PVar, PlainTerm, SizeApp, SizeLam, SVar, Term, TyVar, Type, Var,
    _Frozen, _Record, _compare_as_trees, _set, alpha_eq, fold, nodes,
    substitute,
)

__all__ = [
    "Y_COMBINATOR", "OMEGA", "erase", "psubst", "whnf", "WhnfResult",
    "closure", "Approximant", "Constr", "Bottom", "Opaque", "EvalBudget",
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
    return fold(t, _erase)


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
    return substitute(t, ((var, value),))


# ---------------------------------------------------------------------------
# Reduction

def _apply(t: PlainTerm, args: list[PlainTerm]) -> PlainTerm:
    for a in args:
        t = PApp(t, a)
    return t


def _branch_for(t: PCase, con: str, n: int) -> Optional[PBranch]:
    """The branch of t an iota step takes on constructor `con` applied
    to n arguments: it needs pairwise distinct branch constructors, a
    branch for con, and matching arity."""
    names = [b.con for b in t.branches]
    if len(set(names)) != len(names):
        return None
    for b in t.branches:
        if b.con == con:
            return b if len(b.binders) == n else None
    return None


class WhnfResult(_Record):
    _fields = ("kind", "term", "head", "args", "stuck", "steps")

    def __init__(self, kind: str, term: PlainTerm, head: Optional[str] = None,
                 args: tuple[PlainTerm, ...] = (), stuck: bool = False,
                 steps: int = 0) -> None:
        self.kind = kind  # "head" | "value" | "fuel"
        self.term = term  # the reduced term
        self.head = head
        self.args = args
        self.stuck = stuck
        self.steps = steps


_NO_ENV: dict = {}


class _Thunk:
    """An argument or binding closure: a term and an env mapping the
    names that reduction or `closure` bound to their thunks; it reads
    back as one term.  `value` is None until it is reduced to a
    constructor head or an abstraction, and then that machine state
    (term, env, arguments with the first last, no frames); `cost` is
    then the steps normal order takes to reach it, and before, the most
    fuel a reduction of it ran out under (-1 if none did), which its
    cost exceeds.  `kept` is `_approx`'s."""
    __slots__ = ("term", "env", "value", "cost", "kept")

    def __init__(self, term: PlainTerm, env: dict = _NO_ENV):
        self.term = term
        self.env = env
        self.value = None
        self.cost = -1
        self.kept = None


def closure(t: PlainTerm, bindings: Mapping[str, PlainTerm]) -> _Thunk:
    """t with an env binding each name in `bindings` to one thunk of its
    body, under the same env.  `bindings` must be closed under reference
    and acyclic, or readback does not end.  Its thunks keep what they
    reduce: one closure serves one `approximant` or `productivity_check`."""
    env: dict = {}
    for name, body in bindings.items():
        env[name] = _Thunk(body, env)
    return _Thunk(t, env)


def whnf(t: PlainTerm, fuel: int) -> WhnfResult:
    """Head-reduce until a constructor application, a value, or fuel runs
    out.  Values are abstractions, variable-headed spines, and stuck
    cases.

    The reduction is normal order, run by need (`_force`).  The term and
    arguments of the result are read back once, at the end, each thunk
    once, so an argument met twice reads back as one object.  A call
    that takes no step returns t and t's own arguments."""
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    kind, steps, stuck, state = _force(_Thunk(t), fuel)
    memo: dict = {}
    if kind == "head":
        rargs = tuple(_readback(a, memo) for a in reversed(state[2]))
        return WhnfResult("head", _apply(state[0], rargs) if steps else t,
                          state[0].name, rargs, False, steps)
    return WhnfResult(kind, _readback_state(state, memo) if steps else t,
                      stuck=stuck, steps=steps)


def _force(th: _Thunk, fuel: int) -> tuple[str, int, bool, Optional[tuple]]:
    """Reduce th under `fuel`: (kind, steps charged, stuck, final state),
    as `whnf` has them, the state being (term, env, args, frames).  A
    reduced thunk costs no work; one known to need more than `fuel`
    costs none either, and has no state.  th is reduced on an update
    frame, as `_run` enters a thunk, which gives it its value and cost
    or records the fuel it ran out under."""
    if th.value is None and fuel > th.cost:
        out = _run(th.term, th.env, [], [(th, [], 0)], fuel)
        if th.value is None:
            return out
    v = th.value
    if v is None or th.cost > fuel:
        return "fuel", fuel, False, None
    return "head" if type(v[0]) is PCon else "value", th.cost, False, v


def _run(term: PlainTerm, env: dict, args: list, frames: list, fuel: int):
    """Run the machine from a state to a constructor head, a value or the
    end of the fuel: (kind, steps charged, stuck, final state).  The
    state is a closure (term, env), a stack of argument thunks (the
    first last) and a stack of frames.  A beta step binds the variable
    to the top argument, an iota step the branch binders to the
    scrutinee's arguments, and a bound variable enters its thunk at no
    step; an argument that is a bound variable is pushed as its
    thunk, so a self-application runs in constant space.  A case waits
    on a case frame while its scrutinee is reduced.  A thunk entered
    unreduced waits on an update frame, with its arguments, until a
    constructor head or an abstraction gives it its value and cost; if
    its reduction runs out of fuel or ends open or stuck, it stays
    unreduced.  A reduced thunk is entered as its value, charged its
    cost, if the fuel left covers that, and else as its closure, to run
    out of fuel where normal order does; one entered again while it is
    being reduced is reduced again, as by name."""
    steps = 0
    stuck = False
    while True:
        cls = type(term)
        if cls is PApp:
            a = term.arg
            th = env.get(a.name) if type(a) is PVar else None
            args.append(_Thunk(a, env) if th is None else th)
            term = term.fun
            continue
        if cls is PVar:
            th = env.get(term.name)
            if th is not None:
                v = th.value
                if v is None:
                    frames.append((th, args, steps))
                    term, env, args = th.term, th.env, []
                elif steps + th.cost <= fuel:
                    steps += th.cost
                    term, env = v[0], v[1]
                    args.extend(v[2])
                else:
                    term, env = th.term, th.env
                continue
            kind = "value"
        elif cls is PLam:
            if not args:
                kind = "value"
            elif steps < fuel:
                steps += 1
                term, env = term.body, _scope(env, term.body, term.var,
                                              args.pop())
                continue
            else:
                kind = "fuel"
        elif cls is PCase:
            if steps < fuel:
                frames.append((term, env, args))
                term, args = term.scrutinee, []
                continue
            kind = "fuel"
        else:
            kind = "head"
        if frames and kind != "fuel":
            if type(frames[-1][0]) is _Thunk:
                if kind == "value" and cls is not PLam:
                    break  # an open term
                th, saved, start = frames.pop()
                th.value = (term, env if cls is PLam else _NO_ENV,
                            tuple(args), ())
                th.cost = steps - start
                saved.extend(args)
                args = saved
                continue
            # the scrutinee's result decides the case waiting on it
            case, cenv, cargs = frames[-1]
            b = _branch_for(case, term.name, len(args)) \
                if kind == "head" else None
            if b is None:
                stuck = kind == "head" or cls is PLam
                kind = "value"
            elif steps < fuel:
                steps += 1
                frames.pop()
                env = cenv
                # the first of two equal binders wins, as in `substitute`
                for x, c in zip(reversed(b.binders), args):
                    env = _scope(env, b.body, x, c)
                term, args = b.body, cargs
                continue
            else:
                kind = "fuel"
        break
    if kind == "fuel":  # each thunk being reduced needed more than it had
        for th, _args, start in frames:
            if type(th) is _Thunk and th.value is None:
                th.cost = max(th.cost, fuel - start)
    return kind, steps, stuck, (term, env, args, frames)


def _scope(env: dict, t: PlainTerm, x: str, c: _Thunk) -> dict:
    """A new env for t: env with x bound to c.  Once env has grown wide,
    only the part of it t's free variables use is kept, so that a chain
    of nested binders does not copy an ever longer env at every step."""
    if len(env) < 8:
        return {**env, x: c}
    env = {y: env[y] for y in t.fv if y in env}
    env[x] = c
    return env


# stands for a waiting case's scrutinee while its branches are read back
_HOLE = PCon("")


def _readback_state(state: tuple, memo: dict) -> PlainTerm:
    """The term a machine state stands for: its closure applied to its
    arguments, inside the cases and applications its frames wait in."""
    term, env, args, frames = state
    out = _readback(_Thunk(term, env), memo)
    for f, fenv, fargs in ((None, args, None), *reversed(frames)):
        if type(f) is PCase:
            out = PCase(out, _readback(_Thunk(PCase(_HOLE, f.branches), fenv),
                                       memo).branches)
        else:  # arguments: an update frame's, or the state's own
            fargs = fenv
        out = _apply(out, [_readback(a, memo) for a in reversed(fargs)])
    return out


def _readback(th: _Thunk, memo: dict) -> PlainTerm:
    """The term a thunk's closure stands for: its term with each name its
    env binds replaced, at once (`substitute`), by what that name's thunk
    reads back as.
    `memo` maps id(thunk) to (thunk, its term): a thunk met twice gives
    one object.  Thunks wait on a stack while those they need are read
    back, so a chain of any length needs no recursion."""
    if not th.env:
        return th.term
    todo = [th]
    while todo:
        d = todo[-1]
        if id(d) in memo:
            todo.pop()
            continue
        t, env = d.term, d.env
        sub = {}
        for x in t.fv:
            e = env.get(x)
            if e is None:
                continue
            if not e.env:
                sub[x] = e.term
            elif id(e) in memo:
                sub[x] = memo[id(e)][1]
            else:
                todo.append(e)
        if todo[-1] is d:
            todo.pop()
            memo[id(d)] = (d, substitute(t, sub.items()))
    return memo[id(th)][1]


# ---------------------------------------------------------------------------
# Approximants

class Constr(_Frozen):
    _fields = ("con", "children")

    def __init__(self, con: str, children: tuple["Approximant", ...] = (),
                 steps: int = 0) -> None:
        _set(self, "con", con)
        _set(self, "children", children)
        nodes, limited = 1, False
        for k in children:
            nodes += k.nodes
            steps += k.steps
            limited = limited or k.limited
        _set(self, "nodes", nodes)
        _set(self, "steps", steps)
        _set(self, "limited", limited)

    def _kids(self) -> tuple:
        return self.children

    def __repr__(self):
        # the record repr, written out in one loop over the tree
        out = []
        todo: list = [self]
        while todo:
            a = todo.pop()
            if type(a) is str:
                out.append(a)
            elif type(a) is not Constr:
                out.append(repr(a))
            else:
                out.append(f"Constr(con={a.con!r}, children=(")
                todo.append(",))" if len(a.children) == 1 else "))")
                for i in reversed(range(len(a.children))):
                    todo.append(a.children[i])
                    if i:
                        todo.append(", ")
        return "".join(out)


class Bottom(_Frozen):
    _fields = ("fuel_limited",)

    def __init__(self, fuel_limited: bool = False, steps: int = 0) -> None:
        _set(self, "fuel_limited", fuel_limited)
        _set(self, "nodes", 1)
        _set(self, "steps", steps)
        _set(self, "limited", fuel_limited)

    def _kids(self) -> tuple:
        return ()


class Opaque(_Frozen):
    _fields = ("term",)

    def __init__(self, term: PlainTerm, steps: int = 0) -> None:
        _set(self, "term", term)
        _set(self, "nodes", 1)
        _set(self, "steps", steps)
        _set(self, "limited", False)

    def _kids(self) -> tuple:
        return (self.term,)


Approximant = Union[Constr, Bottom, Opaque]

# compared and hashed in one loop over the nodes, as terms are; a bottom's
# `fuel_limited` and the counts take no part
_compare_as_trees({Constr: lambda a: (a.con, len(a.children)),
                   Bottom: None, Opaque: None})


class EvalBudget(_Frozen):
    """Reduction fuel per weak-head normalization, and observation depth."""
    _fields = ("fuel", "depth")

    def __init__(self, fuel: int = 10000, depth: int = 5) -> None:
        if fuel <= 0 or depth < 0:
            raise ValueError("fuel must be positive and depth non-negative")
        _set(self, "fuel", fuel)
        _set(self, "depth", depth)


def approximant(t: PlainTerm | _Thunk, budget: EvalBudget,
                reg: DefRegistry) -> Approximant:
    """Observe a term, or a fresh `closure`, to the given depth.

    Head-normalize, descend under constructors, and wrap
    non-constructor values opaquely.  Fuel exhaustion becomes a bottom
    leaf marked fuel-limited.

    The depth budget is spent on the recursive chain of the registry's
    coinductive constructors, a coinductive layer met at depth zero
    being bottom, while other components are computed in full (that is
    what the finite approximations of a coinductive type ask for: n
    correct layers whose non-recursive parts are complete).  A global
    gas tank of fuel*(depth+2) reduction steps bounds the full
    descents.
    """
    gas = [budget.fuel * (budget.depth + 2)]
    return _approx(t, budget.depth, budget.fuel, reg, gas)


_FULL_DEPTH = float("inf")
_ONCE = object()  # `_Thunk.kept` of a thunk observed once


class _Node:
    """A constructor node of `_approx` whose children are being observed,
    with the steps charged for its head; `done` is its thunk's table of
    full observations by depth when this one is to be kept there, else
    None."""
    __slots__ = ("head", "args", "depths", "kids", "steps", "done", "depth",
                 "cut")

    def __init__(self, head: str, args: tuple, depths: list, steps: int,
                 done: Optional[dict], depth):
        self.head, self.args, self.depths = head, args, depths
        self.kids: list[Approximant] = []
        self.steps = steps
        self.done, self.depth = done, depth
        self.cut = False


def _approx(t: PlainTerm | _Thunk, depth, fuel: int,
            reg: DefRegistry, gas: list[int],
            cuts: Optional[dict] = None) -> Approximant:
    """The approximant of `t`, which counts the reduction steps it was
    charged, whether fuel cut it and its nodes.

    `t` is a term, or a thunk that earlier observations, under the same
    fuel and registry, have reduced in part.  Each thunk is reduced once
    (`_force`) and charged its cost at every visit.  A thunk visited
    before may be shared, so its finished observation at a depth is kept
    too, and a later visit at that depth reuses it, the same object, and
    charges its steps again.  Gas decides exactly when: an observation is
    kept only if the gas left after it is at least `fuel`, so every
    forcing in it had the limit `fuel`, and reused only if it leaves at
    least `fuel`, so a fresh walk would give each forcing that limit.
    The result thus reads as a walk of the tree by name, while each
    shared thunk is observed once per depth.  A thunk met for the first
    time is not looked up or kept, so unshared data costs no more than a
    plain walk.  Children are observed left to right, each in full before
    the next, on a stack of open constructor nodes.

    With a `cuts` table, each leaf cut at a coinductive layer of depth 0
    is entered as id(leaf) -> (leaf, its thunk), and each constructor
    node with such a leaf below it as id(node) -> (node, None); `_extend`
    reads them."""
    th = t if type(t) is _Thunk else _Thunk(t)
    path: list[_Node] = []
    while True:
        # observe th at `depth`: either a leaf result or a new open node
        if gas[0] <= 0:
            res = Bottom(True)
        else:
            kind, steps, _, v = _force(th, min(fuel, gas[0]))
            res = done = None
            if kind == "head" and v[2]:
                if th.kept is None:
                    th.kept = _ONCE
                else:  # met before, so maybe shared: keep its observations
                    if th.kept is _ONCE:
                        th.kept = {}
                    done = th.kept
                    res = done.get(depth)
                    if res is not None and gas[0] - res.steps < fuel:
                        res = None
            if res is not None:
                gas[0] -= res.steps
            else:
                gas[0] -= steps
                if kind == "fuel":
                    res = Bottom(True, steps)
                elif kind != "head":
                    res = Opaque(_readback_state(v, {}), steps)
                else:
                    head, args = v[0].name, v[2]
                    depths = _child_depths(head, len(args), depth, reg)
                    if depths is None:  # a coinductive (or unknown) layer at 0
                        res = Bottom(False, steps)
                        if cuts is not None:
                            cuts[id(res)] = (res, th)
                    elif not args:
                        res = Constr(head, (), steps)
                    else:
                        args = args[::-1]
                        path.append(_Node(head, args, depths, steps, done,
                                          depth))
                        th, depth = args[0], depths[0]
                        continue
        # hand the result to the open nodes it completes
        while path:
            node = path[-1]
            node.kids.append(res)
            if cuts is not None and id(res) in cuts:
                node.cut = True
            i = len(node.kids)
            if i < len(node.args):
                th, depth = node.args[i], node.depths[i]
                break
            path.pop()
            res = Constr(node.head, tuple(node.kids), node.steps)
            if node.cut:
                cuts[id(res)] = (res, None)
            if node.done is not None and gas[0] >= fuel:
                node.done[node.depth] = res
        else:
            return res


def _extend(a: Approximant, cuts: dict, fuel: int, reg: DefRegistry,
            gas: list[int]) -> Optional[Approximant]:
    """The approximant one depth deeper than `a`, whose cut leaves and the
    nodes above them `_approx` entered in `cuts`: each cut leaf becomes
    its thunk observed at depth 1, each node above a cut is rebuilt on
    the new children, with the steps of its own head, and every other
    subtree is shared.  The rebuilt nodes count themselves from their
    children, so the counts are those of the deeper tree.

    A walk one depth deeper meets the same thunks, cut leaves observed
    one layer further, so while every forcing has the full `fuel` this is
    that walk.  The observations share the gas; None once it falls below
    `fuel`, where the walk may be pressured.  Nodes are rebuilt after
    their children, on a stack, each once."""
    if id(a) not in cuts:
        return a
    new: dict[int, Approximant] = {}  # id(old node) -> its replacement
    todo = [(a, False)]  # a node, and whether its children were pushed
    while todo:
        x, pushed = todo.pop()
        if id(x) in new:
            continue
        th = cuts[id(x)][1]
        if th is not None:  # a cut leaf, charged its steps already
            gas[0] += x.steps
            b = _approx(th, 1, fuel, reg, gas, cuts)
            if gas[0] < fuel:
                return None
            new[id(x)] = b
            continue
        if not pushed:
            below = [(k, False) for k in x.children
                     if id(k) in cuts and id(k) not in new]
            if below:
                todo.append((x, True))
                todo += below
                continue
        kids, own, cut = [], x.steps, False
        for k in x.children:
            own -= k.steps
            k = new.get(id(k), k)
            kids.append(k)
            cut = cut or id(k) in cuts
        b = Constr(x.con, tuple(kids), own)
        if cut:
            cuts[id(b)] = (b, None)
        new[id(x)] = b
    return new[id(a)]


def _child_depths(con: str, n: int, depth,
                  reg: DefRegistry) -> Optional[list]:
    """Per-child depth budgets, or None when the node itself is cut.

    Only coinductive constructors consume depth (that is what the
    approximation levels of a coinductive type count); inductive spines
    pass it through and closed components are computed in full.
    """
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
                  and alpha_eq(a1.term, a2.term)):
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
        for t in nodes(todo.pop()):
            if type(t) is Coind:
                if t.defname not in seen:
                    seen.add(t.defname)
                    todo.extend(a for c in reg.constructors(t.defname)
                                for a in c.arg_types)
            elif type(t) is not TyVar:
                return False
    return True


def _need_observable(tau: Type, reg: DefRegistry) -> None:
    if not observable(tau, reg):
        from .printer import print_type
        raise NonObservableType(f"type is not observable: {print_type(tau)}")


def member(a: Approximant, tau: Type, reg: DefRegistry,
           v: Mapping[str, ExtNat] | None = None,
           strict: bool = False, tables: Optional[tuple] = None) -> bool:
    """Membership of an approximant in the valuation approximation of an
    observable type.

    For a coinductive type at finite level n, non-strict membership asks
    for at least n correct constructor layers (level 0 accepts
    everything); strict membership asks for exactly n layers ending in
    bottom (level 0 accepts only bottom).  For an inductive type, level n
    bounds the constructor depth from above and bottoms never belong.
    Parameters are checked at their own (full) interpretations; only the
    main recursive chain is approximated.

    `tables`, a fresh `({}, {}, set())` passed to several calls, lets
    them share their goals and the (node, goal) pairs they verified; the
    caller keeps every approximant it checks alive, and has checked once
    that `tau` is observable, which does not depend on its sizes.  That
    is exact under any valuations: only the sizes of `tau` are read
    under `v`, as constructor arguments have no free size variables.
    """
    if tables is None:
        _need_observable(tau, reg)
        tables = ({}, {}, set())
    if v is None:
        v = {}
    if not isinstance(tau, Coind):
        raise NonObservableType("membership needs a (co)inductive type")
    level = eval_size(v, tau.size)
    if _member(a, (tau.defname, [(p, {}) for p in tau.params], level,
                   strict), reg, v, *tables):
        return True
    tables[2].clear()  # pairs whose children were still to be checked
    return False


def _member(a: Approximant, goal: tuple, reg: DefRegistry, v, goals: dict,
            kids: dict, seen: set) -> bool:
    """Whether the approximant meets the goal, with the goals it opens
    kept on a stack and checked depth-first, left to right.

    A goal is (dn, params, level, strict), membership in the
    level-approximation of definition dn with its parameters read as the
    goals in params; a parameter's goal may also be (t, env), membership
    in type t with its type variables read as the goals in env.

    Membership is a conjunction, so a node met again under a goal it was
    already checked against is skipped.  For that, equal goals are one
    object: a definition goal is kept once per definition, parameter
    goals, level and strictness (`goals`, mapping that key to the goal),
    and the goals of a node's children are made once per goal and
    constructor (`kids`, mapping (id(goal), constructor) to them).  A node
    shared by several parents is thus checked once per goal.  The ids of
    node and goal make the key in `seen`; the node lives as long as the
    approximant, and `goals` holds the goal, so neither id is reused
    while it is a key."""

    def one(g: tuple) -> tuple:
        # a definition goal for (t, env) or for itself, as the one object
        while len(g) == 2:
            t, env = g
            if isinstance(t, TyVar):
                g = env[t.name]
            elif isinstance(t, Coind):
                g = (t.defname, [(p, env) for p in t.params],
                     eval_size(v, t.size), False)
            else:
                from .printer import print_type
                raise NonObservableType(
                    f"non-observable position: {print_type(t)}")
        return goals.setdefault((g[0], *map(id, g[1]), g[2], g[3]), g)

    todo = [(a, one(goal))]
    while todo:
        a, goal = todo.pop()
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
        key = (id(goal), a.con)
        if key in kids:
            child_goals = kids[key]
        else:  # the constructor's argument goals, None if it is not dn's
            entry = reg.constructor_entry(a.con)
            child_goals = None
            if entry is not None and entry[0].name == dn:
                env = {d.rec_var: one((dn, params, level - 1 if level != INF
                                       else INF, strict))}
                env.update(zip(d.params, params))
                child_goals = tuple(one((sigma, env))
                                    for sigma in entry[1].arg_types)
            kids[key] = child_goals
        children = a.children
        if child_goals is None or len(child_goals) != len(children):
            return False
        if children and (id(a), id(goal)) not in seen:
            seen.add((id(a), id(goal)))
            if len(children) == 1:
                todo.append((children[0], child_goals[0]))
            else:
                todo.extend(reversed(list(zip(children, child_goals))))
    return True


# ---------------------------------------------------------------------------
# Productivity harness

class DepthVerdict(_Record):
    _fields = ("depth", "ok", "nodes", "fuel_used", "fuel_limited", "approx")

    def __init__(self, depth: int, ok: bool, nodes: int, fuel_used: int,
                 fuel_limited: bool, approx: Approximant) -> None:
        self.depth = depth
        self.ok = ok
        self.nodes = nodes
        self.fuel_used = fuel_used
        self.fuel_limited = fuel_limited
        self.approx = approx


class ProductivityReport(_Record):
    _fields = ("verdicts", "chain_ok", "passed", "fail_at")

    def __init__(self, verdicts: list[DepthVerdict], chain_ok: bool,
                 passed: bool, fail_at: Optional[int]) -> None:
        self.verdicts = verdicts
        self.chain_ok = chain_ok
        self.passed = passed
        self.fail_at = fail_at

    def render(self) -> str:
        lines = []
        for d in self.verdicts:
            extra = " fuel-limited" if d.fuel_limited else ""
            lines.append(f"{d.depth}: {'ok' if d.ok else 'fail'} "
                         f"(nodes={d.nodes}, fuelUsed={d.fuel_used}){extra}")
        lines.append("PASS" if self.passed else f"FAIL at n={self.fail_at}")
        return "\n".join(lines)


def productivity_check(t: PlainTerm | _Thunk, tau: Type, reg: DefRegistry,
                       budget: EvalBudget | None = None) -> ProductivityReport:
    """Check approximants of depth 0 to `budget.depth` of t, a term or a
    fresh `closure`, against the valuation approximations of an
    observable coinductive type, and that deeper ones refine shallower.

    Depth n+1 grows from depth n (`_extend`) when neither walk can be
    pressured: depth n's walk ended with at least `fuel` gas left, and
    so would n+1's, with the steps the grown approximant counts.  Any other
    depth is observed from the root (`_approx`), as `approximant` does,
    and only then checked to refine the depth before, which an extension
    does by construction.  Membership keeps its goals and the (node,
    goal) pairs it verified from one depth to the next: goals below the
    root do not depend on the depth, as constructor arguments have no
    free size variables."""
    if budget is None:
        budget = EvalBudget()
    if not (isinstance(tau, Coind) and reg.definition(tau.defname).coinductive):
        raise NonObservableType("productivity needs a coinductive type")
    _need_observable(tau, reg)
    level_var = "$depth"
    tau_n = Coind(tau.defname, SVar(level_var), tau.params)
    fuel = budget.fuel
    verdicts: list[DepthVerdict] = []
    chain_ok = True
    fail_at: Optional[int] = None
    prev: Optional[DepthVerdict] = None
    root = t if type(t) is _Thunk else _Thunk(t)  # shared by all depths
    cuts: dict = {}
    tables: tuple = ({}, {}, set())
    for n in range(budget.depth + 1):
        tank = fuel * (n + 2)
        a = None
        if prev is not None and tank - fuel - prev.fuel_used >= fuel:
            a = _extend(prev.approx, cuts, fuel, reg, [tank - prev.fuel_used])
            if a is not None and tank - a.steps < fuel:
                a = None
        if a is None:
            a = _approx(root, n, fuel, reg, [tank], cuts)
            if prev is not None and not refines(a, prev.approx):
                chain_ok = False
                if fail_at is None:
                    fail_at = n
        ok = member(a, tau_n, reg, {level_var: n}, tables=tables)
        prev = DepthVerdict(n, ok, a.nodes, a.steps, a.limited, a)
        verdicts.append(prev)
        if not ok and fail_at is None:
            fail_at = n
    passed = chain_ok and all(d.ok for d in verdicts)
    return ProductivityReport(verdicts, chain_ok, passed,
                              None if passed else fail_at)
