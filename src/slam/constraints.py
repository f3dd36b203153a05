"""Size constraints (U, S) and the validity decision procedure.

A constraint is an acyclic definition map U (size variable -> size
expression) together with inequalities S; it is valid when every valuation
respecting U satisfies every inequality.  Validity is decided by
eliminating infinity, then refuting each inequality separately: the
conjunction of the U-equalities with the negated inequality is tested for
satisfiability over the naturals by naming each n-ary min or max by one
fresh existential variable, pushing a +1 above it down to its arms as
it is flattened, and searching the resulting disjuncts over difference
atoms.  The atoms live in one incremental shortest-path graph: a
disjunct arm is refuted when its few edges would close a negative
cycle, which is checked without writing the graph; only the arms the
search commits are added, and a model is read off the graph's exact
shortest distances.  An admitted arm is checked again only once the
potential of its tail falls or a node its check lowered gains an
out-edge.  The 3-CNF hardness encoder lives here too.
"""

from __future__ import annotations

import itertools
import re
from collections import deque
from heapq import heappop, heappush
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .sizes import INF, ExtNat, eval_size, simplify_infty
from .syntax import (
    INFTY, ONE, Coind, CyclicDefMap, SMax, SMin, SVar, Succ, SizeExpr, Type,
    Zero, _Frozen, _Record, _set, depth_first_order, fold, fresh_name,
    rebuilt, size_plus, smax, smin, sv,
)

__all__ = [
    "SizeConstraint", "Validity", "CyclicDefMap", "check_acyclic", "expand",
    "expand_type", "is_valid", "VarVar", "VarConst", "DifferenceAtom",
    "DifferenceGraph", "sat_atoms", "encode_3cnf", "parse_cnf_dimacs", "parse_constraint_file",
    "format_constraint",
]

Pair = tuple[SizeExpr, SizeExpr]


class SizeConstraint(_Record):
    """The pair (U, S); U maps size variables to size expressions."""
    _fields = ("u", "pairs")

    def __init__(self, u: Mapping[str, SizeExpr] | None = None,
                 pairs: Iterable[Pair] | None = None):
        self.u = dict(u or {})
        self.pairs = list(pairs or [])


def check_acyclic(u: Mapping[str, SizeExpr]) -> bool:
    """No cycle in the graph with an edge from i to each variable of u[i]."""
    return _topo_order(u) is not None


def _topo_order(u: Mapping[str, SizeExpr]) -> Optional[list[str]]:
    """Definition map keys with dependencies first, or None on a cycle."""
    order, cycle = depth_first_order(
        u, lambda i: [j for j in sv(u[i]) if j in u])
    return None if cycle else order


def expand(u: Mapping[str, SizeExpr], s: SizeExpr) -> SizeExpr:
    """Substitute away every variable of dom(u), recursively.

    Each variable's expansion is built once and shared."""
    return fold(s, rebuilt, defs=u)


def expand_type(u: Mapping[str, SizeExpr], t: Type) -> Type:
    """Expand u inside a type.

    Substitution is deliberately not capture-avoiding: an expansion that
    mentions a size variable bound by an enclosing forall refers to that
    binder (the binding was recorded while the quantifier was open).
    """
    def node(x, kids, _ctx):
        if type(x) is Coind:
            return Coind(x.defname, expand(u, x.size), tuple(kids))
        return rebuilt(x, kids)

    return fold(t, node)


# ---------------------------------------------------------------------------
# Difference atoms and their satisfiability

_ZERO_NODE = "$zero"


class VarVar(_Frozen):
    """x + c <= y (c may be negative)."""
    _fields = ("x", "c", "y")

    def __init__(self, x: str, c: int, y: str) -> None:
        _set(self, "x", x)
        _set(self, "c", c)
        _set(self, "y", y)
        # the difference-graph edge (w, u, b), meaning u <= w + b
        _set(self, "edge", (y, x, -c))


class VarConst(_Frozen):
    """x <= k or x >= k for a natural k."""
    _fields = ("x", "op", "k")

    def __init__(self, x: str, op: str, k: int) -> None:
        _set(self, "x", x)
        _set(self, "op", op)  # "<=" or ">="
        _set(self, "k", k)
        _set(self, "edge", (_ZERO_NODE, x, k) if op == "<=" else
             (x, _ZERO_NODE, -k))


DifferenceAtom = Union[VarVar, VarConst]

# the out-edges of a node not yet in a graph: x >= 0
_FRESH = ((_ZERO_NODE, 0),)
_UNCHANGED: Mapping[str, int] = MappingProxyType({})

# undo-trail entry kinds of DifferenceGraph
_POTENTIAL, _EDGE, _NODE = 0, 1, 2

# what `DifferenceGraph.admits` saw of an admitted check: (clock, tail,
# lowered nodes) for one atom, True for several
Watch = Union[tuple[int, str, Mapping[str, int]], bool]


def _lowered(pi: Mapping[str, int],
             adj: Mapping[str, Sequence[tuple[str, int]]],
             w: str, u: str, b: int) -> Optional[Mapping[str, int]]:
    """The potentials that a new edge w -> u of weight b lowers, or None
    when it closes a negative cycle.

    A node missing from `pi` and `adj` is new: potential 0 and one edge
    to the zero node.  If pi[w] + b >= pi[u] the edge changes nothing.
    Otherwise the relaxation runs from u, Dijkstra-style over the
    reduced costs of `pi` (every one of them >= 0), keeping tentative
    and settled distances in a map of its own; the edge closes a
    negative cycle exactly when the relaxation would lower w.
    """
    pu = pi.get(u, 0)
    du = pi.get(w, 0) + b
    if du >= pu:
        return _UNCHANGED
    if u == w:
        return None
    dist = {u: du}
    heap = [(du - pu, du, u)]
    while heap:
        _, ds, s = heappop(heap)
        if ds != dist[s]:
            continue  # settled through a shorter entry
        for t, c in adj.get(s, _FRESH):
            dt = ds + c
            if dt < pi[t]:
                if t == w:
                    return None  # negative cycle through w -> u
                if dt < dist.get(t, dt + 1):
                    dist[t] = dt
                    heappush(heap, (dt - pi[t], dt, t))
    return dist


class DifferenceGraph:
    """Difference atoms over the naturals as an incremental shortest-path
    graph.

    An atom x + c <= y is an edge y -> x of weight -c; constants are
    edges to and from a zero node, and every variable has an edge to the
    zero node of weight 0 (x >= 0).  The potential of a node is its exact
    shortest distance from a virtual source with a 0-weight edge to every
    node, so it is unique and a model is read off it directly.

    An edge w -> u of weight b that the potential already satisfies
    (pi[w] + b >= pi[u]) cannot close a cycle; one that lowers u relaxes
    only from u, over the reduced costs of the potential (Cotton &
    Maler, SAT 2006).  `extend` is the only writer: it adds the edge and
    the distances the relaxation returns, and puts every change on an
    undo trail, so a search can commit atoms and take them back.
    `admits` runs the relaxation of one atom on the side, and checks
    several by extending the graph and undoing.

    Watches.  `extend` ticks a clock and stamps a node with it twice
    over: when the node's potential falls and when it gains an out-edge.
    `undo` lowers no stamp, which errs on the safe side.  An atom
    w -> u, b admitted on a graph G with potential pi, where the
    relaxation lowered the nodes R, stays admitted on every G' that
    contains G and has a potential pi' <= pi (a later graph along one
    branch), as long as (i) pi'[w] = pi[w] and (ii) no node of R has
    gained an out-edge.  Proof: the atom is refused on G' when G' has a
    path P from u to w of weight < -b.  As pi' is feasible on G', every
    node x of P, at weight c_x along P from u, has
    pi[w] + b + c_x = pi'[w] + b + c_x < pi'[x] <= pi[x].  If all of P
    lies in G, this makes G refuse the atom.  Otherwise let p -> q be
    the first edge of P not in G: the part of P up to p lies in G, each
    of its nodes x has a distance from u in G of at most c_x, so the
    relaxation on G lowered it, and p is in R, against (ii).  A node new
    to G' is no new edge: the relaxation already gave a missing node its
    edge to the zero node.  `moved` tests (i) and (ii) by the stamps of
    w and of R.
    """

    def __init__(self) -> None:
        self._pi: dict[str, int] = {_ZERO_NODE: 0}
        self._adj: dict[str, list[tuple[str, int]]] = {_ZERO_NODE: []}
        self._trail: list[tuple[int, str, int]] = []
        self._fell: dict[str, int] = {}  # node -> clock of its last fall
        self._grew: dict[str, int] = {}  # and of its last new out-edge
        self._clock = 0

    def mark(self) -> int:
        """A point on the undo trail, for `undo`."""
        return len(self._trail)

    def undo(self, mark: int) -> None:
        """Take back every change made since `mark` was taken."""
        pi, adj, trail = self._pi, self._adj, self._trail
        while len(trail) > mark:
            kind, x, old = trail.pop()
            if kind == _POTENTIAL:
                pi[x] = old
            elif kind == _EDGE:
                adj[x].pop()
            else:
                del pi[x], adj[x]

    def extend(self, atoms: Iterable[DifferenceAtom]) -> bool:
        """Add atoms; on a negative cycle leave the graph as it was and
        return False."""
        pi, adj, trail, fell = self._pi, self._adj, self._trail, self._fell
        mark = len(trail)
        self._clock = clock = self._clock + 1
        for a in atoms:
            w, u, b = a.edge
            for x in (w, u):
                if x not in pi:
                    pi[x] = 0  # reached from the source only
                    adj[x] = list(_FRESH)
                    trail.append((_NODE, x, 0))
            lowered = _lowered(pi, adj, w, u, b)
            if lowered is None:
                self.undo(mark)
                return False
            for s, d in lowered.items():
                trail.append((_POTENTIAL, s, pi[s]))
                pi[s] = d
                fell[s] = clock
            adj[w].append((u, b))
            trail.append((_EDGE, w, 0))
            self._grew[w] = clock
        return True

    def admits(self, atoms: Sequence[DifferenceAtom]) -> Optional[Watch]:
        """Whether the atoms can be added: None if not, else the watch of
        this check.  The graph is left as it was.

        The watch of one atom w -> u is (clock, w, R): the clock of the
        check, the tail, and the nodes R the relaxation lowered (none for
        the O(1) accept); `moved` says when it may no longer hold.
        Several atoms give True, a watch that never holds.
        """
        if len(atoms) == 1:  # nearly every arm: only read
            w, u, b = atoms[0].edge
            reach = _lowered(self._pi, self._adj, w, u, b)
            return None if reach is None else (self._clock, w, reach)
        m = self.mark()
        if not self.extend(atoms):
            return None
        self.undo(m)
        return True

    def moved(self, watch: Watch) -> bool:
        """Whether the graph may have changed where the check that gave
        `watch` looked: the potential of its tail fell or a node of its R
        gained an out-edge since, or it is a watch of several atoms."""
        if watch is True:
            return True
        clock, w, reach = watch
        if self._fell.get(w, 0) > clock:
            return True
        grew = self._grew
        for x in reach:
            if grew.get(x, 0) > clock:
                return True
        return False

    def moved_since(self, mark: int) -> set[str]:
        """The nodes whose potential fell or that gained an out-edge since
        `mark`."""
        return {x for kind, x, _ in self._trail[mark:] if kind != _NODE}

    def model(self) -> dict[str, int]:
        """The shortest-distance model, variables in order of appearance."""
        base = self._pi[_ZERO_NODE]
        return {n: d - base for n, d in self._pi.items() if n != _ZERO_NODE}


def sat_atoms(atoms: Sequence[DifferenceAtom]) -> Optional[dict[str, int]]:
    """Solve difference atoms over the naturals.

    Satisfiable iff their difference graph has no negative cycle, in
    which case the model is read off the shortest distances.
    """
    g = DifferenceGraph()
    return g.model() if g.extend(atoms) else None


# ---------------------------------------------------------------------------
# Refutation of a single inequality

def _leaf(lhs: SizeExpr, rhs: SizeExpr) -> Optional[DifferenceAtom] | bool:
    """Convert x+a <= y+b into a difference atom.

    Returns True for a trivially true atom, False for a trivially false
    one, and a DifferenceAtom otherwise.
    """
    x, a = _split(lhs)
    y, b = _split(rhs)
    if x is None and y is None:
        return a <= b
    if x is not None and y is not None:
        if x == y:
            return a <= b
        return VarVar(x, a - b, y)
    if x is not None:  # x + a <= b
        k = b - a
        return VarConst(x, "<=", k) if k >= 0 else False
    k = a - b  # a <= y + b
    return VarConst(y, ">=", k) if k > 0 else True


def _split(s: SizeExpr) -> tuple[Optional[str], int]:
    n = 0
    if type(s) is Succ:
        n, s = s.n, s.base
    if isinstance(s, Zero):
        return None, n
    if isinstance(s, SVar):
        return s.name, n
    raise TypeError(f"not a successor chain: {s!r}")


class _Disj(_Record):
    """One disjunctive split: some arm must relate to the existential.

    kind "le" means arm <= n (from min(arms) <= c, with n <= c already
    recorded); kind "ge" means n <= arm (from c <= max(arms)).  Each
    arm's absorbed atom/split deltas are cached for reuse; `fresh` names
    the existentials they introduce, one per maximal min or max.
    """
    _fields = ("kind", "n", "arms", "deltas", "fresh")

    def __init__(self, kind: str, n: str, arms: tuple[SizeExpr, ...],
                 fresh: Iterator[str]) -> None:
        self.kind = kind
        self.n = n
        self.arms = arms
        self.deltas = [()] * len(arms)
        self.fresh = fresh

    def delta(self, i: int):
        if self.deltas[i] == ():
            pend = [(self.arms[i], SVar(self.n))] if self.kind == "le" \
                else [(SVar(self.n), self.arms[i])]
            self.deltas[i] = _absorb(pend, self.fresh)
        return self.deltas[i]


def _flatten(s: SizeExpr, cls) -> list[SizeExpr]:
    """The arms of the maximal n-ary node s of class cls, left to right.
    The walk goes through each successor run over a node of cls and adds
    the run to every arm below it: max(a, b)+1 has the arms a+1, b+1."""
    arms: list[SizeExpr] = []
    stack = [(s, 0)]
    while stack:
        x, n = stack.pop()
        if type(x) is Succ and type(x.base) is cls:
            x, n = x.base, n + x.n
        if type(x) is cls:
            stack.append((x.right, n))
            stack.append((x.left, n))
        else:
            arms.append(size_plus(x, n))
    return arms


def _absorb(pending: list[Pair], fresh: Iterator[str]):
    """Absorb the conjunctive structure of oo-free inequalities.

    Returns (atoms, disjs) or None on a trivially false leaf.  Each
    maximal n-ary min or max is flattened once and named by one fresh
    existential n, which the other side bounds: max on the left and min
    on the right relate every arm to n; the other two split over them.
    A successor run over a min or max counts as that min or max, and
    `_flatten` adds it to each arm, so +1 is pushed below min and max
    here, one node at a time, and no pass of its own does it first.
    """
    work = deque(pending)
    atoms: list[DifferenceAtom] = []
    disjs: list[_Disj] = []
    while work:
        lhs, rhs = work.popleft()
        # a successor run over a min or max counts as that min or max
        left = type(lhs.base) if type(lhs) is Succ else type(lhs)
        right = type(rhs.base) if type(rhs) is Succ else type(rhs)
        if left is SMax or right is SMin:
            n = SVar(next(fresh))
            if left is SMax:  # every arm <= n <= rhs
                pend = [(a, n) for a in _flatten(lhs, SMax)] + [(n, rhs)]
            else:  # lhs <= n <= every arm
                pend = [(lhs, n)] + [(n, a) for a in _flatten(rhs, SMin)]
            work.extendleft(reversed(pend))  # taken in the order of pend
        elif left is SMin:
            n = next(fresh)
            work.appendleft((SVar(n), rhs))
            disjs.append(_Disj("le", n, tuple(_flatten(lhs, SMin)), fresh))
        elif right is SMax:
            n = next(fresh)
            work.appendleft((lhs, SVar(n)))
            disjs.append(_Disj("ge", n, tuple(_flatten(rhs, SMax)), fresh))
        else:
            atom = _leaf(lhs, rhs)
            if atom is False:
                return None
            if atom is not True:
                atoms.append(atom)
    return atoms, disjs


def _sat_conjunction(ineqs: list[Pair]) -> Optional[dict[str, int]]:
    """Satisfiability over the naturals of a conjunction s1 <= s2 of
    oo-free inequalities.

    `_absorb` takes the pairs as they are, pushing each +1 below a min
    or max as it flattens the node, and names each maximal min or max by
    one fresh existential, ?e1, ?e2, ... afresh in each call.  The atoms
    without a choice go into one difference graph, and `_solve` searches
    the disjuncts on it.
    """
    fresh = (f"?e{k}" for k in itertools.count(1))
    state = _absorb(ineqs, fresh)
    if state is None:
        return None
    atoms, disjs = state
    g = DifferenceGraph()
    if not g.extend(atoms):
        return None
    return _solve(g, _all_arms(disjs))


class _Split:
    """A split on the search's branch: its arms not yet refused, in order,
    the watch of each arm's last check (True before the first), and
    whether a node that one of them watches has moved since.  The search
    never changes a split except to set `dirty`."""
    __slots__ = ("disj", "live", "watches", "dirty")

    def __init__(self, disj: _Disj, live: list[int],
                 watches: list[Watch]) -> None:
        self.disj = disj
        self.live = live
        self.watches = watches
        self.dirty = True in watches


def _all_arms(disjs: list[_Disj]) -> list[_Split]:
    return [_Split(d, list(range(len(d.arms))), [True] * len(d.arms))
            for d in disjs]


def _solve(g: DifferenceGraph,
           splits: list[_Split]) -> Optional[dict[str, int]]:
    """Search the disjuncts over the committed atoms in `g`.

    An arm is feasible when `g` admits its atoms, and `g` stays as it was.
    Each split carries its arms not yet refused on the current branch:
    `g` only grows along a branch, so a refused arm stays refused.  The
    search commits forced (single-arm) splits to a fixpoint, then
    branches on the smallest split, arms in order: `stack` holds the
    split, an iterator over its live arms, the mark of `g`, the length
    of `log` and the other splits.  After a branch or a conflict, the
    innermost entry with an arm left undoes `g` to its mark and commits
    that arm.  A model is read off `g` once no split is left.  The search
    owns `g` and `splits`.

    An admitted arm stays admitted until `g` moves where its check looked
    (see `DifferenceGraph`).  `watchers` maps a node to the clean splits
    whose arms watch it; a commit reads the nodes it moved off the trail
    and marks their watchers dirty, dropping them from the map.  A pass
    skips a clean split, and in a dirty one checks again only the arms
    whose watch has moved.  A split saved on the stack was clean at its
    mark or is marked dirty, so after `undo(mark)` a clean one's watches
    hold again.  `log` holds the `watchers` list of each registration, so
    going back to a mark also drops what the branch registered.
    """
    watchers: dict[str, list[_Split]] = {}
    log: list[list[_Split]] = []
    moved, admits = g.moved, g.admits
    watchers_of, note = watchers.setdefault, log.append

    def commit(d: _Disj, i: int) -> list[_Split]:
        da, dd = d.delta(i)
        m = g.mark()
        g.extend(da)  # admitted in the last pass, on g as it is now
        for x in g.moved_since(m):
            for e in watchers.pop(x, ()):
                e.dirty = True
        return _all_arms(dd)

    stack: list[tuple[_Disj, Iterator[int], int, int, list[_Split]]] = []
    while True:
        k = 0
        while k < len(splits):
            e = splits[k]
            if not e.dirty:
                k += 1
                continue
            d, live, watches = e.disj, [], []
            for i, w in zip(e.live, e.watches):
                if moved(w) and ((delta := d.delta(i)) is None
                                 or not (w := admits(delta[0]))):
                    continue  # refused
                live.append(i)
                watches.append(w)
            if not live:
                break  # a conflict
            if len(live) == 1:
                del splits[k]
                splits += commit(d, live[0])
                k = 0  # the graph grew: pass again over every split
                continue
            splits[k] = e = _Split(d, live, watches)
            if not e.dirty:
                for _, w, reach in watches:
                    for x in (w, *reach):
                        (to := watchers_of(x, [])).append(e)
                        note(to)
            k += 1
        else:  # no conflict: done, or branch
            if not splits:
                return g.model()
            k = min(range(len(splits)), key=lambda j: len(splits[j].live))
            e = splits.pop(k)
            stack.append((e.disj, iter(e.live), g.mark(), len(log), splits))
        while stack and (i := next(stack[-1][1], None)) is None:
            stack.pop()
        if not stack:
            return None
        d, _, mark, logged, rest = stack[-1]
        g.undo(mark)
        while len(log) > logged:
            log.pop().pop()
        splits = rest + commit(d, i)


# ---------------------------------------------------------------------------
# Validity

class Validity(_Record):
    _fields = ("valid", "witness", "violated")

    def __init__(self, valid: bool,
                 witness: Optional[dict[str, ExtNat]] = None,
                 violated: Optional[Pair] = None) -> None:
        self.valid = valid
        self.witness = witness
        self.violated = violated

    def __bool__(self) -> bool:
        return self.valid


def is_valid(c: SizeConstraint) -> Validity:
    """Decide validity of (U, S); an Invalid result carries a witness
    valuation that respects U and violates `violated`."""
    order = _topo_order(c.u)
    if order is None:
        raise CyclicDefMap(f"cyclic definition map: {sorted(c.u)}")

    # remove oo from U in one pass, dependencies first: each entry is
    # expanded under the variables already found to be oo
    inf: dict[str, SizeExpr] = {}
    finite: dict[str, SizeExpr] = {}

    def drop(s: SizeExpr) -> SizeExpr:
        return simplify_infty(expand(inf, s) if inf else s)

    for i in order:
        s = drop(c.u[i])
        if s == INFTY:
            inf[i] = INFTY
        else:
            finite[i] = s
    u = {i: finite[i] for i in c.u if i in finite}  # `deps` reads positions
    pairs = [((drop(a), drop(b)), (a, b)) for a, b in c.pairs]

    kept: list[tuple[Pair, Pair]] = []
    for (a, b), orig in pairs:
        if b == INFTY:
            continue  # s <= oo always holds
        if a == INFTY:
            # every valuation keeps b finite, so the pair fails at once
            witness = _assemble_witness(c, order, {}, inf)
            return Validity(False, witness, orig)
        kept.append(((a, b), orig))

    # for each key of u: its position in u and the keys its value uses
    deps = {i: (k, [j for j in sv(s) if j in u])
            for k, (i, s) in enumerate(u.items())}
    for (a, b), orig in kept:
        eqs = _relevant_equalities(u, deps, sv(a) | sv(b)) if u else []
        conj = eqs + [(Succ(b), a)]  # negation: a >= b + 1
        model = _sat_conjunction(conj)
        if model is not None:
            witness = _assemble_witness(c, order, model, inf)
            return Validity(False, witness, orig)
    return Validity(True)


def _relevant_equalities(u: Mapping[str, SizeExpr],
                         deps: Mapping[str, tuple[int, list[str]]],
                         start: frozenset[str]) -> list[Pair]:
    """Equalities i = u(i) for variables reachable from `start` through u,
    in the order of u's keys; `deps` maps each key of u to its position
    in u and the keys its value uses.

    Unreachable entries cannot affect satisfiability (the map is acyclic,
    so any model extends to them) and would only slow the search down.
    """
    reach, _ = depth_first_order([v for v in start if v in u],
                                 lambda i: deps[i][1])
    eqs: list[Pair] = []
    for i in sorted(reach, key=lambda i: deps[i][0]):
        eqs.append((SVar(i), u[i]))
        eqs.append((u[i], SVar(i)))
    return eqs


def _assemble_witness(c: SizeConstraint, order: list[str],
                      model: dict[str, int],
                      inf_vars: Iterable[str]) -> dict[str, ExtNat]:
    values: dict[str, ExtNat] = {}
    for name, v in model.items():
        if not name.startswith("?e"):
            values[name] = v
    for name in inf_vars:
        values[name] = INF
    mentioned: set[str] = set()
    for a, b in c.pairs:
        mentioned |= sv(a) | sv(b)
    for s in c.u.values():
        mentioned |= sv(s)
    for name in sorted(mentioned):
        values.setdefault(name, 0)
    # force exact agreement with the original definition map
    for i in order:
        values[i] = eval_size(values, c.u[i])
    return values


# ---------------------------------------------------------------------------
# 3-CNF hardness encoder

Literal = tuple[str, bool]
Clause = Sequence[Literal]


def _negvar(x: str) -> str:
    return x + "'"


def encode_3cnf(clauses: Sequence[Clause]) -> tuple[SizeExpr, SizeExpr]:
    """Encode a CNF formula as a pair (s1, s2) of size expressions.

    The formula is satisfiable exactly when s1 <= s2 holds under some
    valuation; equivalently it is unsatisfiable exactly when s1 >= s2 + 1
    is valid.  Negated literals use primed copies of the variables.
    """
    if not clauses:
        raise ValueError("empty formula")
    variables: list[str] = []
    for cl in clauses:
        for x, _pos in cl:
            if x not in variables:
                variables.append(x)

    def lit(l: Literal) -> SizeExpr:
        x, pos = l
        return SVar(x) if pos else SVar(_negvar(x))

    s1_parts: list[SizeExpr] = []
    for cl in clauses:
        if not cl:
            raise ValueError("empty clause")
        s1_parts.append(Succ(smin(*(lit(l) for l in cl))) if len(cl) > 1
                        else Succ(lit(cl[0])))
    s1_parts.append(ONE)
    for x in variables:
        s1_parts.append(Succ(SMin(SVar(x), SVar(_negvar(x)))))
    s2_parts: list[SizeExpr] = [ONE]
    for x in variables:
        s2_parts.append(SMax(SVar(x), SVar(_negvar(x))))
    return smax(*s1_parts), smin(*s2_parts)


def parse_cnf_dimacs(src: str) -> list[list[Literal]]:
    """Parse DIMACS cnf; variable k becomes name 'xk'.

    A line starting with '%' ends the clause list (SATLIB files end in
    '%' and '0').  Raises ParseError at a token that is not an integer
    and at a 0 that ends an empty clause, which would make the formula
    unsatisfiable.
    """
    from .parser import ParseError

    clauses: list[list[Literal]] = []
    current: list[Literal] = []
    for lineno, line in enumerate(src.splitlines(), 1):
        if line.strip().startswith("%"):
            break
        if line.strip().startswith(("c", "p")):
            continue
        for m in re.finditer(r"\S+", line):
            try:
                n = int(m.group())
            except ValueError:
                raise ParseError(f"expected an integer literal, got "
                                 f"{m.group()!r}", lineno,
                                 m.start() + 1) from None
            if n == 0:
                if not current:
                    raise ParseError("empty clause", lineno, m.start() + 1)
                clauses.append(current)
                current = []
            else:
                current.append((f"x{abs(n)}", n > 0))
    if current:
        clauses.append(current)
    return clauses


# ---------------------------------------------------------------------------
# Constraint files

def parse_constraint_file(src: str) -> SizeConstraint:
    """Parse `let i = s;` and `assert s1 <= s2;` lines."""
    from .parser import _P

    p = _P(src)
    c = SizeConstraint()
    while t := p.toks[p.pos]:
        p.pos += 1
        if t == "let":
            name = p.name("size variable")
            if name in c.u:
                raise p.fail(f"duplicate let for {name}")
            p.eat("=")
            c.u[name] = p.size()
        elif t == "assert":
            a = p.size()
            p.eat("<=")
            c.pairs.append((a, p.size()))
        else:
            raise p.fail("expected 'let' or 'assert'", p.pos - 1)
        p.eat(";")
    return c


def format_constraint(c: SizeConstraint) -> str:
    """`let` and `assert` lines that `parse_constraint_file` reads back.

    The size variables typing makes up (`$1`, `$s2`, `?e`) are no words
    of that syntax: each is written with `_` for its first character
    (`_1`, `_s2`, `_e`), or as the next fresh name if that is taken."""
    from .printer import _print_size

    names = set(c.u).union(*map(sv, c.u.values()),
                           *(sv(a) | sv(b) for a, b in c.pairs))
    ren: dict[str, str] = {}
    for x in sorted(names):
        if x[0] in "$?":
            ren[x] = fresh_name("_" + x[1:], names.union(ren.values()))

    def show(s: SizeExpr) -> str:
        return fold(s, lambda x, kids, _c: ren.get(x.name, x.name)
                    if type(x) is SVar else _print_size(x, kids, _c))

    lines = [f"let {ren.get(i, i)} = {show(s)};" for i, s in c.u.items()]
    lines += [f"assert {show(a)} <= {show(b)};" for a, b in c.pairs]
    return "\n".join(lines) + "\n"
