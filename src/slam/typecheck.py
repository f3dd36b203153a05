"""Minimal-type inference and type checking.

Inference computes a triple (U, S, tau): an acyclic map of size-variable
definitions, a set of size inequalities, and a type.  The triple's
constraints are valid exactly when the term has a minimal type, which is
then obtained by expanding U inside tau.  Checking a candidate type
reduces to inferring the minimal type and deciding one subtyping.

U exists to share size expressions: substituting them eagerly into types
and inequalities can blow up exponentially (instantiate a quantified type
whose body mentions its variable twice, and repeat).  The price of
sharing is that a quantified inferred type may reference U-entries that
mention its own binder.  Such binders are tracked as "linear": they are
consumed at most once, and consuming one either binds it directly in U
(when no recorded inequality mentions it, so nothing universal is lost)
or copies the slice of U that depends on it (keeping the inequalities
universally quantified while the returned type gets the instantiated
copy).

A constructor argument is matched against its declared shape by the
subtyping walk itself, with the shape's type variables as holes where
the instances are read (`decompose`), so each quantifier of the shape is
aligned once.

`infer` names every typing problem apart (see there), so generalisation
and cofix check nothing against the context; only the fix premise reads
it, for a variable that an annotation names rather than binds.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Optional

from .constraints import SizeConstraint, expand, expand_type, is_valid
from .printer import print_term, print_type
from .sizes import (
    INF, SizeError, overline, size_ge_const, size_value, underline,
)
from .subtyping import (
    BOT, Bot, chgtgt, gen_shape_constraints, gen_sub_constraints, join,
    subtype, tgt,
)
from .syntax import (
    INFTY, ONE, ZERO, App, Arrow, Case, Coind, Cofix, Definition, DefRegistry,
    Fix, Forall, Infty, Lam, SMax, SMin, SVar, SizeApp, SizeExpr, SizeLam,
    Succ, Term, TyVar, Type, Var, Con, Zero, _Record, depth_first_order, fold,
    forall_binders, fsv, nodes, rebuilt, size_const, smax, smin,
    rename_binders_apart, size_names, subst_type_sizes, sv,
    uniquify_size_binders,
)

__all__ = [
    "InferenceTriple", "infer", "minimal_type", "check", "Decomposed",
]

Pair = tuple[SizeExpr, SizeExpr]
Context = Mapping[str, Type]

_FALSE_PAIR: Pair = (ONE, ZERO)


class InferenceTriple(_Record):
    _fields = ("u", "pairs", "tau", "failed", "trail")

    def __init__(self, u: dict[str, SizeExpr], pairs: list[Pair],
                 tau: Optional[Type], failed: bool,
                 trail: tuple[str, ...] = ()) -> None:
        self.u = u
        self.pairs = pairs
        self.tau = tau
        self.failed = failed
        self.trail = trail

    @property
    def constraint(self) -> SizeConstraint:
        return SizeConstraint(self.u, self.pairs)


class Decomposed(_Record):
    """A constructor-argument type matched against its declared shape."""
    _fields = ("size", "rec_params", "param_insts", "pairs")

    def __init__(self, size: Optional[SizeExpr], rec_params: Optional[tuple],
                 param_insts: dict[str, Type], pairs: list[Pair]) -> None:
        self.size = size  # joined size of the recursive instances
        self.rec_params = rec_params  # their joined parameters
        self.param_insts = param_insts  # joined instance per parameter var
        self.pairs = pairs  # size inequalities outside the variables


class _Infer:
    """One inference run; also serves as the binder environment for
    subtyping alignment (attributes `u`, `linear`, `fresh_binder`)."""

    def __init__(self, reg: DefRegistry, u0: Mapping[str, SizeExpr]):
        self.reg = reg
        self.u: dict[str, SizeExpr] = dict(u0)
        self.gamma: dict[str, Type] = {}
        self.pairs: list[Pair] = []
        self.linear: set[str] = set()
        self._counter = itertools.count(1)
        self.trail: list[str] = []

    # -- fresh names ----------------------------------------------------

    def fresh_size(self) -> str:
        return f"$s{next(self._counter)}"

    def fresh_binder(self) -> str:
        return f"$b{next(self._counter)}"

    def fail(self, rule: str, t: Term, why: str) -> None:
        at = print_term(t)
        if len(at) > 60:
            at = at[:57] + "..."
        self.trail.append(f"({rule}) {why}, at: {at}")
        return None

    # -- constraint helpers ----------------------------------------------

    def add_sub(self, a: Type, b: Type) -> None:
        ps = gen_sub_constraints(a, b, self.reg, env=self)
        if ps is None:
            self.pairs.append(_FALSE_PAIR)
        else:
            self.pairs.extend(ps)

    def _u_mentions(self, name: str) -> bool:
        return any(name in sv(s) for s in self.u.values())

    def _dependents(self, name: str) -> list[str]:
        """U-variables whose expansion mentions `name`."""
        users: dict[str, list[str]] = {}
        for v, s in self.u.items():
            for w in sv(s):
                users.setdefault(w, []).append(v)
        hit = set(depth_first_order(users.get(name, ()),
                                    lambda v: users.get(v, ()))[0])
        return [v for v in self.u if v in hit]

    def _fsv_u(self, x) -> set[str]:
        """Free size variables of x after expansion through u."""
        reach, _ = depth_first_order(
            fsv(x), lambda v: sv(self.u[v]) if v in self.u else ())
        return {v for v in reach if v not in self.u}

    # -- linear binder management ----------------------------------------

    def store_type(self, ty: Type) -> None:
        """Called when a type is put into the context.

        Context types may be looked up many times, which breaks the
        one-consumer assumption for linear binders.  Binders without
        hidden U-references are simply demoted to plain (renameable)
        binders; the rare binder with hidden references stays linear and
        a second consumption fails the inference rather than guess.
        """
        for x in nodes(ty):
            if type(x) is Forall and x.var in self.linear \
                    and not self._u_mentions(x.var):
                self.linear.discard(x.var)

    def instantiate(self, binder: str, body: Type, s: SizeExpr) -> Optional[Type]:
        """Consume a quantifier: the returned body sees binder = s, while
        inequalities recorded under the quantifier stay universal."""
        if binder not in self.linear:
            r = self.fresh_size()
            self.u[r] = s
            return subst_type_sizes(body, {binder: SVar(r)})
        if binder in self.u:
            return None  # consumed before; cannot instantiate again soundly
        self.linear.discard(binder)
        dep = self._dependents(binder)
        touched = set(dep) | {binder}
        if not any((sv(a) | sv(b)) & touched for a, b in self.pairs):
            self.u[binder] = s
            return body
        # inequalities quantify over the binder: instantiate a copy instead
        ren = {binder: SVar(self.fresh_size())}
        for d in dep:
            ren[d] = SVar(self.fresh_size())
        for d in dep:
            self.u[ren[d].name] = expand(ren, self.u[d])
        self.u[ren[binder].name] = s
        return subst_type_sizes(body, ren)

    # -- constructor decomposition ----------------------------------------
    #
    # An argument type theta is matched against the declared shape sigma
    # of its position, reading off the instances of the recursive variable
    # and of the parameters.  Most positions are a bare variable (`Nat`'s
    # `succ : Nat -> Nat`); those are answered by `_var_arg` alone.

    def _var_arg(self, th: Type, sg: TyVar, d: Definition
                 ) -> Optional[Decomposed]:
        """th matched at a position declared as the type variable sg of d:
        the recursive variable takes an instance of d, a parameter any
        type, and Bot, the least type, stands for either and imposes
        nothing."""
        if sg.name == d.rec_var:
            if isinstance(th, Bot):
                return Decomposed(None, None, {}, [])
            if isinstance(th, Coind) and th.defname == d.name:
                return Decomposed(th.size, th.params, {}, [])
            return None
        if sg.name in d.params:
            return Decomposed(None, None,
                              {} if isinstance(th, Bot) else {sg.name: th}, [])
        return None

    def decompose(self, theta: Type, sigma: Type, dname: str) -> Optional[Decomposed]:
        """theta matched against sigma, the declared shape of an argument
        position of a constructor of dname, or None when it does not fit.

        One subtyping walk of theta <= sigma hands `_var_arg` the part of
        theta met at each type variable of sigma, and the instances of a
        variable are joined as they are read; `pairs` are the size
        inequalities the walk needs everywhere else.  An instance that
        mentions, through U, a binder aligned above it would let that
        binder escape its scope: it is expanded, and the binder replaced
        by its bound (see `_bounded`)."""
        d = self.reg.definition(dname)
        if isinstance(sigma, TyVar):
            return self._var_arg(theta, sigma, d)
        if not self.linear.isdisjoint(forall_binders(sigma)):
            # a binder of the shape is not the term's linear binder of
            # the same name, which `_align` would alias through U
            sigma = rename_binders_apart(sigma, self.linear)
        insts: dict[str, Type] = {}

        def hole(th: Type, x: TyVar, bound: tuple[str, ...]) -> bool:
            if bound and not self._fsv_u(th).isdisjoint(bound):
                th = _bounded(expand_type(self.u, th), bound, self.reg)
            if self._var_arg(th, x, d) is None:
                return False
            if isinstance(th, Bot):
                return True
            acc = join(insts.get(x.name, BOT), th, self.reg, env=self)
            insts[x.name] = acc
            return acc is not None

        pairs = gen_shape_constraints(theta, sigma, self.reg, self, hole)
        if pairs is None:
            return None
        rec = insts.pop(d.rec_var, None)
        if rec is None:
            return Decomposed(None, None, insts, pairs)
        return Decomposed(rec.size, rec.params, insts, pairs)

    # -- peeled sizes -------------------------------------------------------

    def _overline_u(self, s: SizeExpr) -> Optional[SizeExpr]:
        try:
            return overline(s)
        except SizeError:
            pass
        try:
            return overline(self._expand_superfluous(s))
        except SizeError:
            return None

    def _expand_superfluous(self, s: SizeExpr) -> SizeExpr:
        """Substitute U-definitions at occurrences not under a successor."""
        return fold(s, rebuilt, into=(SMin, SMax), defs=self.u)

    # -- the algorithm -----------------------------------------------------
    #
    # The rules are generators: each premise is yielded as a term and its
    # type (None on failure) is sent back.  `infer` runs them on a stack of
    # its own, so the depth of the term costs heap, not Python stack.  The
    # context is one dict of the run, and only `_under` extends and
    # restores it, so a binder costs the same at any depth.

    def infer(self, t: Term, gamma: dict[str, Type]) -> Optional[Type]:
        self.gamma = gamma
        stack: list = []
        rule = self._infer(t)
        value = None
        while True:
            try:
                premise = rule.send(value)
            except StopIteration as done:
                if not stack:
                    return done.value
                rule = stack.pop()
                value = done.value
                continue
            stack.append(rule)
            rule = self._infer(premise)
            value = None

    def _under(self, binds: dict[str, Type], body: Term):
        """The premise body in the context extended by binds (Γ, x : T);
        each name gets back what it had before."""
        gamma = self.gamma
        before = [(x, gamma.get(x)) for x in binds]
        gamma.update(binds)
        ty = yield body
        for x, old in before:
            if old is None:
                del gamma[x]
            else:
                gamma[x] = old
        return ty

    def _infer(self, t: Term):
        if isinstance(t, Var):
            ty = self.gamma.get(t.name)
            if ty is None:
                return self.fail("ax", t, f"unbound variable {t.name}")
            return ty
        if isinstance(t, Con):
            sig = self.reg.constructor(t.name)
            if sig is None:
                return self.fail("con", t, f"unknown constructor {t.name}")
            if sig.arg_types:
                return self.fail("con", t,
                                 f"constructor {t.name} is not fully applied")
            return (yield from self.con_rule(t.name, [], t))
        if isinstance(t, App):
            head = t
            spine: list[Term] = []
            while isinstance(head, App):
                spine.append(head.arg)
                head = head.fun
            spine.reverse()
            if isinstance(head, Con):
                sig = self.reg.constructor(head.name)
                if sig is None:
                    return self.fail("con", t,
                                     f"unknown constructor {head.name}")
                ar = len(sig.arg_types)
                if len(spine) < ar:
                    return self.fail(
                        "con", t, f"constructor {head.name} expects {ar} "
                        f"argument(s), got {len(spine)}")
                res = yield from self.con_rule(head.name, spine[:ar], t)
                rest = spine[ar:]
            else:
                res = yield head
                rest = spine
            for arg in rest:
                if res is None:
                    return None
                res = yield from self.app_rule(res, arg, t)
            return res
        if isinstance(t, Lam):
            body = yield from self._under({t.var: t.ty}, t.body)
            return None if body is None else Arrow(t.ty, body)
        if isinstance(t, SizeApp):
            fun = yield t.fun
            if fun is None:
                return None
            if not isinstance(fun, Forall):
                return self.fail("inst", t, "size application needs a "
                                 "quantified type, got " + print_type(fun))
            out = self.instantiate(fun.var, fun.body, t.size)
            if out is None:
                return self.fail("inst", t,
                                 "quantifier was already instantiated")
            return out
        if isinstance(t, SizeLam):
            body = yield t.body
            if body is None:
                return None
            self.linear.add(t.var)
            return Forall(t.var, body)
        if isinstance(t, Case):
            return (yield from self.case_rule(t))
        if isinstance(t, Fix):
            return (yield from self.fix_rule(t))
        if isinstance(t, Cofix):
            return (yield from self.cofix_rule(t))
        raise TypeError(t)

    def app_rule(self, fun_ty: Type, arg: Term, at: Term):
        if not isinstance(fun_ty, Arrow):
            return self.fail("app", at,
                             "application of a non-arrow type "
                             + print_type(fun_ty))
        arg_ty = yield arg
        if arg_ty is None:
            return None
        self.add_sub(arg_ty, fun_ty.dom)
        return fun_ty.cod

    def con_rule(self, cname: str, args: list[Term], at: Term):
        entry = self.reg.constructor_entry(cname)
        assert entry is not None
        d, sig = entry
        neutral: SizeExpr = INFTY if d.coinductive else ZERO
        sizes: list[SizeExpr] = []
        per_arg: list[Decomposed] = []
        for arg, sigma in zip(args, sig.arg_types):
            theta = yield arg
            if theta is None:
                return None
            dec = self.decompose(theta, sigma, d.name)
            if dec is None:
                return self.fail(
                    "con", at, f"argument of {cname} does not match its "
                    f"declared shape (got {print_type(theta)})")
            per_arg.append(dec)
            sizes.append(dec.size if dec.size is not None else neutral)
            self.pairs.extend(dec.pairs)
        taus: list[Type] = []
        for j, bname in enumerate(d.params):
            acc: Type = BOT
            for dec in per_arg:
                for cand in ([dec.rec_params[j]] if dec.rec_params else []) \
                        + ([dec.param_insts[bname]]
                           if bname in dec.param_insts else []):
                    acc = join(acc, cand, self.reg, env=self)
                    if acc is None:
                        return self.fail("con", at,
                                         "parameter instances have no join")
            taus.append(acc)
        agg = (smin(*sizes) if d.coinductive else smax(*sizes)) \
            if sizes else neutral
        return Coind(d.name, Succ(agg), tuple(taus))

    def case_rule(self, t: Case):
        scrut = yield t.scrutinee
        if scrut is None:
            return None
        if not isinstance(scrut, Coind):
            return self.fail("case", t, "scrutinee has non-data type "
                             + print_type(scrut))
        d = self.reg.definition(scrut.defname)
        if not t.branches:
            return self.fail("case", t, "empty case")
        seen: set[str] = set()
        for b in t.branches:
            entry = self.reg.constructor_entry(b.con)
            if entry is None or entry[0].name != d.name:
                return self.fail("case", t,
                                 f"branch {b.con} is not a constructor of {d.name}")
            if b.con in seen or len(entry[1].arg_types) != len(b.binders):
                return self.fail("case", t, f"malformed branch for {b.con}")
            seen.add(b.con)
        if d.coinductive:
            if not size_ge_const(self.u, scrut.size, 1):
                return self.fail("case", t,
                                 "coinductive scrutinee size is not >= 1")
            peeled = self._overline_u(scrut.size)
            if peeled is None:
                return self.fail("case", t,
                                 "cannot peel the scrutinee size")
        else:
            peeled = underline(scrut.size)
        iv = self.fresh_size()
        self.u[iv] = peeled
        rec_inst = Coind(d.name, SVar(iv), scrut.params)
        subst_map: dict[str, Type] = {d.rec_var: rec_inst}
        subst_map.update({bn: p for bn, p in zip(d.params, scrut.params)})
        result: Optional[Type] = None
        for b in t.branches:
            sig = self.reg.constructor(b.con)
            binds: dict[str, Type] = {}
            for x, sigma in zip(b.binders, sig.arg_types):
                delta = subst_type_sizes(sigma, {}, subst_map)
                self.store_type(delta)
                binds[x] = delta
            tk = yield from self._under(binds, b.body)
            if tk is None:
                return None
            if result is None:
                result = tk
            else:
                result = join(result, tk, self.reg, env=self)
                if result is None:
                    return self.fail("case", t, "branch types have no join")
        return result

    def fix_rule(self, t: Fix):
        js: list[str] = []
        core = t.ty
        while isinstance(core, Forall):
            js.append(core.var)
            core = core.body
        if not isinstance(core, Arrow) or not isinstance(core.dom, Coind):
            return self.fail("fix", t, "annotation must have shape "
                             "forall js. mu -> tau with mu inductive")
        dom, cod = core.dom, core.cod
        if self.reg.definition(dom.defname).coinductive:
            return self.fail("fix", t, f"{dom.defname} is not inductive")
        if dom.size != INFTY:
            return self.fail("fix", t,
                             "the recursive domain must be undecorated")
        iv = self.fresh_size()

        def wrap(dom_size: SizeExpr) -> Type:
            ty: Type = Arrow(Coind(dom.defname, dom_size, dom.params), cod)
            for j in reversed(js):
                ty = Forall(j, ty)
            return ty

        prem = wrap(SVar(iv))
        theta = yield from self._under({t.var: prem}, t.body)
        if theta is None:
            return None
        k = self._premise_var(theta, len(js), dom.defname, t.ty)
        if k is not None:
            self.u[iv] = SVar(k)
        self.add_sub(theta, wrap(Succ(SVar(iv))))
        return t.ty

    def _premise_var(self, theta: Type, n_foralls: int, dname: str,
                     ann: Type) -> Optional[str]:
        """The size variable the body actually recursed on, when its
        inferred domain has the literal shape d^(k+1) for a suitable k."""
        core = theta
        for _ in range(n_foralls):
            if not isinstance(core, Forall):
                return None
            core = core.body
        if not (isinstance(core, Arrow) and isinstance(core.dom, Coind)
                and core.dom.defname == dname):
            return None
        s = core.dom.size
        if not (isinstance(s, Succ) and isinstance(s.arg, SVar)):
            return None
        k = s.arg.name
        if k.startswith(("$", "?")) or k in self.u or k in sv(ann) \
                or any(k in self._fsv_u(ty) for ty in self.gamma.values()):
            return None
        return k

    def cofix_rule(self, t: Cofix):
        target = tgt(t.ty)
        if not isinstance(target, Coind) or \
                not self.reg.definition(target.defname).coinductive:
            return self.fail("cofix", t,
                             "annotation target must be coinductive")
        j = t.size_var
        if j in sv(t.ty):
            return self.fail("cofix", t,
                             f"size variable {j} occurs in the annotation")
        s = target.size
        prem = chgtgt(t.ty, Coind(target.defname, SMin(s, SVar(j)),
                                  target.params))
        theta = yield from self._under({t.var: prem}, t.body)
        if theta is None:
            return None
        self.add_sub(theta, chgtgt(t.ty, Coind(
            target.defname, SMin(s, Succ(SVar(j))), target.params)))
        return t.ty


# ---------------------------------------------------------------------------
# Public interface

def infer(reg: DefRegistry, gamma: Context, t: Term) -> InferenceTriple:
    """Compute the inference triple (U, S, tau) for a term in a context.

    Failure to apply any rule yields the sentinel triple with an
    unsatisfiable inequality and a diagnostic trail.
    """
    # The variable convention, made true here for the library and the CLI
    # alike: t's /\v and cofix[v] binders are renamed apart from each
    # other and from the context's free size variables, then the
    # quantifiers of the entries t refers to (no other entry reaches U or
    # the result) apart from every size name of t.  So no rule checks
    # that v is not in fsv_U(context), and no verdict depends on how the
    # context spells its quantifiers.  Then v is free neither in t nor in
    # a context type; no other binder of t, and no forall of t's
    # annotations or of an entry t refers to, binds it (so no given
    # context type and no fix or cofix premise has a linear forall); and
    # every context and U entry that exists when v's rule runs was built
    # from parts of t outside v's scope.
    t = uniquify_size_binders(t, {v for ty in gamma.values()
                                  for v in fsv(ty)})
    refs = t.fv & gamma.keys()
    avoid = size_names(t) if refs else ()
    gamma = {**gamma, **{x: rename_binders_apart(gamma[x], avoid)
                         for x in refs}}
    st = _Infer(reg, {})
    tau = st.infer(t, gamma)
    pairs = list(dict.fromkeys(st.pairs))
    if tau is None:
        pairs.append(_FALSE_PAIR)
        return InferenceTriple(st.u, pairs, None, True, tuple(st.trail))
    return InferenceTriple(st.u, pairs, tau, False, tuple(st.trail))


def minimal_type(reg: DefRegistry, gamma: Context, t: Term) -> Optional[Type]:
    """The least type of the term, or None when untypable.

    The result is unique up to renaming of quantified size variables;
    machine-generated binder names are prettified.
    """
    trip = infer(reg, gamma, t)
    if trip.failed or trip.tau is None:
        return None
    if not is_valid(trip.constraint).valid:
        return None
    out = expand_type(trip.u, trip.tau)
    return _prettify(out)


def check(reg: DefRegistry, gamma: Context, t: Term, tau: Type) -> bool:
    """Whether the term can be assigned the (closed) type tau."""
    m = minimal_type(reg, gamma, t)
    return m is not None and subtype(m, tau, reg)


def _bounded(t: Type, bound: tuple[str, ...], reg: DefRegistry) -> Type:
    """t, met at a positive position under the binders `bound`, with each
    of them replaced by its bound there: oo at a positive position of an
    inductive type or a negative one of a coinductive type, where a
    larger size gives a larger type, and 0 elsewhere.  Sizes are
    monotone, so this is the least type above t at every value of the
    binders."""
    def enter(x, live):
        # a forall of t that binds a name of `bound` again hides it below
        return x, live - {x.var} if type(x) is Forall else live

    def node(x, kids, live):
        # (x at a positive position, x at a negative one)
        if type(x) is Arrow:
            (dom_pos, dom_neg), (cod_pos, cod_neg) = kids
            return Arrow(dom_neg, cod_pos), Arrow(dom_pos, cod_neg)
        pos, neg = [k[0] for k in kids], [k[1] for k in kids]
        if type(x) is Coind:
            top, bottom = dict.fromkeys(live, INFTY), dict.fromkeys(live, ZERO)
            hi, lo = (bottom, top) if reg.definition(x.defname).coinductive \
                else (top, bottom)
            return (Coind(x.defname, subst_type_sizes(x.size, hi), tuple(pos)),
                    Coind(x.defname, subst_type_sizes(x.size, lo), tuple(neg)))
        return rebuilt(x, pos), rebuilt(x, neg)

    return fold(t, node, enter=enter, ctx=frozenset(bound))[0]


# the names `_prettify` gives machine-made binders, in order
_NICE = ("i", "j", "k", "l", "m", "n") + tuple(f"i{k}" for k in range(1, 100))


def _prettify(t: Type) -> Type:
    used = sv(t) | forall_binders(t)
    supply = (nm for nm in _NICE if nm not in used)
    t = subst_type_sizes(t, {}, binder=lambda v: (
        next(supply) if v.startswith(("$", "?")) else None))

    def node(x, kids, _ctx):
        if type(x) is Coind:
            return Coind(x.defname, _fold_size(x.size), tuple(kids))
        return rebuilt(x, kids)

    return fold(t, node)


def _fold_size(s: SizeExpr) -> SizeExpr:
    """Evaluation-preserving cosmetic folding for displayed sizes."""
    return fold(s, _fold_node)[0]


def _fold_node(x: SizeExpr, kids, _c) -> tuple[SizeExpr, object]:
    # (the folded node, its constant value or None)
    c = size_value(x, [k[1] for k in kids], lambda name: None)
    if c is not None:
        return (INFTY if c == INF else size_const(int(c))), c
    cls = type(x)
    if cls is SMin or cls is SMax:
        l, r = kids[0][0], kids[1][0]
        if l == r:
            return l, None
        if type(l) is Infty or type(r) is Zero:
            return (r if cls is SMin else l), None
        if type(r) is Infty or type(l) is Zero:
            return (l if cls is SMin else r), None
        return rebuilt(x, [l, r]), None
    return rebuilt(x, [k[0] for k in kids]), None
