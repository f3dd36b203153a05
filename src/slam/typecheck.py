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
mention its own binder, so a quantifier is opened through U: on a copy
of the slice of U that depends on its binder, which is right however
often the type is used.  A binder whose type has exactly one consumer
(a `/\\` just generalised, or a binder made to align two quantifiers) is
"owned", and is bound in U in place on that one use instead, when no
recorded inequality mentions its slice, so nothing universal is lost.
A type that enters the context gives up ownership of its binders.
Slices and ownership go by name, so each binder takes a fresh machine
name as typing opens it: a `/\\v` or `cofix[v]` of the term, a forall of
a declared shape each time it is opened, and one of a context entry the
term refers to.  So no binder meets a name that U mentions, that a
binder owns or that the context holds free (the variable convention, by
construction), generalisation and cofix check nothing against the
context, substitution renames nothing, and only `_prettify` picks the
binder names shown: a name that begins with `$` or `?` is the machine's,
never the parser's.  The fix premise reads the context, for a variable
that an annotation names.

A constructor argument is matched against its declared shape by the
subtyping walk itself, with the shape's type variables as holes where
the instances are read (`decompose`), so each quantifier of the shape is
aligned once.
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
    forall_binders, fsv, rebuilt, size_const, smax, smin, subst_type_sizes,
    sv,
)

__all__ = [
    "InferenceTriple", "infer", "minimal_type", "check",
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


class _Infer:
    """One inference run, and the binder environment that subtyping
    aligns quantifiers in (`fresh_binder`, `rename`).

    The binders in `linear` are owned (see the module docstring).  Only
    `define` writes U, and it keeps U's reverse index, so the slice of U
    that depends on a binder costs its own size to read.  `sizes` maps
    each size binder of the term in scope to the name it was opened as,
    beside the context `gamma`; `opened` holds every such name."""

    def __init__(self, reg: DefRegistry):
        self.reg = reg
        self.u: dict[str, SizeExpr] = {}
        self._users: dict[str, list[str]] = {}  # U's reverse index
        self._at: dict[str, int] = {}  # each U-variable's place in U
        self.gamma: dict[str, Type] = {}
        self.sizes: dict[str, SizeExpr] = {}
        self.opened: set[str] = set()
        self.pairs: list[Pair] = []
        self.linear: set[str] = set()
        self._counter = itertools.count(1)
        self.trail: list[str] = []

    # -- fresh names ----------------------------------------------------

    def fresh_size(self) -> str:
        return f"$s{next(self._counter)}"

    def fresh_binder(self) -> str:
        f = f"$b{next(self._counter)}"
        self.linear.add(f)
        return f

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

    def define(self, v: str, s: SizeExpr) -> None:
        """U[v] = s, kept in U's reverse index: the one write to U."""
        self._at[v] = len(self.u)
        self.u[v] = s
        for w in sv(s):
            self._users.setdefault(w, []).append(v)

    def _dependents(self, name: str) -> list[str]:
        """U-variables whose expansion mentions `name`, in U's order."""
        users = self._users.get
        hit = depth_first_order(users(name, ()), lambda v: users(v, ()))[0]
        return sorted(hit, key=self._at.__getitem__)

    def _fsv_u(self, x) -> set[str]:
        """Free size variables of x after expansion through u."""
        reach, _ = depth_first_order(
            fsv(x), lambda v: sv(self.u[v]) if v in self.u else ())
        return {v for v in reach if v not in self.u}

    # -- opening quantifiers ---------------------------------------------

    def instantiate(self, binder: str, body: Type, s: SizeExpr) -> Type:
        """Consume a quantifier: the returned body sees binder = s, while
        inequalities recorded under the quantifier stay universal.  An
        owned binder whose slice of U no pair of S mentions is bound in
        place; any other is renamed to a fresh size defined as s."""
        if binder in self.linear:
            self.linear.discard(binder)
            touched = set(self._dependents(binder)) | {binder}
            if not any((sv(a) | sv(b)) & touched for a, b in self.pairs):
                self.define(binder, s)
                return body
        r = self.fresh_size()
        body = self.rename(binder, body, r)
        self.define(r, s)
        return body

    def rename(self, binder: str, body: Type, to: str) -> Type:
        """body with binder renamed to `to`: an owned binder is bound to
        it in place, any other is opened on a copy of its slice of U,
        each U-variable of the slice a fresh copy defined over `to`."""
        if binder in self.linear:
            self.linear.discard(binder)
            self.define(binder, SVar(to))
            return body
        ren = {binder: SVar(to)}
        dep = self._dependents(binder)
        for d in dep:
            ren[d] = SVar(self.fresh_size())
        for d in dep:
            self.define(ren[d].name, expand(ren, self.u[d]))
        return subst_type_sizes(body, ren)

    def _shape(self, sigma: Type) -> Type:
        """A declared shape, or a context type, opened afresh: each
        forall takes a fresh machine name, unowned, so opening it copies
        no slice of U and no binder of it is taken for an owned binder.
        A type with no forall is used as it is."""
        if not forall_binders(sigma):
            return sigma
        return subst_type_sizes(sigma, {},
                                binder=lambda _v: self.fresh_size())

    # -- constructor decomposition ----------------------------------------
    #
    # An argument type theta is matched against the declared shape sigma
    # of its position, reading off the instances of the recursive variable
    # and of the parameters.  Most positions are a bare variable (`Nat`'s
    # `succ : Nat -> Nat`); those need no walk.

    def decompose(self, theta: Type, sigma: Type, dname: str
                  ) -> Optional[tuple[dict[str, Type], list[Pair]]]:
        """theta matched against sigma, the declared shape of an argument
        position of a constructor of dname, or None when it does not fit:
        the joined instance of each type variable of sigma that theta
        gives one, and the size inequalities the match needs elsewhere.

        One subtyping walk of theta <= sigma hands `_fits` the part of
        theta met at each type variable of sigma, and the instances of a
        variable are joined as they are read.  An instance that
        mentions, through U, a binder aligned above it would let that
        binder escape its scope: it is expanded, and the binder replaced
        by its bound (see `_bounded`)."""
        d = self.reg.definition(dname)
        if isinstance(sigma, TyVar):
            if not _fits(theta, sigma, d):
                return None
            return {} if isinstance(theta, Bot) else {sigma.name: theta}, []
        sigma = self._shape(sigma)
        insts: dict[str, Type] = {}

        def hole(th: Type, x: TyVar, bound: tuple[str, ...]) -> bool:
            if bound and not self._fsv_u(th).isdisjoint(bound):
                th = _bounded(expand_type(self.u, th), bound, self.reg)
            if not _fits(th, x, d):
                return False
            if isinstance(th, Bot):
                return True
            acc = join(insts.get(x.name, BOT), th, self.reg, env=self)
            insts[x.name] = acc
            return acc is not None

        pairs = gen_shape_constraints(theta, sigma, self.reg, self, hole)
        return None if pairs is None else (insts, pairs)

    # -- peeled sizes -------------------------------------------------------

    def _overline_u(self, s: SizeExpr) -> Optional[SizeExpr]:
        try:
            return overline(s)
        except SizeError:
            pass
        try:
            return overline(s, self.u)
        except SizeError:
            return None

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

    def _under(self, binds: dict[str, Type], body: Term,
               sizes: Optional[dict[str, SizeExpr]] = None):
        """The premise body in the context extended by binds (Γ, x : T),
        with the size binders in `sizes` opened as the names given; each
        name gets back what it had before."""
        scopes = [(self.gamma, binds), (self.sizes, sizes or ())]
        before = [(d, x, d.get(x)) for d, b in scopes for x in b]
        for d, b in scopes:
            d.update(b)
        ty = yield body
        for d, x, old in before:
            if old is None:
                del d[x]
            else:
                d[x] = old
        return ty

    def _read(self, x):
        """x, a size or an annotation of the term, with each size binder
        of the term in scope put as the name it was opened as."""
        sizes = self.sizes
        return subst_type_sizes(x, {v: sizes[v] for v in sv(x)
                                    if v in sizes}) if sizes else x

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
            ty = self._read(t.ty)
            body = yield from self._under({t.var: ty}, t.body)
            return None if body is None else Arrow(ty, body)
        if isinstance(t, SizeApp):
            fun = yield t.fun
            if fun is None:
                return None
            if not isinstance(fun, Forall):
                return self.fail("inst", t, "size application needs a "
                                 "quantified type, got " + print_type(fun))
            return self.instantiate(fun.var, fun.body, self._read(t.size))
        if isinstance(t, SizeLam):
            v = self.fresh_size()
            self.opened.add(v)
            body = yield from self._under({}, t.body, {t.var: SVar(v)})
            if body is None:
                return None
            self.linear.add(v)
            return Forall(v, body)
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
        per_arg: list[dict[str, Type]] = []
        for arg, sigma in zip(args, sig.arg_types):
            theta = yield arg
            if theta is None:
                return None
            dec = self.decompose(theta, sigma, d.name)
            if dec is None:
                return self.fail(
                    "con", at, f"argument of {cname} does not match its "
                    f"declared shape (got {print_type(theta)})")
            insts, pairs = dec
            per_arg.append(insts)
            rec = insts.get(d.rec_var)
            sizes.append(neutral if rec is None else rec.size)
            self.pairs.extend(pairs)
        taus: list[Type] = []
        for j, bname in enumerate(d.params):
            acc: Type = BOT
            for insts in per_arg:
                rec = insts.get(d.rec_var)
                for cand in ([] if rec is None else [rec.params[j]]) \
                        + ([insts[bname]] if bname in insts else []):
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
        self.define(iv, peeled)
        rec_inst = Coind(d.name, SVar(iv), scrut.params)
        subst_map: dict[str, Type] = {d.rec_var: rec_inst}
        subst_map.update({bn: p for bn, p in zip(d.params, scrut.params)})
        result: Optional[Type] = None
        for b in t.branches:
            sig = self.reg.constructor(b.con)
            binds: dict[str, Type] = {}
            for x, sigma in zip(b.binders, sig.arg_types):
                delta = subst_type_sizes(self._shape(sigma), {}, subst_map)
                # a context type may be used any number of times
                self.linear -= forall_binders(delta)
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
        ann = self._read(t.ty)
        js: list[str] = []
        core = ann
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
        k = self._premise_var(theta, len(js), dom.defname, ann)
        if k is not None:
            self.define(iv, SVar(k))
        self.add_sub(theta, wrap(Succ(SVar(iv))))
        return ann

    def _premise_var(self, theta: Type, n_foralls: int, dname: str,
                     ann: Type) -> Optional[str]:
        """The size variable the body actually recursed on, when its
        inferred domain has the literal shape d^(k+1) for a suitable k,
        which is none of U's own variables."""
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
        if k.startswith(("$", "?")) and k not in self.opened \
                or k in self.u or k in sv(ann) \
                or any(k in self._fsv_u(ty) for ty in self.gamma.values()):
            return None
        return k

    def cofix_rule(self, t: Cofix):
        ann = self._read(t.ty)
        target = tgt(ann)
        if not isinstance(target, Coind) or \
                not self.reg.definition(target.defname).coinductive:
            return self.fail("cofix", t,
                             "annotation target must be coinductive")
        if t.size_var in fsv(t.ty):
            return self.fail("cofix", t, f"size variable {t.size_var} "
                             "occurs in the annotation")
        j = self.fresh_size()
        self.opened.add(j)
        s = target.size
        prem = chgtgt(ann, Coind(target.defname, SMin(s, SVar(j)),
                                 target.params))
        theta = yield from self._under({t.var: prem}, t.body,
                                       {t.size_var: SVar(j)})
        if theta is None:
            return None
        self.add_sub(theta, chgtgt(ann, Coind(
            target.defname, SMin(s, Succ(SVar(j))), target.params)))
        return ann


# ---------------------------------------------------------------------------
# Public interface

def infer(reg: DefRegistry, gamma: Context, t: Term) -> InferenceTriple:
    """Compute the inference triple (U, S, tau) for a term in a context.

    The quantifiers of each context entry the term refers to are opened
    afresh, in name order, as a declared shape is.  Failure to apply any
    rule yields the sentinel triple with an unsatisfiable inequality and
    a diagnostic trail.
    """
    st = _Infer(reg)
    refs = sorted(t.fv & gamma.keys())
    tau = st.infer(t, {**gamma, **{x: st._shape(gamma[x]) for x in refs}})
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


def _fits(th: Type, x: TyVar, d: Definition) -> bool:
    """Whether th fits at a position declared as the type variable x of
    d: the recursive variable takes an instance of d, a parameter any
    type, and Bot, the least type, either."""
    if x.name == d.rec_var:
        return isinstance(th, Bot) or (isinstance(th, Coind)
                                       and th.defname == d.name)
    return x.name in d.params


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


def _prettify(t: Type) -> Type:
    """t with its sizes folded for display, and each machine-named forall
    given the next name of i, j, k, l, m, n, i1, i2, ... that t does not
    use: the one place that picks the binder names shown."""
    used = sv(t) | forall_binders(t)
    supply = (nm for nm in itertools.chain(
        "ijklmn", (f"i{k}" for k in itertools.count(1))) if nm not in used)
    scope: dict[str, list[str]] = {}  # per machine name, innermost last

    def enter(x, c):
        if type(x) is Forall and x.var.startswith(("$", "?")):
            scope.setdefault(x.var, []).append(next(supply))
        return x, c

    def node(x, kids, _c):
        if type(x) is Forall and x.var in scope:
            return Forall(scope[x.var].pop(), kids[0])
        if type(x) is Coind:
            size = x.size
            if scope:
                size = subst_type_sizes(size, {
                    v: SVar(ns[-1]) for v in sv(size) if (ns := scope.get(v))})
            return Coind(x.defname, _fold_size(size), tuple(kids))
        return rebuilt(x, kids)

    return fold(t, node, enter=enter)


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
