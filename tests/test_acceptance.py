"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Tolerances and time budgets are fixed here, not tuned elsewhere.
"""

import random
import time

from helpers import (
    brute_force_valid, completeness_bound, corpus_terms, linked_reference,
    load, rand_cnf, rand_size, rand_size_ge1, rand_type, reshape_sizes,
    subtype_of, supertype_of, truth_table_sat,
)
from slam import (
    App, Arrow, Coind, SMax, SMin, SVar, Succ, Var, ZERO, alpha_eq,
    eval_size, join, meet, overline, parse_term, parse_type, size_leq,
    subtype, underline,
)
from slam.constraints import (
    SizeConstraint, check_acyclic, encode_3cnf, is_valid,
)
from slam.rewrite import (
    Bottom, Constr, EvalBudget, OMEGA, approximant, erase, member,
    observable, productivity_check, refines,
)
from slam.sizes import INF
from slam.typecheck import check, minimal_type


def _report(n: int, ok: bool, desc: str, extra: str = "") -> None:
    tail = f" ({extra})" if extra else ""
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {desc}{tail}")
    assert ok, f"criterion {n} failed: {desc}"


# -- 1. golden typings --------------------------------------------------------

def test_criterion_1_golden_typings():
    streams, sp = load("streams"), load("sp")
    cases = [
        (streams, linked_reference(streams, "tl"),
         "forall i. Strm^(i+1) -> Strm^i"),
        (streams, linked_reference(streams, "hd"),
         "forall i. Strm^(i+1) -> Nat"),
        (sp, linked_reference(sp, "run"), "SP -> Strm -> Strm"),
        (streams, parse_term("cofix[j] f : Strm^0 . f", streams.registry),
         "Strm^0"),
    ]
    worst = 0.0
    ok = True
    for sf, term, expected in cases:
        t0 = time.monotonic()
        got = minimal_type(sf.registry, {}, term)
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        ok = ok and got is not None \
            and alpha_eq(got, parse_type(expected, sf.registry)) \
            and dt < 1.0
    _report(1, ok, "golden typings tl/hd/run/cofix-Strm^0",
            f"worst {worst * 1000:.0f} ms")


# -- 2. coNP-hardness round trip -------------------------------------------------

def test_criterion_2_hardness_roundtrip():
    streams = load("streams")
    reg = streams.registry
    mu0 = Coind("Nat", ZERO, ())
    rng = random.Random(20240809)
    formulas = [[[("x", True), ("y", False), ("z", True)],
                 [("x", True), ("z", False), ("y", True)]]]
    formulas += [rand_cnf(rng, max_vars=6, max_clauses=8) for _ in range(50)]
    t0 = time.monotonic()
    agree = 0
    for phi in formulas:
        s1, s2 = encode_3cnf(phi)
        gamma = {"x": Coind("Strm", s1, ()),
                 "f": Arrow(Coind("Strm", Succ(s2), ()), mu0)}
        checked = check(reg, gamma, App(Var("f"), Var("x")), mu0)
        agree += (checked == (not truth_table_sat(phi)))
    dt = time.monotonic() - t0
    _report(2, agree == len(formulas) and dt < 10.0,
            "typing judgment decides 3-CNF unsatisfiability",
            f"{agree}/{len(formulas)} agree, {dt:.2f} s")


# -- 3. solver/oracle equivalence --------------------------------------------------

def test_criterion_3_solver_oracle():
    rng = random.Random(31337)
    t0 = time.monotonic()
    agree = 0
    witnesses_ok = True
    n = 0
    while n < 500:
        u = {}
        for name in rng.sample(("i", "j", "k", "l"), rng.randint(0, 2)):
            u[name] = rand_size(rng, 2)
        if not check_acyclic(u):
            continue
        n += 1
        pairs = [(rand_size(rng, 2), rand_size(rng, 2))
                 for _ in range(rng.randint(1, 4))]
        c = SizeConstraint(u, pairs)
        res = is_valid(c)
        agree += (res.valid == brute_force_valid(c, completeness_bound(c)))
        if not res.valid:
            w = res.witness
            respects = all(eval_size(w, SVar(i)) == eval_size(w, c.u[i])
                           for i in c.u)
            violates = any(eval_size(w, a) > eval_size(w, b)
                           for a, b in c.pairs)
            witnesses_ok = witnesses_ok and respects and violates
    dt = time.monotonic() - t0
    _report(3, agree == 500 and witnesses_ok and dt < 30.0,
            "validity decision matches the enumeration oracle",
            f"{agree}/500 agree, witnesses ok={witnesses_ok}, {dt:.2f} s")


# -- 4. lemma suite ------------------------------------------------------------------

def test_criterion_4_lemma_suite():
    rng = random.Random(44)
    trees = load("trees")
    reg = trees.registry
    counter = 0

    for _ in range(200):  # peel bounds
        s = rand_size_ge1(rng)
        if not size_leq(Succ(overline(s)), s):
            counter += 1
        t = rand_size(rng)
        if not size_leq(t, Succ(underline(t))):
            counter += 1

    done = 0
    while done < 200:  # sharpness, both directions
        s0 = rand_size(rng)
        s_up = SMax(Succ(s0), rand_size(rng))
        if not size_leq(s0, overline(s_up)):
            counter += 1
        s_down = SMin(Succ(s0), rand_size(rng))
        if not size_leq(underline(s_down), s0):
            counter += 1
        done += 1

    for _ in range(200):  # peel monotonicity
        s1 = rand_size_ge1(rng)
        s2 = SMax(s1, rand_size(rng))
        if not (size_leq(overline(s1), overline(s2))
                and size_leq(underline(s1), underline(s2))):
            counter += 1

    for _ in range(200):  # subtyping reflexivity + transitivity
        t1 = rand_type(rng, reg)
        if not subtype(t1, t1, reg):
            counter += 1
        t2 = supertype_of(rng, t1, reg)
        t3 = supertype_of(rng, t2, reg)
        if not (subtype(t1, t2, reg) and subtype(t2, t3, reg)
                and subtype(t1, t3, reg)):
            counter += 1

    for _ in range(200):  # meet <= sides <= join, and lub facing
        t1 = rand_type(rng, reg)
        t2 = reshape_sizes(rng, t1)
        up, low = join(t1, t2, reg), meet(t1, t2, reg)
        if up is None or low is None:
            counter += 1
            continue
        if not all(subtype(low, t, reg) and subtype(t, up, reg)
                   for t in (t1, t2)):
            counter += 1
        tc = supertype_of(rng, supertype_of(rng, t1, reg), reg)
        if subtype(t2, tc, reg) and not subtype(up, tc, reg):
            counter += 1
    _report(4, counter == 0, "peel/subtyping/join lemma suite",
            f"{counter} counterexamples over 1000+ instances")


# -- 5. characterization -----------------------------------------------------------

def test_criterion_5_characterization():
    rng = random.Random(55)
    terms = corpus_terms()
    assert len(terms) >= 30
    mismatches = 0
    checked = 0
    for label, reg, term in terms:
        m = minimal_type(reg, {}, term)
        candidates = []
        if m is not None and not _mentions_bot(m):
            candidates.append(m)
            candidates.append(supertype_of(rng, m, reg))
            candidates.append(subtype_of(rng, m, reg))
        candidates.append(rand_type(rng, reg, 2))
        for tau in candidates:
            checked += 1
            lhs = check(reg, {}, term, tau)
            rhs = m is not None and subtype(m, tau, reg)
            if lhs != rhs:
                mismatches += 1
    _report(5, mismatches == 0,
            "check agrees with minimal-type subsumption",
            f"{checked} judgments over {len(terms)} terms")


def _mentions_bot(t):
    from slam.subtyping import Bot
    if isinstance(t, Bot):
        return True
    if isinstance(t, Coind):
        return any(_mentions_bot(p) for p in t.params)
    if isinstance(t, Arrow):
        return _mentions_bot(t.dom) or _mentions_bot(t.cod)
    if hasattr(t, "body"):
        return _mentions_bot(t.body)
    return False


# -- 6. no constraint blow-up -----------------------------------------------------------

def test_criterion_6_no_blowup():
    from test_typecheck import (
        nested_case_family_sizes, quantifier_family_sizes,
    )
    from slam import parse_defs, validate_registry

    streams = load("streams")
    gamma = {"f": parse_type("forall a. Nat^a -> Nat^a", streams.registry)}
    s1 = quantifier_family_sizes(streams.registry, gamma, 20)
    reg2 = parse_defs("inductive M { c1 : M -> M; c2 : M -> M }")
    validate_registry(reg2)
    s2 = nested_case_family_sizes(reg2, 20)
    lin1 = all(b - a == s1[1] - s1[0] for a, b in zip(s1[1:], s1[2:]))
    lin2 = all(b - a == s2[3] - s2[2] for a, b in zip(s2[2:], s2[3:]))
    ok = lin1 and lin2 and s1[-1] <= 30 * 20 and s2[-1] <= 30 * 20
    _report(6, ok, "triple size grows linearly on both families",
            f"sizes at n=20: {s1[-1]} and {s2[-1]} nodes")


# -- 7. empirical soundness ---------------------------------------------------------

def test_criterion_7_empirical_soundness():
    t0 = time.monotonic()
    failures = []
    ran = 0
    for label, reg, term in corpus_terms():
        m = minimal_type(reg, {}, term)
        if not (isinstance(m, Coind)
                and reg.definition(m.defname).coinductive
                and eval_size({}, m.size) == INF
                and observable(m, reg)):
            continue
        rep = productivity_check(erase(term), m, reg,
                                 budget=EvalBudget(depth=5))
        ran += 1
        if not rep.passed:
            failures.append(label)
    sp = load("sp")
    run_odd = App(App(linked_reference(sp, "run"),
                      linked_reference(sp, "odd")),
                  linked_reference(sp, "nats"))
    rep = productivity_check(erase(run_odd), parse_type("Strm", sp.registry),
                             sp.registry, budget=EvalBudget(depth=3))
    prefix_ok = rep.passed and rep.verdicts[3].approx == Constr(
        "cons", (_nat(1), Constr("cons", (_nat(3), Constr(
            "cons", (_nat(5), Bottom()))))))
    streams = load("streams")
    omega_rep = productivity_check(
        OMEGA, parse_type("Strm", streams.registry), streams.registry,
        budget=EvalBudget(fuel=300, depth=1))
    dt = time.monotonic() - t0
    ok = not failures and ran >= 5 and prefix_ok \
        and not omega_rep.passed and omega_rep.fail_at == 1 and dt < 10.0
    _report(7, ok, "typed coinductive corpus terms are productive",
            f"{ran} terms to depth 5, run-odd prefix 1::3::5, {dt:.2f} s"
            + (f", failures: {failures}" if failures else ""))


def _nat(n):
    a = Constr("zero")
    for _ in range(n):
        a = Constr("succ", (a,))
    return a


# -- 8. approximant lattice ------------------------------------------------------------

def test_criterion_8_approximant_lattice():
    bad_chain = []
    for label, reg, term in corpus_terms():
        e = erase(term)
        prev = None
        for n in range(0, 6):
            a = approximant(e, EvalBudget(fuel=4000, depth=n), reg)
            if prev is not None and not _limited(a) and not _limited(prev):
                if not refines(a, prev):
                    bad_chain.append((label, n))
            prev = a
    rng = random.Random(88)
    streams = load("streams")
    reg = streams.registry
    strm = Coind("Strm", SVar("n"), ())
    coherent = True
    for _ in range(200):
        a = _rand_strm_approx(rng, rng.randint(0, 4))
        for n in range(0, 5):
            if member(a, strm, reg, {"n": n}, strict=True):
                coherent = coherent and all(
                    member(a, strm, reg, {"n": m}) for m in range(n + 1))
    _report(8, not bad_chain and coherent,
            "refinement chains monotone, strict implies non-strict",
            f"chain breaks: {bad_chain}")


def _limited(a):
    if isinstance(a, Bottom):
        return a.fuel_limited
    if isinstance(a, Constr):
        return any(_limited(k) for k in a.children)
    return False


def _rand_strm_approx(rng, depth):
    r = rng.random()
    if depth <= 0 or r < 0.3:
        return rng.choice([Bottom(), Constr("cons", (Bottom(), Bottom()))])
    if r < 0.7:
        a = Bottom()
        for _ in range(depth):
            a = Constr("cons", (_nat(rng.randint(0, 2)), a))
        return a
    return Constr("cons", (_nat(rng.randint(0, 2)),
                           _rand_strm_approx(rng, depth - 1)))
