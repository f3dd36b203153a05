import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

from helpers import rand_size, rand_size_ge1
from slam import (
    INFTY, ONE, SMax, SMin, SVar, Succ, ZERO, eval_size, normalize_succ,
    overline, simplify_infty, size_ge_const, size_leq, underline,
)
from slam.sizes import INF, SizeError
from slam.syntax import Infty, Zero, subst_type_sizes

I, J, K = SVar("i"), SVar("j"), SVar("k")

leaves = st.sampled_from([ZERO, INFTY, I, J, K, ONE, Succ(J)])
sizes = st.recursive(
    leaves,
    lambda ch: st.one_of(st.builds(Succ, ch), st.builds(SMin, ch, ch),
                         st.builds(SMax, ch, ch)),
    max_leaves=10)
finite_vals = st.fixed_dictionaries(
    {v: st.integers(min_value=0, max_value=5) for v in "ijkl"})
vals = st.fixed_dictionaries(
    {v: st.one_of(st.integers(min_value=0, max_value=5), st.just(INF))
     for v in "ijkl"})


# -- eval ------------------------------------------------------------------

def test_eval_examples():
    v = {"i": 3}
    assert eval_size(v, SMin(Succ(I), INFTY)) == 4
    assert eval_size({}, Succ(INFTY)) == INF
    v2 = {"i": 0, "j": 2}
    assert eval_size(v2, SMax(Succ(I), SMin(I, Succ(J)))) == 1


def test_eval_default():
    # a variable the valuation leaves out is 0
    assert eval_size({}, I) == 0
    assert eval_size({"j": 7}, SMax(Succ(I), J)) == 7


@given(sizes, sizes, vals)
def test_eval_subst_commutes(s, s2, m):
    inner = eval_size(m, s2)
    assert eval_size(m, subst_type_sizes(s, {"i": s2})) == \
        eval_size({**m, "i": inner}, s)


# -- simplify_infty ---------------------------------------------------------

def test_simplify_infty_examples():
    assert simplify_infty(SMin(INFTY, Succ(I))) == Succ(I)
    assert simplify_infty(SMax(I, INFTY)) == INFTY
    assert simplify_infty(I) == I


@given(sizes, vals)
def test_simplify_infty_shape_and_meaning(s, m):
    out = simplify_infty(s)
    assert out == INFTY or not _mentions_inf(out)
    assert eval_size(m, out) == eval_size(m, s)


def _mentions_inf(s):
    if isinstance(s, Infty):
        return True
    if isinstance(s, Succ):
        return _mentions_inf(s.arg)
    if isinstance(s, (SMin, SMax)):
        return _mentions_inf(s.left) or _mentions_inf(s.right)
    return False


# -- normalize_succ ---------------------------------------------------------

def test_normalize_succ_examples():
    assert normalize_succ(Succ(SMax(I, J))) == SMax(Succ(I), Succ(J))
    # min(i, 0)+2 pushes both successors below the min
    out = normalize_succ(Succ(Succ(SMin(I, ZERO))))
    assert out == SMin(Succ(Succ(I)), Succ(Succ(ZERO)))
    for n in range(4):
        assert eval_size({"i": n}, out) == min(n + 2, 2)
    assert normalize_succ(Succ(I)) == Succ(I)


@given(sizes.filter(lambda s: simplify_infty(s) != INFTY), vals)
def test_normalize_succ_shape(s, m):
    s = simplify_infty(s)
    out = normalize_succ(s)
    assert _succ_below_ok(out)
    assert eval_size(m, out) == eval_size(m, s)


def _succ_below_ok(s):
    if isinstance(s, Succ):
        return isinstance(s.arg, (Zero, SVar, Succ)) and _succ_below_ok(s.arg)
    if isinstance(s, (SMin, SMax)):
        return _succ_below_ok(s.left) and _succ_below_ok(s.right)
    return True


# -- overline / underline ----------------------------------------------------

def test_overline_examples():
    assert overline(Succ(I)) == I
    # max(1, i): the superfluous i drops to 0, leaving 0+1
    assert overline(SMax(ONE, I)) == ZERO
    # the min arm never exceeds i+1, so the sharp peel is i
    s = SMax(Succ(I), SMin(I, Succ(J)))
    out = overline(s)
    for vi in range(4):
        for vj in range(4):
            assert eval_size({"i": vi, "j": vj}, out) == vi
    assert size_leq(Succ(out), s)


def test_overline_precondition():
    with pytest.raises(SizeError):
        overline(I)
    with pytest.raises(SizeError):
        overline(SMin(Succ(I), J))


def test_overline_of_infty():
    assert overline(INFTY) == INFTY


def test_underline_examples():
    s = SMax(Succ(I), SMin(I, Succ(J)))
    assert underline(s) == SMax(I, SMin(I, J))
    assert underline(ZERO) == ZERO
    assert underline(Succ(I)) == I
    assert underline(INFTY) == INFTY
    assert underline(I) == I


def test_size_leq_examples():
    assert size_leq(I, Succ(I))
    assert not size_leq(Succ(I), I)
    assert size_leq(Succ(INFTY), INFTY)


def test_size_ge_const_examples():
    assert size_ge_const({}, Succ(I), 1)
    assert not size_ge_const({}, I, 1)
    assert size_ge_const({"i": Succ(J)}, I, 1)


def test_size_ge_const_is_lazy_in_u():
    # the map entries are consulted by evaluation, never expanded
    u = {"a0": I}
    for n in range(1, 40):
        u[f"a{n}"] = SMax(SVar(f"a{n-1}"), SVar(f"a{n-1}"))
    assert not size_ge_const(u, SVar("a39"), 1)
    u["i"] = ONE
    assert size_ge_const(u, SVar("a39"), 1)


# -- the peeled-bound lemmas (property suites) -------------------------------

def test_bounds_overline():
    rng = random.Random(101)
    for _ in range(250):
        s = rand_size_ge1(rng)
        assert size_leq(Succ(overline(s)), s)


def test_bounds_underline():
    rng = random.Random(102)
    for _ in range(250):
        s = rand_size(rng)
        assert size_leq(s, Succ(underline(s)))


def test_sharpness_overline():
    # if s >= s0+1 then overline(s) >= s0
    rng = random.Random(103)
    done = 0
    while done < 250:
        s0 = rand_size(rng)
        s = rng.choice([SMax(Succ(s0), rand_size(rng)),
                        Succ(SMax(s0, rand_size(rng))),
                        rand_size_ge1(rng)])
        if not size_leq(Succ(s0), s):
            continue
        assert size_leq(s0, overline(s))
        done += 1


def test_sharpness_underline():
    # if s <= s0+1 then underline(s) <= s0
    rng = random.Random(104)
    done = 0
    while done < 250:
        s0 = rand_size(rng)
        s = rng.choice([SMin(Succ(s0), rand_size(rng)),
                        Succ(SMin(s0, rand_size(rng))),
                        rand_size(rng)])
        if not size_leq(s, Succ(s0)):
            continue
        assert size_leq(underline(s), s0)
        done += 1


def test_monotone_overline_underline():
    rng = random.Random(105)
    for _ in range(250):
        s1 = rand_size_ge1(rng)
        s2 = SMax(s1, rand_size(rng))
        assert size_leq(s1, s2)
        assert size_leq(overline(s1), overline(s2))
        assert size_leq(underline(s1), underline(s2))


def test_monotone_substitution():
    # if s1 <= s2 then s[s1/i] <= s[s2/i] and s1[s/i] <= s2[s/i]
    rng = random.Random(106)
    for _ in range(200):
        s1 = rand_size(rng)
        s2 = SMax(s1, rand_size(rng))
        s = rand_size(rng)
        assert size_leq(subst_type_sizes(s, {"i": s1}),
                        subst_type_sizes(s, {"i": s2}))
        assert size_leq(subst_type_sizes(s1, {"i": s}),
                        subst_type_sizes(s2, {"i": s}))
