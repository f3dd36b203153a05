import inspect
import random
import sys

import pytest

from helpers import (
    CORPUS_DIR, brute_force_valid, completeness_bound, linked_reference,
    load, rand_cnf, rand_size, sat_atoms_reference, solve_reference,
    truth_table_sat,
)
from slam import (
    INFTY, ONE, SMax, SMin, SVar, Succ, ZERO, eval_size,
)
from slam import constraints
from slam.constraints import (
    CyclicDefMap, DifferenceGraph, SizeConstraint, VarConst, VarVar,
    _absorb, check_acyclic, encode_3cnf, expand, format_constraint,
    is_valid, parse_constraint_file, sat_atoms,
)
from slam.sizes import INF, normalize_succ
from slam.syntax import size_const, size_plus, smax, smin
from slam.typecheck import infer

I, J, K = SVar("i"), SVar("j"), SVar("k")


# -- acyclicity ---------------------------------------------------------------

def test_check_acyclic_examples():
    assert check_acyclic({"i": Succ(J), "j": ZERO})
    assert not check_acyclic({"i": SMin(I, ZERO)})
    assert check_acyclic({"i": SMax(J, K), "j": Succ(K)})
    assert not check_acyclic({"i": J, "j": I})


def test_is_valid_rejects_cyclic():
    with pytest.raises(CyclicDefMap):
        is_valid(SizeConstraint({"i": Succ(I)}, [(I, I)]))


# -- expansion ---------------------------------------------------------------

def test_expand_examples():
    s = SVar("s")
    u = {"i1": SMin(SVar("i2"), Succ(SVar("i2"))), "i2": s}
    out = expand(u, SMax(SVar("i1"), SVar("i1")))
    assert out == SMax(SMin(s, Succ(s)), SMin(s, Succ(s)))
    assert expand({}, SMax(I, J)) == SMax(I, J)
    assert expand({"i": ZERO}, Succ(I)) == Succ(ZERO)


def test_expand_eval_agreement():
    rng = random.Random(11)
    for _ in range(100):
        u = {"i": rand_size(rng, 2, vars=("j", "k")),
             "j": rand_size(rng, 2, vars=("k", "l"))}
        s = rand_size(rng, 3)
        expanded = expand(u, s)
        for _ in range(10):
            m = {"k": rng.randint(0, 4), "l": rng.randint(0, 4)}
            vj = eval_size(m, u["j"])
            vi = eval_size({**m, "j": vj}, u["i"])
            full = {**m, "i": vi, "j": vj}
            assert eval_size(full, s) == eval_size(full, expanded)


# -- validity ----------------------------------------------------------------

def test_is_valid_examples():
    assert is_valid(SizeConstraint({}, [(I, Succ(I))])).valid
    res = is_valid(SizeConstraint({}, [(Succ(I), I)]))
    assert not res.valid
    assert res.witness["i"] == 0
    assert res.violated == (Succ(I), I)
    # i defined as min(j, 1) never exceeds 1
    res2 = is_valid(SizeConstraint({"i": SMin(J, ONE)}, [(I, ONE)]))
    assert res2.valid
    assert brute_force_valid(SizeConstraint({"i": SMin(J, ONE)}, [(I, ONE)]), 3)


def test_is_valid_infinity_cases():
    # rhs infinity: always satisfied
    assert is_valid(SizeConstraint({}, [(I, INFTY)])).valid
    # lhs infinity against a finite rhs: refuted
    res = is_valid(SizeConstraint({}, [(INFTY, I)]))
    assert not res.valid
    # a variable forced to infinity by U propagates
    res2 = is_valid(SizeConstraint({"i": INFTY}, [(I, J)]))
    assert not res2.valid
    assert res2.witness["i"] == INF
    assert is_valid(SizeConstraint({"i": INFTY}, [(J, I)])).valid


def test_witness_respects_u():
    res = is_valid(SizeConstraint({"i": Succ(J)}, [(I, J)]))
    assert not res.valid
    w = res.witness
    assert eval_size(w, I) == eval_size(w, Succ(J))
    assert eval_size(w, I) > eval_size(w, J)


# -- difference atoms ---------------------------------------------------------

def test_sat_atoms_examples():
    assert sat_atoms([VarVar("x", 1, "y"), VarVar("y", 1, "x")]) is None
    m = sat_atoms([VarVar("x", 1, "y")])
    assert m is not None and m["x"] + 1 <= m["y"] and m["x"] >= 0
    assert sat_atoms([VarConst("x", ">=", 2), VarVar("x", 0, "y"),
                      VarConst("y", "<=", 1)]) is None


def test_sat_atoms_nonnegative_models():
    m = sat_atoms([VarVar("x", -5, "y")])  # x - 5 <= y: satisfiable at 0,0
    assert m is not None and all(v >= 0 for v in m.values())


def _rand_atoms(rng: random.Random, n: int) -> list:
    names = ("x", "y", "z", "w")
    atoms: list = []
    while len(atoms) < n:
        r = rng.random()
        if r < 0.2:  # a cycle, possibly negative, closed by its last edge
            vs = rng.sample(names, rng.randint(1, 3))
            atoms += [VarVar(a, rng.randint(-2, 2), b)
                      for a, b in zip(vs, vs[1:] + vs[:1])]
        elif r < 0.6:
            atoms.append(VarVar(rng.choice(names), rng.randint(-3, 3),
                                rng.choice(names)))
        else:
            atoms.append(VarConst(rng.choice(names), rng.choice(("<=", ">=")),
                                  rng.randint(0, 4)))
    return atoms


def _items(model):
    return None if model is None else list(model.items())


def _graph_state(g: DifferenceGraph):
    return (list(g._pi.items()),
            [(x, list(edges)) for x, edges in g._adj.items()],
            list(g._trail))


def _check_admits(g: DifferenceGraph, done: list, chunk: list):
    # admits agrees with a from-scratch solve and writes nothing: not
    # the potentials, the edges or the undo trail
    before = _graph_state(g)
    expected = _items(sat_atoms_reference(done + chunk))
    assert (g.admits(chunk) is None) == (expected is None), (done, chunk)
    assert _graph_state(g) == before, (done, chunk)
    return expected


# (committed atoms, atoms checked against them)
_ADMITS_CASES = [
    ([], [VarVar("x", 1, "x")]),  # x + 1 <= x on a new node
    ([VarConst("x", "<=", 3)], [VarVar("x", 1, "x")]),  # on an old one
    ([VarConst("x", ">=", 2)], [VarVar("x", 1, "y")]),  # new tail y
    ([VarConst("x", ">=", 2)], [VarVar("y", 1, "x")]),  # new head y
    ([VarConst("x", ">=", 2)], [VarVar("y", -1, "x")]),
    ([VarConst("x", "<=", 2)], [VarVar("y", 3, "x")]),  # refused, y new
    ([VarConst("x", ">=", 2)], [VarConst("y", "<=", 0)]),  # new nodes
    ([VarConst("x", ">=", 2)], [VarConst("y", ">=", 5)]),
    ([VarConst("x", ">=", 2), VarConst("z", "<=", 4)],
     [VarConst("y", ">=", 5)]),  # lowers the zero node
    ([VarConst("x", "<=", 2)], [VarConst("y", "<=", 1),
                                VarVar("x", 0, "y")]),
    ([VarConst("x", ">=", 2)], [VarConst("y", "<=", 1),
                                VarVar("x", 1, "y")]),  # y new, refused
    ([], [VarConst("y", ">=", 2), VarConst("y", "<=", 1)]),
    ([], [VarVar("x", 1, "y"), VarVar("y", 1, "x")]),
]


def test_difference_graph_matches_reference():
    # a committed prefix extended chunk by chunk must agree with a
    # from-scratch solve of the concatenation, model and order included;
    # a check, a refused chunk and an undone chunk leave the graph as it
    # was
    for done, chunk in _ADMITS_CASES:
        g = DifferenceGraph()
        assert g.extend(done)
        _check_admits(g, done, chunk)
    rng = random.Random(31)
    for _ in range(2000):
        atoms = _rand_atoms(rng, rng.randint(0, 12))
        assert _items(sat_atoms(atoms)) == _items(sat_atoms_reference(atoms))
        g = DifferenceGraph()
        done: list = []
        while atoms:
            k = rng.randint(1, 4)
            chunk, atoms = atoms[:k], atoms[k:]
            before = _items(g.model())
            for i in range(len(chunk)):
                _check_admits(g, done, chunk[i:i + 1])
            expected = _check_admits(g, done, chunk)
            mark = g.mark()
            if not g.extend(chunk):
                assert expected is None and _items(g.model()) == before
                continue
            assert _items(g.model()) == expected
            if rng.random() < 0.25:
                g.undo(mark)
                assert _items(g.model()) == before
            else:
                done += chunk


# -- brute force oracle --------------------------------------------------------

def test_brute_force_examples():
    assert brute_force_valid(SizeConstraint({}, [(SMin(I, J), I)]), 3)
    assert not brute_force_valid(SizeConstraint({}, [(SMax(I, J), I)]), 3)


def test_solver_matches_oracle():
    rng = random.Random(7)
    n = 0
    while n < 150:
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
        bound = min(completeness_bound(c), 9)
        assert res.valid == brute_force_valid(c, bound), (u, pairs)
        if not res.valid:
            w = res.witness
            for i in c.u:
                assert eval_size(w, SVar(i)) == eval_size(w, c.u[i])
            assert any(eval_size(w, a) > eval_size(w, b) for a, b in c.pairs)


# -- 3-CNF encoding -------------------------------------------------------------

def test_encode_3cnf_two_clause_formula():
    phi = [[("x", True), ("y", False), ("z", True)],
           [("x", True), ("z", False), ("y", True)]]
    s1, s2 = encode_3cnf(phi)
    x, xb = SVar("x"), SVar("x'")
    y, yb = SVar("y"), SVar("y'")
    z, zb = SVar("z"), SVar("z'")
    assert s1 == smax(Succ(smin(x, yb, z)), Succ(smin(x, zb, y)), ONE,
                      Succ(SMin(x, xb)), Succ(SMin(y, yb)),
                      Succ(SMin(z, zb)))
    assert s2 == smin(ONE, SMax(x, xb), SMax(y, yb), SMax(z, zb))
    # this formula is satisfiable, so s1 >= s2+1 is not valid
    assert not is_valid(SizeConstraint({}, [(Succ(s2), s1)])).valid


def test_encode_3cnf_unsat_and_sat():
    unsat = [[("x", True)] * 3, [("x", False)] * 3]
    s1, s2 = encode_3cnf(unsat)
    assert is_valid(SizeConstraint({}, [(Succ(s2), s1)])).valid
    sat = [[("x", True), ("y", True), ("z", True)]]
    s1, s2 = encode_3cnf(sat)
    assert not is_valid(SizeConstraint({}, [(Succ(s2), s1)])).valid


def test_encode_3cnf_equisatisfiable_batch():
    rng = random.Random(23)
    for _ in range(50):
        phi = rand_cnf(rng)
        s1, s2 = encode_3cnf(phi)
        res = is_valid(SizeConstraint({}, [(Succ(s2), s1)]))
        assert res.valid == (not truth_table_sat(phi)), phi
        if not res.valid:
            # the witness decodes to a satisfying assignment
            w = res.witness
            env = {x: w[x] == 0
                   for x in {v for cl in phi for v, _ in cl}}
            assert all(any(env[x] == pos for x, pos in cl) for cl in phi)


# -- constraint files -----------------------------------------------------------

def test_constraint_file_roundtrip():
    c = SizeConstraint({"i": SMin(J, ONE), "j": size_const(2)},
                       [(I, ONE), (SMax(I, J), Succ(J))])
    c2 = parse_constraint_file(format_constraint(c))
    assert c2.u == c.u and c2.pairs == c.pairs


def test_formatted_inference_triples_parse_back():
    # typing names its fresh size variables $1, $s2, ...; written out,
    # they are words a constraint file can spell, and the file read back
    # gets the verdict of the triple
    renamed = 0
    for fname in ("streams", "sp", "trees"):
        sf = load(fname)
        for name in sf.bindings:
            t = linked_reference(sf, name)
            c = infer(sf.registry, {}, t).constraint
            text = format_constraint(c)
            back = parse_constraint_file(text)
            assert is_valid(back).valid == is_valid(c).valid, (fname, name)
            renamed += "$" in repr((c.u, c.pairs))
    assert renamed
    # a made-up name whose spelling is taken gets the next fresh one
    c = SizeConstraint({"$1": Succ(SVar("$s2"))},
                       [(SVar("$1"), SVar("_1")), (SVar("?e"), I)])
    assert format_constraint(c) == (
        "let _1_1 = _s2+1;\nassert _1_1 <= _1;\nassert _e <= i;\n")


def test_constraint_file_parse():
    c = parse_constraint_file("let i = min(j, 1);\nassert i <= 1;\n")
    assert c.u == {"i": SMin(J, ONE)}
    assert c.pairs == [(I, ONE)]


def test_witness_has_no_existential_variables():
    # refuting this needs min/max elimination, whose fresh existentials
    # must never surface in the witness
    c = SizeConstraint({}, [(SMax(SMin(I, J), SMin(J, K)), SMin(I, K))])
    res = is_valid(c)
    assert not res.valid
    assert all(not name.startswith("?") for name in res.witness)
    assert any(eval_size(res.witness, a) > eval_size(res.witness, b)
               for a, b in c.pairs)


def test_existential_names_do_not_depend_on_earlier_calls():
    from slam.constraints import _sat_conjunction

    conj = [(SMax(SMin(I, J), K), SMin(Succ(J), K))]
    first = _sat_conjunction(conj)
    assert any(name.startswith("?e") for name in first)
    is_valid(SizeConstraint({}, [(SMax(I, J), SMin(J, K))]))
    assert list(_sat_conjunction(conj).items()) == list(first.items())


def test_infinity_propagates_through_definitions():
    # i is infinite only via its definition chain
    c = SizeConstraint({"i": J, "j": INFTY}, [(I, ZERO)])
    res = is_valid(c)
    assert not res.valid
    assert res.witness["i"] == INF and res.witness["j"] == INF
    assert is_valid(SizeConstraint({"i": J, "j": INFTY}, [(ZERO, I)])).valid
    assert is_valid(SizeConstraint({"i": J, "j": INFTY}, [(K, I)])).valid


# -- one existential per n-ary min or max ---------------------------------------

class _Fresh:
    """The existential names `_absorb` draws, recorded in order."""

    def __init__(self):
        self.names = []

    def __iter__(self):
        return self

    def __next__(self):
        self.names.append(f"?e{len(self.names) + 1}")
        return self.names[-1]


def _wide(rng: random.Random, cls, arms: list):
    # a min or max over the arms, nested to the left, to the right or
    # split at random
    if len(arms) == 1:
        return arms[0]
    h = rng.randint(1, len(arms) - 1)
    return cls(_wide(rng, cls, arms[:h]), _wide(rng, cls, arms[h:]))


def test_an_n_ary_min_or_max_takes_one_existential():
    # max(a1..ak) <= x and x <= min(a1..ak), nested to the left (as smax
    # and smin build them) or at random: every arm relates to one fresh
    # existential, which x bounds, so k + 1 atoms; against a min or max
    # on the other side, two existentials
    rng = random.Random(5)
    x = SVar("x")
    for k in range(2, 7):
        arms = [SVar(f"a{m}") for m in range(k)]
        other = [SVar(f"b{m}") for m in range(k)]
        for mx, mn in ((smax(*arms), smin(*arms)),
                       (_wide(rng, SMax, arms), _wide(rng, SMin, arms))):
            for pair in ((mx, x), (x, mn)):
                fresh = _Fresh()
                atoms, disjs = _absorb([pair], fresh)
                assert len(fresh.names) == 1 and not disjs, (k, pair)
                assert len(atoms) == k + 1, (k, pair)
            fresh = _Fresh()
            atoms, disjs = _absorb([(mx, smin(*other))], fresh)
            assert len(fresh.names) == 2 and not disjs, k
            assert len(atoms) == 2 * k + 1, k


def test_a_disjunct_arm_takes_one_existential_per_n_ary_node():
    # min(max(a1..ak), y) <= x splits over max(a1..ak) <= n and y <= n;
    # absorbing the first arm draws one more name and gives k + 1 atoms,
    # and so does n <= min(a1..ak) from x <= max(min(a1..ak), y)
    x, y = SVar("x"), SVar("y")
    for k in range(2, 7):
        arms = [SVar(f"a{m}") for m in range(k)]
        for pair in ((SMin(smax(*arms), y), x), (x, SMax(smin(*arms), y))):
            fresh = _Fresh()
            atoms, (d,) = _absorb([pair], fresh)
            assert len(fresh.names) == 1 and len(atoms) == 1, (k, pair)
            arm_atoms, arm_disjs = d.delta(0)
            assert len(fresh.names) == 2 and not arm_disjs, (k, pair)
            assert len(arm_atoms) == k + 1, (k, pair)


def _maximal_min_max(s) -> int:
    # the min and max nodes whose parent is not a node of the same class
    count, stack = 0, [(s, None)]
    while stack:
        x, up = stack.pop()
        count += type(x) in (SMin, SMax) and type(x) is not up
        stack += [(kid, type(x)) for kid in x._kids()]
    return count


def test_the_absorbed_3cnf_encoding_has_one_existential_per_node():
    # the negated pair of the gen-hard encoding of random_3cnf(Random(7),
    # 24, 4.26), with every arm of every split absorbed: one existential
    # per maximal min or max node

    rng = random.Random(7)  # the sampler of bench/oracles.random_3cnf
    clauses = []
    for _ in range(round(4.26 * 24)):
        vs = rng.sample(range(1, 25), 3)
        clauses.append([(f"x{v}", rng.random() < 0.5) for v in vs])
    s1, s2 = encode_3cnf(clauses)
    pair = (normalize_succ(Succ(s1)), normalize_succ(Succ(s2)))
    fresh = _Fresh()
    _, disjs = _absorb([pair], fresh)
    splits = arms = 0
    while disjs:
        d = disjs.pop()
        splits += 1
        for i in range(len(d.arms)):
            arms += 1
            disjs += d.delta(i)[1]
    assert splits == 150 and arms == 402
    assert len(fresh.names) == sum(map(_maximal_min_max, pair)) == 152


def _runs_over(rng: random.Random, depth: int):
    # an oo-free size whose min and max nodes often sit under successor
    # runs, at every level
    if depth == 0 or rng.random() < 0.25:
        return size_plus(rng.choice((ZERO, I, J, K)), rng.randint(0, 2))
    cls = rng.choice((SMin, SMax))
    s = cls(_runs_over(rng, depth - 1), _runs_over(rng, depth - 1))
    return size_plus(s, rng.choice((0, 0, 1, 2)))


def _same_absorbed(raw, norm) -> None:
    # two results of `_absorb`, and of each disjunct arm's absorption,
    # that agree up to where +1 is pushed down
    assert (raw is None) == (norm is None)
    if raw is None:
        return
    (atoms, disjs), (n_atoms, n_disjs) = raw, norm
    assert atoms == n_atoms
    assert [(d.kind, d.n) for d in disjs] == [(d.kind, d.n) for d in n_disjs]
    for d, nd in zip(disjs, n_disjs):
        assert [normalize_succ(a) for a in d.arms] == \
            [normalize_succ(a) for a in nd.arms]
        for i in range(len(d.arms)):
            _same_absorbed(d.delta(i), nd.delta(i))


def test_absorbing_successor_runs_matches_absorbing_normalized_sizes():
    # `_absorb` takes a successor run over a min or max as that min or
    # max: on a pair as it is and on its `normalize_succ` it draws the
    # same names, gives the same atoms and splits, and arms that agree
    # once normalized; the solver's models agree, key order included
    from slam.constraints import _sat_conjunction

    rng = random.Random(34)
    a, b, c = SVar("a"), SVar("b"), SVar("c")
    pairs = [(SMax(Succ(SMax(a, b)), c), a), (c, SMin(Succ(SMin(a, b)), c)),
             (SMin(Succ(SMax(a, b)), c), ZERO),
             (Succ(a), SMax(size_plus(SMax(a, b), 2), c))]
    while len(pairs) < 600:
        s1, s2 = _runs_over(rng, 3), _runs_over(rng, 3)
        pairs.append((s1, s2) if rng.random() < 0.5 else (Succ(s2), s1))
    runs = 0
    for pair in pairs:
        normalized = tuple(map(normalize_succ, pair))
        runs += normalized != pair
        fresh, n_fresh = _Fresh(), _Fresh()
        _same_absorbed(_absorb([pair], fresh),
                       _absorb([normalized], n_fresh))
        assert fresh.names == n_fresh.names, pair
        model = _sat_conjunction([pair])
        n_model = _sat_conjunction([normalized])
        assert (model is None) == (n_model is None), pair
        if model is not None:
            assert list(model.items()) == list(n_model.items()), pair
    assert runs >= 500


def _wide_min_max_inputs() -> list[SizeConstraint]:
    # 4-8-arm max on the left and min on the right, beside each other and
    # inside the arms of splits, over three variables and constants up to
    # 2, so the oracle's completeness bound is at most 9; an arm may be a
    # min or max of two leaves of the other class, and k may be defined
    # in U by one over i and j
    rng = random.Random(53)
    names = ("i", "j", "k")
    other = {SMax: SMin, SMin: SMax}

    def leaf(vs=names):
        s = rng.choice((ZERO, ONE, SVar(rng.choice(vs))))
        return Succ(s) if rng.random() < 0.3 else s

    def arm(cls, vs):
        if rng.random() < 0.25:
            return other[cls](leaf(vs), leaf(vs))
        return leaf(vs)

    def wide(cls, vs=names):
        k = rng.randint(4, 8)
        return _wide(rng, cls, [arm(cls, vs) for _ in range(k)])

    out = []
    for _ in range(40):
        shape = rng.randrange(4)
        if shape == 0:
            pairs = [(wide(SMax), leaf()), (leaf(), wide(SMin))]
        elif shape == 1:
            pairs = [(wide(SMax), wide(SMin))]
        elif shape == 2:
            pairs = [(SMin(wide(SMax), leaf()), leaf())]
        else:
            pairs = [(leaf(), SMax(wide(SMin), leaf()))]
        u = {"k": wide(rng.choice((SMin, SMax)), names[:2])} \
            if rng.random() < 0.3 else {}
        out.append(SizeConstraint(u, pairs))
    return out


def test_wide_min_max_match_oracle_and_witnesses_check():
    verdicts = set()
    for c in _wide_min_max_inputs():
        res = is_valid(c)
        bound = completeness_bound(c)
        assert bound <= 9, c
        assert res.valid == brute_force_valid(c, bound), c
        verdicts.add(res.valid)
        if not res.valid:
            w = res.witness
            for i in c.u:
                assert eval_size(w, SVar(i)) == eval_size(w, c.u[i]), c
            assert res.violated in c.pairs, c
            a, b = res.violated
            assert eval_size(w, a) > eval_size(w, b), c
    assert verdicts == {True, False}


# -- the disjunct search against its reference ---------------------------------

def _random_3cnf_constraint(rng: random.Random, n: int) -> SizeConstraint:
    clauses = [[(f"x{v}", rng.random() < 0.5)
                for v in rng.sample(range(1, n + 1), 3)]
               for _ in range(round(4.26 * n))]
    s1, s2 = encode_3cnf(clauses)
    return SizeConstraint({}, [(Succ(s2), s1)])  # valid iff unsatisfiable


def _cnf_inputs() -> list[SizeConstraint]:
    rng = random.Random(1808)
    return [_random_3cnf_constraint(rng, n)
            for n in range(4, 11) for _ in range(2)]


def _nested_min_max_inputs() -> list[SizeConstraint]:
    # constraints over four size variables whose nested min/max give
    # disjunct arms of several atoms, drawn like the random constraint
    # files of tools/output_sweep.py: each let uses only later variables
    rng = random.Random(31)
    names = ("i", "j", "k", "l")
    out = []
    for _ in range(60):
        u = {x: rand_size(rng, 2, names[k + 1:], allow_inf=False)
             for k, x in enumerate(names[:rng.randint(0, 2)])}
        pairs = [(rand_size(rng, 3, names, allow_inf=False),
                  rand_size(rng, 3, names, allow_inf=False))
                 for _ in range(rng.randint(1, 3))]
        out.append(SizeConstraint(u, pairs))
    return out


def _search_inputs() -> list[SizeConstraint]:
    out = _cnf_inputs()
    out.append(parse_constraint_file((CORPUS_DIR / "bad.sc").read_text()))
    for fname in ("streams", "sp", "trees"):
        sf = load(fname)
        for name in sf.bindings:
            t = linked_reference(sf, name)
            c = infer(sf.registry, {}, t).constraint
            if c.u:
                out.append(c)
    return out


def _outcome(res):
    witness = None if res.witness is None \
        else list(res.witness.items())
    return res.valid, witness, res.violated


def test_search_matches_reference_and_never_rechecks_refused_arms(
        monkeypatch):
    # the search with refused arms remembered against the one that checks
    # every arm after every commit: the same verdict, witness (in order)
    # and violated pair, the same atoms committed in the same order,
    # never more arm checks, and no arm refused at a search node checked
    # again at that node or below it.  The nodes are read off the graph's
    # trail: the search opens one when it commits an arm after
    # `undo(mark)`, and it closes at the next undo to that mark or below;
    # a `_solve` call is the root node.
    checks = [0]
    commits = []  # the edges of each extend, but those made inside admits
    nodes: list[tuple[int, set[int]]] = []  # open nodes: (mark, refused)
    undone = [None]  # the mark of the last undo, until the next commit
    arms = []  # keeps every refused arm's atom list alive, so ids stay put
    admits, extend, undo = (DifferenceGraph.admits, DifferenceGraph.extend,
                            DifferenceGraph.undo)

    def counting_admits(g, atoms):
        checks[0] += 1
        assert not any(id(atoms) in r for _, r in nodes), atoms
        ok = admits(g, atoms)
        if not ok and nodes:
            nodes[-1][1].add(id(atoms))
            arms.append(atoms)
        return ok

    def tracking_undo(g, mark):
        while nodes and nodes[-1][0] >= mark:
            nodes.pop()
        undone[0] = mark
        return undo(g, mark)

    def tracking_extend(g, atoms):
        if sys._getframe(1).f_code is not admits.__code__:
            commits.append([a.edge for a in atoms])
        if nodes and undone[0] is not None:
            nodes.append((undone[0], set()))
        undone[0] = None
        return extend(g, atoms)

    solve = constraints._solve

    def tracked(g, splits):
        nodes.append((-1, set()))
        undone[0] = None
        try:
            return solve(g, splits)
        finally:
            nodes.clear()

    def reference(g, splits):
        assert all(e.live == list(range(len(e.disj.arms))) for e in splits)
        return solve_reference(g, [e.disj for e in splits])

    monkeypatch.setattr(DifferenceGraph, "admits", counting_admits)
    monkeypatch.setattr(DifferenceGraph, "extend", tracking_extend)
    monkeypatch.setattr(DifferenceGraph, "undo", tracking_undo)
    inputs = _search_inputs()
    saved = 0
    for c in inputs:
        runs = []
        for fn in (reference, tracked):
            monkeypatch.setattr(constraints, "_solve", fn)
            checks[0] = 0
            commits.clear()
            runs.append((_outcome(is_valid(c)), checks[0], commits[:]))
        (want, want_checks, want_commits), (got, got_checks, got_commits) \
            = runs
        assert got == want, c
        assert got_commits == want_commits, c
        assert got_checks <= want_checks, c
        saved += want_checks - got_checks
    assert sum(bool(c.u) for c in inputs) >= 5 and arms and saved


def test_search_checks_again_only_the_arms_whose_watch_moved(monkeypatch):
    # against the same search given watches that never hold, which checks
    # every live arm after every commit: the same verdict, witness and
    # violated pair, and the same arms refused.  On the 3-CNF inputs it
    # makes at most a third of the arm checks of the reference search,
    # which checks every arm; the nested min/max inputs check arms of
    # several atoms, whose watch never holds
    counts = [0, 0, 0]  # arm checks, refusals, checks of several atoms
    watching = [True]
    admits, solve = DifferenceGraph.admits, constraints._solve

    def counting_admits(g, atoms):
        counts[0] += 1
        counts[2] += len(atoms) != 1
        watch = admits(g, atoms)
        counts[1] += watch is None
        return watch if watching[0] or watch is None else True

    def run(c, watch=True, search=solve):
        monkeypatch.setattr(constraints, "_solve", search)
        watching[0] = watch
        counts[:] = [0, 0, 0]
        return _outcome(is_valid(c)), tuple(counts)

    def reference(g, splits):
        return solve_reference(g, [e.disj for e in splits])

    monkeypatch.setattr(DifferenceGraph, "admits", counting_admits)
    inputs = [(c, True) for c in _cnf_inputs()]
    inputs += [(c, False) for c in _nested_min_max_inputs()]
    several = 0
    for c, is_cnf in inputs:
        got, (checks, refused, of_several) = run(c)
        want, (all_checks, all_refused, _) = run(c, watch=False)
        assert got == want, c
        assert refused == all_refused and checks <= all_checks, c
        several += of_several > 0
        if is_cnf:
            _, (ref_checks, _, _) = run(c, search=reference)
            assert 3 * checks <= ref_checks, c
    assert several >= 10


def test_search_deeper_than_the_stack_decides():
    # a satisfiable ratio-1.0 formula over 200 variables branches on a
    # few hundred splits along one path; the search keeps its own stack,
    # so it decides with only 150 Python frames to spare
    rng = random.Random(7)  # the sampler of bench/oracles.random_3cnf
    clauses = []
    for _ in range(200):
        vs = rng.sample(range(1, 201), 3)
        clauses.append([(f"x{v}", rng.random() < 0.5) for v in vs])
    s1, s2 = encode_3cnf(clauses)
    c = SizeConstraint({}, [(Succ(s2), s1)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 150)
    try:
        res = is_valid(c)
    finally:
        sys.setrecursionlimit(limit)
    assert not res.valid
    w = res.witness  # a variable at 0 is true
    assert all(any((w[x] == 0) == pos for x, pos in cl) for cl in clauses)


def test_format_and_parse_round_trip_a_large_encoding():
    # the encoding nests min/max 1,200 deep; printing and parsing it
    # needs no deep Python stack (it is not solved: that takes seconds)
    rng = random.Random(11)
    clauses = [[(f"x{rng.randint(1, 40)}", rng.random() < 0.5)
                for _ in range(3)] for _ in range(1200)]
    s1, s2 = encode_3cnf(clauses)
    c = SizeConstraint({"n": s1}, [(Succ(s2), s1), (s2, SVar("n"))])
    assert parse_constraint_file(format_constraint(c)) == c
