"""Node and record classes: what importing them costs, and what a caller
sees of them (immutability, copying, pickling, hashing, equality)."""

import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import DATACLASS_REPR_FIELDS, load
from slam import (
    App, Arrow, Bot, Branch, Case, Cofix, Coind, Con, Fix, Forall, INFTY,
    Lam, PApp, PBranch, PCase, PCon, PLam, PVar, SMax, SMin, SVar,
    SizeApp, SizeLam, Succ, TyVar, Var, ZERO, parse_term,
)
from slam.constraints import (
    SizeConstraint, VarConst, VarVar, _Disj, is_valid,
)
from slam.parser import _TypeEnv, tokenize
from slam.rewrite import (
    Bottom, Constr, DepthVerdict, EvalBudget, Opaque, ProductivityReport,
    WhnfResult, erase, whnf,
)
from slam.syntax import ConstructorSig, Definition, Diagnostic
from slam.typecheck import Decomposed, InferenceTriple, infer

SRC = Path(__file__).resolve().parent.parent / "src"

# the fields of each class, in order: those its dataclass repr showed,
# and those of sizes, types and records with a repr of their own
FIELDS = {
    **DATACLASS_REPR_FIELDS,
    "SVar": ("name",), "Succ": ("base", "n"), "SMin": ("left", "right"),
    "SMax": ("left", "right"), "TyVar": ("name",),
    "Coind": ("defname", "size", "params"), "Arrow": ("dom", "cod"),
    "Forall": ("var", "body"),
    "_Disj": ("kind", "n", "arms", "deltas", "fresh"),
    "_TypeEnv": ("reg", "tyvars", "current_def", "current_params",
                 "headers"),
    "SlamFile": ("registry", "bindings"),
}


def test_importing_slam_loads_no_dataclasses():
    # generating dataclass methods was most of the import's cost; a fresh
    # interpreter shows what `import slam.cli` pulls in
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, slam, slam.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def _frozen_instances() -> list:
    # one of each class that is immutable and hashable
    i = SVar("i")
    nat = Coind("Nat", Succ(i), ())
    body = App(Var("f"), SizeApp(Var("x"), i))
    pbody = PApp(PVar("f"), PCon("zero"))
    sig = ConstructorSig("succ", (TyVar("Nat"),), (3, 5))
    return [
        ZERO, INFTY, i, Succ(Succ(i)), SMin(i, ZERO), SMax(i, INFTY),
        TyVar("A"), nat, Arrow(nat, TyVar("A")), Forall("i", nat), Bot(),
        Var("x"), Con("zero"), Lam("x", nat, body), body,
        SizeApp(Var("f"), i), SizeLam("i", body),
        Case(Var("x"), (Branch("succ", ("y",), body),)),
        Branch("zero", (), Con("zero")), Fix("f", Arrow(nat, nat), body),
        Cofix("j", "f", nat, body),
        PVar("x"), PCon("zero"), PLam("x", pbody), pbody,
        PCase(PVar("x"), (PBranch("succ", ("y",), pbody),)),
        PBranch("zero", (), pbody),
        Constr("succ", (Bottom(True), Opaque(pbody))), Bottom(),
        Opaque(pbody), EvalBudget(7, 2),
        sig, Definition("Nat", False, (), (sig,), (1, 1)),
        Diagnostic("bad", (2, 4)),
        VarVar("x", -1, "y"), VarConst("x", ">=", 2),
    ]


@pytest.mark.parametrize("x", _frozen_instances(),
                         ids=lambda x: type(x).__name__)
def test_frozen_nodes_refuse_changes_and_copy_and_pickle(x):
    derived = ("fv", "closed", "edge", "nodes", "steps", "limited")
    for name in FIELDS.get(type(x).__name__, ()) + derived:
        if not hasattr(x, name):
            continue
        value = getattr(x, name)
        with pytest.raises(AttributeError):
            setattr(x, name, value)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) is value
    with pytest.raises(AttributeError):
        x.extra = 1
    assert not hasattr(x, "extra")
    for y in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert y == x and not y != x and y is not x
        assert hash(y) == hash(x) and repr(y) == repr(x)
        assert type(y) is type(x)


def test_derived_fields_survive_copies():
    # what a constructor computes from its fields comes back with a copy
    lam = Lam("x", TyVar("A"), App(Var("x"), Var("y")))
    sig = ConstructorSig("cons", (TyVar("A"), Coind("Nat", INFTY)))
    atom = VarVar("x", 2, "y")
    tree = Constr("cons", (Bottom(True, 5), Opaque(PVar("f"), 2)), 3)
    for y in (copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        assert y(lam).fv == lam.fv == frozenset({"y"})
        assert y(sig).closed == sig.closed == (False, True)
        assert y(atom).edge == atom.edge == ("y", "x", -2)
        assert y(Con("z")).fv == frozenset()
        assert (y(tree).nodes, y(tree).steps, y(tree).limited) == \
            (tree.nodes, tree.steps, tree.limited) == (3, 10, True)


def _counts_by_tree_walk(a, own: dict) -> tuple:
    # (nodes, steps, limited) of the tree `a` stands for, a shared subtree
    # counted once per path; `own` maps id(node) to the steps it was
    # given for its own head
    nodes, steps, limited, todo = 0, 0, False, [a]
    while todo:
        x = todo.pop()
        nodes += 1
        steps += own[id(x)]
        limited = limited or type(x) is Bottom and x.fuel_limited
        if type(x) is Constr:
            todo.extend(x.children)
    return nodes, steps, limited


def test_approximants_count_themselves_as_trees():
    # each node counts its tree from its children's counts; a node shared
    # by k parents counts k times, and the counts take no part in ==,
    # hash or repr
    cut, stuck = Bottom(True, 4), Opaque(PApp(PVar("f"), PVar("x")), 1)
    pair = Constr("pair", (cut, stuck), 2)
    top = Constr("node", (pair, pair, Constr("zero", (), 3)), 1)
    assert (top.nodes, top.steps, top.limited) == (8, 18, True)
    plain = Constr("node", (Constr("pair", (Bottom(True), Opaque(
        PApp(PVar("f"), PVar("x"))))),) * 2 + (Constr("zero"),))
    assert (plain.nodes, plain.steps, plain.limited) == (8, 0, True)
    assert top == plain and hash(top) == hash(plain) and \
        repr(top) == repr(plain)
    rng = random.Random(5)
    pool = [Bottom(), Bottom(True, 3), Opaque(PVar("x"), 2), Constr("zero")]
    own = {id(pool[0]): 0, id(pool[1]): 3, id(pool[2]): 2, id(pool[3]): 0}
    for _ in range(60):
        kids = tuple(rng.choice(pool[-6:]) for _ in range(rng.randint(0, 3)))
        steps = rng.randint(0, 9)
        a = Constr(rng.choice(("succ", "cons", "node")), kids, steps)
        pool.append(a)
        own[id(a)] = steps
        assert (a.nodes, a.steps, a.limited) == _counts_by_tree_walk(a, own)
    assert max(a.nodes for a in pool) > len(pool)  # shared subtrees


def test_equality_compares_fields_of_one_class():
    # spans and a bottom's fuel mark take no part in == or hash, and no
    # record equals one of another class or a tuple of its fields
    a = ConstructorSig("c", (), (1, 1))
    b = ConstructorSig("c", (), (9, 9))
    assert a == b and hash(a) == hash(b) and repr(a) != repr(b)
    d = Definition("D", False, (), (a,), (1, 1))
    assert d == Definition("D", False, (), (b,)) and hash(d) == hash(
        Definition("D", False, (), (b,)))
    assert Bottom(True) == Bottom(False) and hash(Bottom(True)) == hash(
        Bottom(False))
    assert Diagnostic("m", (1, 2)) != Diagnostic("m")
    assert Var("x") != PVar("x") and Branch("c", (), Con("z")) != PBranch(
        "c", (), Con("z"))
    assert WhnfResult("value", PVar("x")) != ("value", PVar("x"))
    assert InferenceTriple({}, [], None, True) == InferenceTriple(
        {}, [], None, True, ())
    assert InferenceTriple({}, [], None, True) != InferenceTriple(
        {}, [], None, False)


def _mutable_records() -> list:
    sf = load("streams")
    t = parse_term("succ zero", sf.registry)
    return [
        SizeConstraint({"i": ZERO}, [(ZERO, SVar("i"))]),
        is_valid(SizeConstraint({}, [(Succ(ZERO), ZERO)])),
        _Disj("le", "n", (ZERO,), iter(())),
        tokenize("x")[0], _TypeEnv(sf.registry), sf,
        whnf(erase(t), 10), infer(sf.registry, {}, t),
        Decomposed(None, None, {}, TyVar("A")),
        DepthVerdict(0, True, 1, 0, False, Bottom()),
        ProductivityReport([], True, True, None),
    ]


@pytest.mark.parametrize("x", _mutable_records(),
                         ids=lambda x: type(x).__name__)
def test_mutable_records_are_unhashable_and_compare_fields(x):
    with pytest.raises(TypeError):
        hash(x)
    y = copy.copy(x)
    assert y == x and y is not x
    name = FIELDS[type(x).__name__][0]
    setattr(y, name, "changed")
    assert y != x and getattr(y, name) == "changed"
    assert repr(x).startswith(type(x).__name__ + "(")
