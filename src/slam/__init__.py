"""Sized (co)inductive lambda calculus: checking, solving, evaluating.

A library and CLI for a small typed functional language whose
(co)inductive types carry size annotations: well-formedness of strictly
positive nested definitions, minimal-type inference with size-constraint
generation, a decision procedure for constraint validity, subtyping,
erasure to an untyped rewrite system, and a depth-bounded evaluation
harness that witnesses productivity on concrete programs.
"""

from .constraints import (
    SizeConstraint, Validity, check_acyclic, encode_3cnf, expand,
    expand_type, is_valid, parse_constraint_file, sat_atoms,
)
from .parser import (
    ParseError, SlamFile, parse_defs, parse_size, parse_slam, parse_term,
    parse_type,
)
from .printer import print_size, print_term, print_type
from .rewrite import (
    Approximant, Bottom, Constr, EvalBudget, NonObservableType, Opaque,
    OMEGA, ProductivityReport, Y_COMBINATOR, approximant, erase, member,
    observable, productivity_check, refines, whnf,
)
from .sizes import (
    eval_size, normalize_succ, overline, simplify_infty,
    size_ge_const, size_leq, underline,
)
from .subtyping import (
    BOT, Bot, chgtgt, gen_sub_constraints, join, meet, subtype, tgt,
)
from .syntax import (
    App, Arrow, Branch, Case, Coind, Cofix, Con, ConstructorSig, DefRegistry,
    Definition, Diagnostic, Fix, Forall, INFTY, Lam, ONE, PApp, PBranch,
    PCase, PCon, PLam, PVar, PlainTerm, RegistryError,
    SMax, SMin, SVar, SizeApp, SizeExpr, SizeLam, Succ, Term, TyVar, Type,
    Var, ZERO, alpha_eq, check_term_wf,
    check_type_wf, fsv, node_count, size_const, strictly_positive,
    subst_term, subst_type_sizes, sv, tv,
    validate_registry,
)
from .typecheck import (
    InferenceTriple, check, decompose_constructor_arg, infer,
    minimal_type,
)

__version__ = "0.1.0"
