"""Parser for the surface language.

Sizes, types and terms nest without bound, so each is parsed by one
loop over an explicit stack of the constructs still open.

Grammar sketch (tokens are bit-exact):

  sizes   0 | oo | IDENT | NUM | s+NUM | min(s,s) | max(s,s) | (s)
  types   A | Name^s(T,...) | Name(T,...) | Name^s | Name
        | T -> T (right assoc) | forall i. T | (T)
  terms   x | c | \\x : T. t | t t | t [s] | /\\i. t
        | case t of { c x1 .. xk => t; ... }
        | fix f : T . t | cofix[j] f : T . t
  defs    inductive Name(B1,...) { c1 : T; ... }   (coinductive likewise)
  files   definitions, then bindings `name = term;`

Bindings are kept as written: a name bound earlier in the file stays a
free variable of the terms that use it.  `SlamFile.linked` substitutes
the bindings a term refers to, for the callers that need a closed term.

Line comments start with `--` or `#`.  `min`/`max` accept two or more
arguments and nest to the left.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from .syntax import (
    INFTY, App, Arrow, Branch, Case, Coind, ConstructorSig, Cofix,
    DefRegistry, Definition, Fix, Forall, Lam, SVar, SizeApp, SizeExpr,
    SizeLam, Term, TyVar, Type, Var, Con, size_const, size_plus, smax, smin,
    subst_term, term_free_vars,
)

__all__ = [
    "ParseError", "parse_size", "parse_type", "parse_term", "parse_defs",
    "parse_slam", "SlamFile", "tokenize",
]

# The largest numeral a size may spell: `s+n` is built as n successor
# nodes of about 130 bytes each.
MAX_SIZE_NUMERAL = 10**6

_KEYWORDS = {
    "inductive", "coinductive", "case", "of", "fix", "cofix", "forall",
    "min", "max", "oo", "let", "assert",
}

# One alternative per token kind, tried in this order: a comment wins
# over the '-' of '->', and two-character symbols over their prefixes.
# Identifiers start with a letter or '_' (Unicode letters included) and
# go on with letters, digits, '_' and "'"; numbers are ASCII digits only.
_TOKEN = re.compile(r"""
    (?P<nl>\n)
  | (?P<ws>[ \t\r]+)
  | (?P<comment>(?:--|\#)[^\n]*)
  | (?P<ident>[^\W\d][\w']*)
  | (?P<num>[0-9]+)
  | (?P<sym>->|=>|/\\|<=|[(){}\[\]^,;:.=\\+])
""", re.VERBOSE)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass
class Token:
    kind: str  # ident | num | sym | eof
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start = 1, 0
    pos, n = 0, len(src)
    end_col = 1  # a trailing comment leaves the column where it starts
    match = _TOKEN.match
    while pos < n:
        m = match(src, pos)
        kind = m.lastgroup if m is not None else None
        if kind is None or (kind == "ident" and not (src[pos].isalpha()
                                                     or src[pos] == "_")):
            raise ParseError(f"unexpected character {src[pos]!r}", line,
                             pos - line_start + 1)
        end = m.end()
        if kind == "nl":
            line += 1
            line_start = end
            end_col = 1
        elif kind == "comment":
            end_col = pos - line_start + 1
        else:
            if kind != "ws":
                toks.append(Token(kind, m.group(), line,
                                  pos - line_start + 1))
            end_col = end - line_start + 1
        pos = end
    toks.append(Token("eof", "", line, end_col))
    return toks


class _P:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, message: str) -> "ParseError":
        t = self.peek()
        return ParseError(message, t.line, t.col)

    def at_sym(self, s: str) -> bool:
        t = self.peek()
        return t.kind == "sym" and t.text == s

    def at_word(self, w: str) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.text == w

    def eat_sym(self, s: str) -> Token:
        if not self.at_sym(s):
            raise self.fail(f"expected {s!r}")
        return self.next()

    def eat_word(self, w: str) -> Token:
        if not self.at_word(w):
            raise self.fail(f"expected {w!r}")
        return self.next()

    def eat_ident(self, what: str = "identifier") -> Token:
        t = self.peek()
        if t.kind != "ident" or t.text in _KEYWORDS:
            raise self.fail(f"expected {what}")
        return self.next()

    # -- sizes and types -----------------------------------------------
    #
    # Sizes and types nest without bound too (`min(min(min(...` from
    # gen-hard, long arrow chains), so each is parsed by one loop over a
    # stack of frames for the constructs still open, as terms are.

    def size(self, atom: bool = False) -> SizeExpr:
        """A size, or with `atom` one that may follow '^' (a successor
        needs parentheses there)."""
        # frames: (op, args) for the argument list of min/max, or for
        # ( _ ) when op is None, which the size parsed next extends
        frames: list[tuple] = []
        while True:
            t = self.peek()
            if t.kind == "num":
                s = size_const(self.size_numeral())
            elif self.at_word("oo"):
                self.next()
                s = INFTY
            elif self.at_word("min") or self.at_word("max"):
                op = self.next().text
                self.eat_sym("(")
                frames.append((op, []))
                continue
            elif self.at_sym("("):
                self.next()
                frames.append((None, []))
                continue
            elif t.kind == "ident" and t.text not in _KEYWORDS:
                self.next()
                s = SVar(t.text)
            else:
                raise self.fail("expected a size expression")
            # s is an atom: take the +n that follow it (unless only an
            # atom was asked for), then close the frames it finishes
            while True:
                if atom and not frames:
                    return s
                while self.at_sym("+"):
                    self.next()
                    if self.peek().kind != "num":
                        raise self.fail("expected a number after '+'")
                    s = size_plus(s, self.size_numeral())
                if not frames:
                    return s
                op, args = frames[-1]
                args.append(s)
                if op and self.at_sym(","):
                    self.next()
                    break
                self.eat_sym(")")
                if op and len(args) < 2:
                    raise self.fail(f"{op} needs at least two arguments")
                frames.pop()
                s = args[0] if op is None else \
                    smin(*args) if op == "min" else smax(*args)

    def size_numeral(self) -> int:
        """The number at the next token.  A size n is n successor nodes,
        so a numeral above MAX_SIZE_NUMERAL is refused."""
        t = self.next()
        # the length first: int() refuses more than 4,300 digits
        if len(t.text.lstrip("0")) > len(str(MAX_SIZE_NUMERAL)) \
                or int(t.text) > MAX_SIZE_NUMERAL:
            raise ParseError(f"size numeral above the limit of "
                             f"{MAX_SIZE_NUMERAL}", t.line, t.col)
        return int(t.text)

    def type_(self, env: "_TypeEnv") -> Type:
        # frames: (build,) for a forall or an arrow, which the type parsed
        # next completes; and (tok, size, decorated, args) for the
        # parameter list of tok, or for ( _ ) when tok is None, which it
        # extends
        frames: list[tuple] = []
        while True:
            if self.at_word("forall"):
                self.next()
                names = [self.eat_ident("size variable").text]
                while self.peek().kind == "ident" and not self.at_sym("."):
                    if self.peek().text in _KEYWORDS:
                        break
                    names.append(self.next().text)
                self.eat_sym(".")
                frames += [(partial(Forall, nm),) for nm in names]
                continue
            if self.at_sym("("):
                self.next()
                frames.append((None, INFTY, False, []))
                continue
            tok = self.eat_ident("type")
            size: SizeExpr = INFTY
            decorated = self.at_sym("^")
            if decorated:
                self.next()
                size = self.size(atom=True)
            if self.at_sym("("):
                # lookahead: '(' after a name is a parameter list
                self.next()
                frames.append((tok, size, decorated, []))
                continue
            t = env.resolve(self, tok, size, decorated, (), False)
            # t is an atom: it heads an arrow, or it is a whole type
            # that closes the frames it finishes
            while True:
                if self.at_sym("->"):
                    self.next()
                    frames.append((partial(Arrow, t),))
                    break
                while frames and len(frames[-1]) == 1:
                    t = frames.pop()[0](t)
                if not frames:
                    return t
                tok, size, decorated, args = frames[-1]
                args.append(t)
                if tok and self.at_sym(","):
                    self.next()
                    break
                self.eat_sym(")")
                frames.pop()
                t = args[0] if tok is None else \
                    env.resolve(self, tok, size, decorated, tuple(args), True)

    # -- terms ---------------------------------------------------------
    #
    # Terms nest without bound (`succ (succ (... zero))`), so one loop
    # parses them, with a stack of frames for the constructs still open
    # where a recursive descent would use a Python frame per level.  The
    # term parsed next finishes the top frame:
    #   ("bind", build)            the body of \x : T. or /\i. or a fixpoint
    #   ("paren", fun, env)        ( _ ), an atom applied to fun (or the
    #                              head of an application when fun is None)
    #   ("scrutinee", env)         case _ of { ... }
    #   ("branch", scrut, branches, seen, env, con, binders)
    # Tokens are read, and errors raised, in the order of the grammar.

    def term(self, env: "_TermEnv") -> Term:
        frames: list[tuple] = []
        while True:
            # a term starts: open binders, cases and parentheses down to
            # the identifier that heads an application
            while True:
                if self.at_sym("\\"):
                    self.next()
                    x = self.eat_ident("variable").text
                    self.eat_sym(":")
                    ty = self.type_(env.types)
                    self.eat_sym(".")
                    frames.append(("bind", partial(Lam, x, ty)))
                    env = env.bind(x)
                elif self.at_sym("/\\"):
                    self.next()
                    i = self.eat_ident("size variable").text
                    self.eat_sym(".")
                    frames.append(("bind", partial(SizeLam, i)))
                elif self.at_word("fix"):
                    self.next()
                    f = self.eat_ident("variable").text
                    self.eat_sym(":")
                    ty = self.type_(env.types)
                    self.eat_sym(".")
                    frames.append(("bind", partial(Fix, f, ty)))
                    env = env.bind(f)
                elif self.at_word("cofix"):
                    self.next()
                    self.eat_sym("[")
                    j = self.eat_ident("size variable").text
                    self.eat_sym("]")
                    f = self.eat_ident("variable").text
                    self.eat_sym(":")
                    ty = self.type_(env.types)
                    self.eat_sym(".")
                    frames.append(("bind", partial(Cofix, j, f, ty)))
                    env = env.bind(f)
                elif self.at_word("case"):
                    self.next()
                    frames.append(("scrutinee", env))
                elif self.at_sym("("):
                    self.next()
                    frames.append(("paren", None, env))
                else:
                    break
            t = env.resolve(self.eat_ident("term").text)
            # t heads an application: take its arguments, then close the
            # frames it finishes, until a new term has to start
            while True:
                t = self._app_args(t, env, frames)
                if t is None:
                    break  # a parenthesised argument opened
                t, env = self._close(t, frames)
                if t is None:
                    break  # a case branch opened
                if env is None:
                    return t

    def _app_args(self, t: Term, env: "_TermEnv",
                  frames: list) -> Optional[Term]:
        """t applied to the size and term arguments that follow, or None
        after opening a frame for a parenthesised argument."""
        while True:
            if self.at_sym("["):
                self.next()
                s = self.size()
                self.eat_sym("]")
                t = SizeApp(t, s)
            elif self.at_sym("("):
                self.next()
                frames.append(("paren", t, env))
                return None
            elif self.peek().kind == "ident" and \
                    self.peek().text not in _KEYWORDS:
                t = App(t, env.resolve(self.next().text))
            else:
                return t

    def _close(self, t: Term, frames: list
               ) -> tuple[Optional[Term], Optional["_TermEnv"]]:
        """Finish the frames that the complete term t ends.  Returns the
        closed atom and its environment after a parenthesis, (None, env)
        when a case branch opened whose body is to be parsed in env, and
        (term, None) when no frame is left."""
        while frames:
            frame = frames.pop()
            kind = frame[0]
            if kind == "bind":
                t = frame[1](t)
                continue
            if kind == "paren":
                self.eat_sym(")")
                return (t if frame[1] is None else App(frame[1], t)), frame[2]
            if kind == "scrutinee":
                env = frame[1]
                self.eat_word("of")
                self.eat_sym("{")
                scrut, branches, seen = t, [], set()
            else:
                _, scrut, branches, seen, env, con, binders = frame
                branches.append(Branch(con, binders, t))
                if not self.at_sym(";"):
                    self.eat_sym("}")
                    t = Case(scrut, tuple(branches))
                    continue
                self.next()
            if self.at_sym("}"):
                self.next()
                t = Case(scrut, tuple(branches))
                continue
            ctok = self.eat_ident("constructor")
            if ctok.text in seen:
                raise ParseError(f"duplicate case branch for {ctok.text}",
                                 ctok.line, ctok.col)
            seen.add(ctok.text)
            binders = []
            while self.peek().kind == "ident" and not self.at_sym("=>"):
                binders.append(self.eat_ident("variable").text)
            self.eat_sym("=>")
            frames.append(("branch", scrut, branches, seen, env, ctok.text,
                           tuple(binders)))
            for b in binders:
                env = env.bind(b)
            return None, env
        return t, None


@dataclass
class _TypeEnv:
    reg: DefRegistry
    tyvars: frozenset[str] = frozenset()
    current_def: str | None = None
    current_params: tuple[str, ...] = ()
    headers: dict[str, int] = field(default_factory=dict)  # name -> arity

    def resolve(self, p: _P, tok: Token, size: SizeExpr, decorated: bool,
                args: tuple[Type, ...], has_args: bool) -> Type:
        name = tok.text
        if name == self.current_def:
            # recursive occurrence: must be applied to exactly the parameters
            if decorated:
                raise ParseError(
                    f"recursive occurrence of {name} cannot carry a size",
                    tok.line, tok.col)
            expected = tuple(TyVar(q) for q in self.current_params)
            if args != expected:
                want = ",".join(self.current_params) or "no parameters"
                raise ParseError(
                    f"recursive occurrence of {name} must be applied to "
                    f"exactly ({want})", tok.line, tok.col)
            return TyVar(name)
        if name in self.tyvars:
            if decorated or has_args:
                raise ParseError(f"type variable {name} takes no arguments",
                                 tok.line, tok.col)
            return TyVar(name)
        arity = None
        if name in self.headers:
            arity = self.headers[name]
        elif name in self.reg:
            arity = len(self.reg.definition(name).params)
        if arity is None:
            raise ParseError(f"unknown type {name}", tok.line, tok.col)
        if len(args) != arity:
            raise ParseError(
                f"{name} expects {arity} parameter(s), got {len(args)}",
                tok.line, tok.col)
        return Coind(name, size, args)


@dataclass
class _TermEnv:
    reg: DefRegistry
    types: _TypeEnv
    bound: frozenset[str] = frozenset()

    def bind(self, x: str) -> "_TermEnv":
        return _TermEnv(self.reg, self.types, self.bound | {x})

    def resolve(self, name: str) -> Term:
        if name in self.bound:
            return Var(name)
        if self.reg.constructor(name) is not None:
            return Con(name)
        return Var(name)


def parse_size(src: str) -> SizeExpr:
    p = _P(tokenize(src))
    s = p.size()
    if p.peek().kind != "eof":
        raise p.fail("trailing input after size expression")
    return s


def parse_type(src: str, reg: DefRegistry,
               tyvars: frozenset[str] = frozenset()) -> Type:
    p = _P(tokenize(src))
    t = p.type_(_TypeEnv(reg, tyvars=tyvars))
    if p.peek().kind != "eof":
        raise p.fail("trailing input after type")
    return t


def parse_term(src: str, reg: DefRegistry) -> Term:
    p = _P(tokenize(src))
    t = p.term(_TermEnv(reg, _TypeEnv(reg)))
    if p.peek().kind != "eof":
        raise p.fail("trailing input after term")
    return t


def _parse_definition(p: _P, reg: DefRegistry, headers: dict[str, int]) -> Definition:
    kw = p.next()  # inductive | coinductive
    coind = kw.text == "coinductive"
    name_tok = p.eat_ident("definition name")
    name = name_tok.text
    params: list[str] = []
    if p.at_sym("("):
        p.next()
        params.append(p.eat_ident("parameter variable").text)
        while p.at_sym(","):
            p.next()
            params.append(p.eat_ident("parameter variable").text)
        p.eat_sym(")")
    if len(set(params)) != len(params) or name in params:
        raise ParseError(f"duplicate parameter name in {name}",
                         name_tok.line, name_tok.col)
    tenv = _TypeEnv(reg, tyvars=frozenset(params), current_def=name,
                    current_params=tuple(params), headers=headers)
    p.eat_sym("{")
    ctors: list[ConstructorSig] = []
    while not p.at_sym("}"):
        ctok = p.eat_ident("constructor name")
        p.eat_sym(":")
        ty = p.type_(tenv)
        args: list[Type] = []
        target = ty
        while isinstance(target, Arrow):
            args.append(target.dom)
            target = target.cod
        if target != TyVar(name):
            raise ParseError(
                f"constructor {ctok.text} must end in the defined type {name}",
                ctok.line, ctok.col)
        ctors.append(ConstructorSig(ctok.text, tuple(args),
                                    span=(ctok.line, ctok.col)))
        if p.at_sym(";"):
            p.next()
        else:
            break
    close = p.eat_sym("}")
    if not ctors:
        raise ParseError(f"{name}: empty constructor list",
                         close.line, close.col)
    return Definition(name, coind, tuple(params), tuple(ctors),
                      span=(name_tok.line, name_tok.col))


def parse_defs(src: str) -> DefRegistry:
    """Parse a sequence of (co)inductive definitions into a fresh registry.

    Validation is not run; call `validate_registry` afterwards.  Forward
    references between definitions parse fine (their arity is taken from
    the definition headers) so that dependency cycles are reported by
    validation rather than here.
    """
    reg, _rest = _parse_defs_prefix(src)
    return reg


def _collect_headers(toks: list[Token]) -> dict[str, int]:
    headers: dict[str, int] = {}
    i = 0
    while i < len(toks):
        t = toks[i]
        if t.kind == "ident" and t.text in ("inductive", "coinductive"):
            if i + 1 < len(toks) and toks[i + 1].kind == "ident":
                name = toks[i + 1].text
                arity = 0
                j = i + 2
                if j < len(toks) and toks[j].kind == "sym" and toks[j].text == "(":
                    depth = 0
                    while j < len(toks):
                        tt = toks[j]
                        if tt.kind == "sym" and tt.text == "(":
                            depth += 1
                        elif tt.kind == "sym" and tt.text == ")":
                            depth -= 1
                            if depth == 0:
                                break
                        elif tt.kind == "sym" and tt.text == "," and depth == 1:
                            arity += 1
                        elif tt.kind == "ident" and depth == 1 and arity == 0:
                            arity = 1
                        j += 1
                if name in headers:
                    raise ParseError(f"duplicate definition {name}",
                                     t.line, t.col)
                headers[name] = arity
        i += 1
    return headers


def _parse_defs_prefix(src: str) -> tuple[DefRegistry, _P]:
    toks = tokenize(src)
    headers = _collect_headers(toks)
    p = _P(toks)
    reg = DefRegistry()
    while p.at_word("inductive") or p.at_word("coinductive"):
        reg.add(_parse_definition(p, reg, headers))
    return reg, p


@dataclass
class SlamFile:
    """A parsed .slam file: a registry plus named terms, in file order.

    Each value in `bindings` is the term as written: references to other
    bindings are free variables.  `linked(name)` gives the term with the
    earlier bindings it refers to substituted in, as a closed term when
    the file has no forward references.
    """

    registry: DefRegistry
    bindings: dict[str, Term]
    _refs: dict[str, list[str]] = field(default_factory=dict, init=False,
                                        repr=False, compare=False)
    _linked: dict[str, Term] = field(default_factory=dict, init=False,
                                     repr=False, compare=False)

    def reached(self, t: Term, avoid: str | None = None) -> list[str]:
        """The bindings t refers to, directly or through other bindings,
        in file order.  The binding `avoid` is neither entered nor listed."""
        seen: set[str] = set()
        todo = [n for n in term_free_vars(t) if n in self.bindings]
        while todo:
            n = todo.pop()
            if n in seen or n == avoid:
                continue
            seen.add(n)
            todo.extend(self.refs(n))
        return [n for n in self.bindings if n in seen]

    def refs(self, name: str) -> list[str]:
        """The bindings binding `name` refers to directly."""
        if name not in self._refs:
            self._refs[name] = [m for m in term_free_vars(self.bindings[name])
                                if m in self.bindings]
        return self._refs[name]

    def linked(self, name: str) -> Term:
        """Binding `name` with every earlier binding it reaches substituted
        in, capture-avoiding and in file order.  A reference to a later
        binding (or to itself) stays a free variable.  The earlier
        bindings it reaches are linked first, in file order, each once."""
        if name not in self._linked:
            pos = {n: i for i, n in enumerate(self.bindings)}
            for n in [*self.reached(self.bindings[name]), name]:
                if pos[n] > pos[name] or n in self._linked:
                    continue
                t = self.bindings[n]
                for prev in self.reached(t):
                    if pos[prev] < pos[n]:
                        t = subst_term(t, self._linked[prev], prev)
                self._linked[n] = t
        return self._linked[name]


def parse_slam(src: str) -> SlamFile:
    reg, p = _parse_defs_prefix(src)
    bindings: dict[str, Term] = {}
    while p.peek().kind != "eof":
        name_tok = p.eat_ident("binding name")
        if name_tok.text in bindings:
            raise ParseError(f"duplicate binding {name_tok.text}",
                             name_tok.line, name_tok.col)
        p.eat_sym("=")
        bindings[name_tok.text] = p.term(_TermEnv(reg, _TypeEnv(reg)))
        p.eat_sym(";")
    return SlamFile(reg, bindings)
