"""Parser for the surface language.

One regex scan turns a source into two flat lists, the token texts
(ended by "" for the end of the input) and their start offsets.  The
parser reads only the texts: a token's kind follows from its text.  The
line:col of an offset is found only for a ParseError or the span of a
definition or constructor, by bisecting the source's line starts, which
are listed at most once per source.  Sizes, types and terms nest without
bound, so each is parsed by one loop over an explicit stack of the
constructs still open.

Grammar sketch (tokens are bit-exact):

  sizes   0 | oo | IDENT | NUM | s+NUM | min(s,s) | max(s,s) | (s)
  types   A | Name^s(T,...) | Name(T,...) | Name^s | Name
        | T -> T (right assoc) | forall i. T | (T)
  terms   x | c | \\x : T. t | t t | t [s] | /\\i. t
        | case t of { c x1 .. xk => t; ... }
        | fix f : T . t | cofix[j] f : T . t
  defs    inductive Name(B1,...) { c1 : T; ... }   (coinductive likewise)
  files   definitions, then bindings `name = term;`

Bindings are kept as written: a name bound in the file stays a free
variable of the terms that use it.  Evaluation gives each binding one
shared thunk (`rewrite.closure`), and typing types a binding once or
inlines it; nothing substitutes every binding into a term.

Line comments start with `--` or `#`.  `min`/`max` accept two or more
arguments and nest to the left.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from functools import partial
from itertools import accumulate, chain, islice
from typing import Optional

from .syntax import (
    INFTY, ZERO, App, Arrow, Branch, Case, Coind, ConstructorSig, Cofix,
    DefRegistry, Definition, Fix, Forall, Lam, SVar, SizeApp, SizeExpr,
    SizeLam, Term, TyVar, Type, Var, Con, _Record, size_plus, smax, smin,
)

__all__ = [
    "ParseError", "parse_size", "parse_type", "parse_term", "parse_defs",
    "parse_slam", "SlamFile", "tokenize",
]

# The largest number of successors one size atom and the run of `+n`
# after it may spell.  `s+n` is one node whatever n is, so the cap guards
# no memory; it is a limit of the input language.
MAX_SIZE_NUMERAL = 10**6

_KEYWORDS = {
    "inductive", "coinductive", "case", "of", "fix", "cofix", "forall",
    "min", "max", "oo", "let", "assert",
}
_SYMBOLS = {"->", "=>", "/\\", "<=", "(", ")", "{", "}", "[", "]", "^", ",",
            ";", ":", ".", "=", "\\", "+"}
_RESERVED = _KEYWORDS | _SYMBOLS

# A token's kind follows from its text.  A name starts with a letter or
# '_', at or above "A"; the texts that are no names are the keywords,
# the symbols, the numbers and "", all of the last two below "A".  So
#   a name:               t >= "A" and t not in _RESERVED
#   a name or a keyword:  t >= "A" and t not in _SYMBOLS
#   a number:             "0" <= t < ":"

# The spaces and comments before a token, then the token: a name (Unicode
# letters included, then letters, digits, '_' and "'"), an ASCII number
# or a symbol, two-character symbols before their prefixes; `\Z` gives
# the "" that ends the input.  A comment in the gap must run to the end
# of its line, so a match that fails after a gap cannot be retried with a
# shorter gap that re-reads a comment as tokens.
_GAP = re.compile(r"[ \t\r\n]*(?:(?:--|\#)[^\n]*(?![^\n])[ \t\r\n]*)*")
_TOKEN = re.compile(f"({_GAP.pattern})" + r"""
    ([^\W\d][\w']*|[0-9]+|->|=>|/\\|<=|[(){}\[\]^,;:.=\\+]|\Z)
""", re.VERBOSE)
_COMMENT_AT_END = re.compile(r"(?:--|#)[^\n]*\Z")


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Token(_Record):
    _fields = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int) -> None:
        self.kind = kind  # ident | num | sym | eof
        self.text = text
        self.line = line
        self.col = col


def tokenize(src: str) -> list[Token]:
    """The tokens of src with their kind and line:col, as the parser's
    scan reads them."""
    p = _P(src)
    return [Token("eof" if not t else "num" if "0" <= t < ":" else
                  "sym" if t in _SYMBOLS else "ident", t, *p.where(i))
            for i, t in enumerate(p.toks)]


class _P:
    """The token texts of one source and the index of the next one."""

    def __init__(self, src: str):
        self.src = src
        self._line_starts: Optional[list[int]] = None
        matches = _TOKEN.findall(src)
        if len(matches) > 1 and not matches[-2][1]:
            matches.pop()  # a gap that ends src, then \Z once more
        gaps_and_toks = list(chain.from_iterable(matches))
        ends = list(accumulate(map(len, gaps_and_toks)))
        self.toks: list[str] = gaps_and_toks[1::2]
        self.starts: list[int] = ends[0::2]
        self.pos = 0
        # the matches cover src unless one failed at a character that
        # starts no token; a non-ASCII name must start with a letter
        if ends[-1] != len(src) or not src.isascii() and any(
                not t[0].isalpha() for t in self.toks if t > "\x7f"):
            self._refuse_character()

    def _refuse_character(self):
        # the first match that does not start where the last one ended,
        # or that reads a name with no letter first: the character after
        # the gap at its start is refused
        pos = 0
        for m in _TOKEN.finditer(self.src):
            tok = m.group(2)
            if m.start() != pos or tok > "\x7f" and not tok[0].isalpha():
                break
            pos = m.end()
        pos = _GAP.match(self.src, pos).end()
        raise ParseError(f"unexpected character {self.src[pos]!r}",
                         *self.line_col(pos))

    def line_col(self, offset: int) -> tuple[int, int]:
        if self._line_starts is None:
            self._line_starts = [0] + [m.end() for m in
                                       re.finditer("\n", self.src)]
        line = bisect_right(self._line_starts, offset)
        return line, offset - self._line_starts[line - 1] + 1

    def where(self, i: Optional[int] = None) -> tuple[int, int]:
        """The line:col of token i, by default the next one.  The end of
        the input is placed at a comment that ends the source."""
        i = self.pos if i is None else i
        m = None if self.toks[i] else _COMMENT_AT_END.search(self.src)
        return self.line_col(m.start() if m else self.starts[i])

    def fail(self, message: str, i: Optional[int] = None) -> ParseError:
        return ParseError(message, *self.where(i))

    def eat(self, s: str) -> None:
        if self.toks[self.pos] != s:
            raise self.fail(f"expected {s!r}")
        self.pos += 1

    def name(self, what: str = "identifier") -> str:
        t = self.toks[self.pos]
        if t < "A" or t in _RESERVED:
            raise self.fail(f"expected {what}")
        self.pos += 1
        return t

    # -- sizes and types -----------------------------------------------
    #
    # Sizes and types nest without bound too (`min(min(min(...` from
    # gen-hard, long arrow chains), so each is parsed by one loop over a
    # stack of frames for the constructs still open, as terms are.

    def size(self, atom: bool = False) -> SizeExpr:
        """A size, or with `atom` one that may follow '^' (a successor
        needs parentheses there)."""
        toks = self.toks
        # frames: (op, args) for the argument list of min/max, or for
        # ( _ ) when op is "(", which the size parsed next extends
        frames: list[tuple] = []
        while True:
            t = toks[self.pos]
            if "0" <= t < ":":
                base, n = ZERO, self.numeral(0)
            elif t == "oo":
                self.pos += 1
                base, n = INFTY, 0
            elif t == "min" or t == "max" or t == "(":
                self.pos += 1
                if t != "(":
                    self.eat("(")
                frames.append((t, []))
                continue
            elif t >= "A" and t not in _RESERVED:
                self.pos += 1
                base, n = SVar(t), 0
            else:
                raise self.fail("expected a size expression")
            # base+n is an atom: take the +n that follow it (unless only
            # an atom was asked for), then close the frames it finishes
            while True:
                if frames or not atom:
                    while toks[self.pos] == "+":
                        self.pos += 1
                        if not "0" <= toks[self.pos] < ":":
                            raise self.fail("expected a number after '+'")
                        n = self.numeral(n)
                s = size_plus(base, n)
                if not frames:
                    return s
                op, args = frames[-1]
                args.append(s)
                if op != "(" and toks[self.pos] == ",":
                    self.pos += 1
                    break
                self.eat(")")
                if op != "(" and len(args) < 2:
                    raise self.fail(f"{op} needs at least two arguments")
                frames.pop()
                n = 0
                base = args[0] if op == "(" else \
                    smin(*args) if op == "min" else smax(*args)

    def numeral(self, n: int) -> int:
        """n plus the number at the next token; a sum above
        MAX_SIZE_NUMERAL is refused."""
        t = self.toks[self.pos]
        # the length first: int() refuses more than 4,300 digits
        if len(t.lstrip("0")) > len(str(MAX_SIZE_NUMERAL)) \
                or n + int(t) > MAX_SIZE_NUMERAL:
            raise self.fail(f"size numeral above the limit of "
                            f"{MAX_SIZE_NUMERAL}")
        self.pos += 1
        return n + int(t)

    def type_(self, env: "_TypeEnv") -> Type:
        toks = self.toks
        # frames: (build,) for a forall or an arrow, which the type parsed
        # next completes; and (at, size, decorated, args) for the
        # parameter list of the name at token at, or for ( _ ) when at is
        # None, which it extends
        frames: list[tuple] = []
        while True:
            t = toks[self.pos]
            if t == "forall":
                self.pos += 1
                names = [self.name("size variable")]
                while (t := toks[self.pos]) >= "A" and t not in _RESERVED:
                    names.append(t)
                    self.pos += 1
                self.eat(".")
                frames += [(partial(Forall, nm),) for nm in names]
                continue
            if t == "(":
                self.pos += 1
                frames.append((None, INFTY, False, []))
                continue
            at = self.pos
            self.name("type")
            decorated = toks[self.pos] == "^"
            if decorated:
                self.pos += 1
            size = self.size(atom=True) if decorated else INFTY
            if toks[self.pos] == "(":
                # lookahead: '(' after a name is a parameter list
                self.pos += 1
                frames.append((at, size, decorated, []))
                continue
            ty = env.resolve(self, at, size, decorated, (), False)
            # ty is an atom: it heads an arrow, or it is a whole type
            # that closes the frames it finishes
            while True:
                if toks[self.pos] == "->":
                    self.pos += 1
                    frames.append((partial(Arrow, ty),))
                    break
                while frames and len(frames[-1]) == 1:
                    ty = frames.pop()[0](ty)
                if not frames:
                    return ty
                at, size, decorated, args = frames[-1]
                args.append(ty)
                if at is not None and toks[self.pos] == ",":
                    self.pos += 1
                    break
                self.eat(")")
                frames.pop()
                ty = args[0] if at is None else \
                    env.resolve(self, at, size, decorated, tuple(args), True)

    # -- terms ---------------------------------------------------------
    #
    # Terms nest without bound (`succ (succ (... zero))`), so one loop
    # parses them, with a stack of frames for the constructs still open
    # where a recursive descent would use a Python frame per level.  The
    # term parsed next finishes the top frame:
    #   ("bind", build, x)        the body of \x : T. or a fixpoint on x,
    #                             or of /\i. when x is None
    #   ("paren", fun)            ( _ ), an atom applied to fun (or the
    #                             head of an application when fun is None)
    #   ("scrutinee",)            case _ of { ... }
    #   ("branch", scrut, branches, seen, con, binders)
    # The names a frame binds are in scope from its opening to its end.
    # Tokens are read, and errors raised, in the order of the grammar.

    def term(self, env: "_TermEnv") -> Term:
        toks = self.toks
        frames: list[tuple] = []
        while True:
            # a term starts: open binders, cases and parentheses down to
            # the identifier that heads an application
            while True:
                t = toks[self.pos]
                if t == "(":
                    self.pos += 1
                    frames.append(("paren", None))
                elif t == "\\" or t == "fix" or t == "cofix":
                    self.pos += 1
                    if t == "cofix":
                        self.eat("[")
                        j = self.name("size variable")
                        self.eat("]")
                    x = self.name("variable")
                    self.eat(":")
                    ty = self.type_(env.types)
                    self.eat(".")
                    build = Lam if t == "\\" else Fix if t == "fix" else \
                        partial(Cofix, j)
                    frames.append(("bind", partial(build, x, ty), x))
                    env.bind(x)
                elif t == "/\\":
                    self.pos += 1
                    i = self.name("size variable")
                    self.eat(".")
                    frames.append(("bind", partial(SizeLam, i), None))
                elif t == "case":
                    self.pos += 1
                    frames.append(("scrutinee",))
                else:
                    break
            t = env.resolve(self.name("term"))
            # t heads an application: take its arguments, then close the
            # frames it finishes, until a new term has to start
            while True:
                t = self._app_args(t, env, frames)
                if t is None:
                    break  # a parenthesised argument opened
                t, more = self._close(t, env, frames)
                if t is None:
                    break  # a case branch opened
                if not more:
                    return t

    def _app_args(self, t: Term, env: "_TermEnv",
                  frames: list) -> Optional[Term]:
        """t applied to the size and term arguments that follow, or None
        after opening a frame for a parenthesised argument."""
        toks = self.toks
        while True:
            a = toks[self.pos]
            if a == "[":
                self.pos += 1
                s = self.size()
                self.eat("]")
                t = SizeApp(t, s)
            elif a == "(":
                self.pos += 1
                frames.append(("paren", t))
                return None
            elif a >= "A" and a not in _RESERVED:
                self.pos += 1
                t = App(t, env.resolve(a))
            else:
                return t

    def _close(self, t: Term, env: "_TermEnv", frames: list
               ) -> tuple[Optional[Term], bool]:
        """Finish the frames that the complete term t ends.  Returns
        (atom, True) for the atom a parenthesis closed, (None, True) when
        a case branch opened, and (term, False) when no frame is left."""
        toks = self.toks
        while frames:
            frame = frames.pop()
            kind = frame[0]
            if kind == "bind":
                t = frame[1](t)
                if frame[2] is not None:
                    env.unbind(frame[2])
                continue
            if kind == "paren":
                self.eat(")")
                return (t if frame[1] is None else App(frame[1], t)), True
            if kind == "scrutinee":
                self.eat("of")
                self.eat("{")
                scrut, branches, seen = t, [], set()
            else:
                _, scrut, branches, seen, con, binders = frame
                branches.append(Branch(con, binders, t))
                for b in binders:
                    env.unbind(b)
                if toks[self.pos] != ";":
                    self.eat("}")
                    t = Case(scrut, tuple(branches))
                    continue
                self.pos += 1
            if toks[self.pos] == "}":
                self.pos += 1
                t = Case(scrut, tuple(branches))
                continue
            at = self.pos
            con = self.name("constructor")
            if con in seen:
                raise self.fail(f"duplicate case branch for {con}", at)
            seen.add(con)
            binders = []
            while (b := toks[self.pos]) >= "A" and b not in _SYMBOLS:
                binders.append(self.name("variable"))
            self.eat("=>")
            frames.append(("branch", scrut, branches, seen, con,
                           tuple(binders)))
            for b in binders:
                env.bind(b)
            return None, True
        return t, False


class _TypeEnv(_Record):
    _fields = ("reg", "tyvars", "current_def", "current_params", "headers")

    def __init__(self, reg: DefRegistry, tyvars: frozenset[str] = frozenset(),
                 current_def: str | None = None,
                 current_params: tuple[str, ...] = (),
                 headers: dict[str, int] | None = None) -> None:
        self.reg = reg
        self.tyvars = tyvars
        self.current_def = current_def
        self.current_params = current_params
        self.headers = {} if headers is None else headers  # name -> arity

    def resolve(self, p: _P, at: int, size: SizeExpr, decorated: bool,
                args: tuple[Type, ...], has_args: bool) -> Type:
        """The type named by token at, with its size and parameters."""
        name = p.toks[at]
        if name == self.current_def:
            # recursive occurrence: must be applied to exactly the parameters
            if decorated:
                raise p.fail(
                    f"recursive occurrence of {name} cannot carry a size", at)
            expected = tuple(TyVar(q) for q in self.current_params)
            if args != expected:
                want = ",".join(self.current_params) or "no parameters"
                raise p.fail(f"recursive occurrence of {name} must be "
                             f"applied to exactly ({want})", at)
            return TyVar(name)
        if name in self.tyvars:
            if decorated or has_args:
                raise p.fail(f"type variable {name} takes no arguments", at)
            return TyVar(name)
        if name in self.headers:
            arity = self.headers[name]
        elif name in self.reg:
            arity = len(self.reg.definition(name).params)
        else:
            raise p.fail(f"unknown type {name}", at)
        if len(args) != arity:
            raise p.fail(
                f"{name} expects {arity} parameter(s), got {len(args)}", at)
        return Coind(name, size, args)


class _TermEnv:
    """The term variables in scope during one parse: how many open
    binders bind each name, so a binder costs O(1) to open and close."""

    def __init__(self, reg: DefRegistry):
        self.reg, self.types = reg, _TypeEnv(reg)
        self.bound: dict[str, int] = {}

    def bind(self, x: str) -> None:
        self.bound[x] = self.bound.get(x, 0) + 1

    def unbind(self, x: str) -> None:
        self.bound[x] -= 1

    def resolve(self, name: str) -> Term:
        if self.bound.get(name) or self.reg.constructor(name) is None:
            return Var(name)
        return Con(name)


def parse_size(src: str) -> SizeExpr:
    p = _P(src)
    s = p.size()
    if p.toks[p.pos]:
        raise p.fail("trailing input after size expression")
    return s


def parse_type(src: str, reg: DefRegistry,
               tyvars: frozenset[str] = frozenset()) -> Type:
    p = _P(src)
    t = p.type_(_TypeEnv(reg, tyvars=tyvars))
    if p.toks[p.pos]:
        raise p.fail("trailing input after type")
    return t


def parse_term(src: str, reg: DefRegistry) -> Term:
    p = _P(src)
    t = p.term(_TermEnv(reg))
    if p.toks[p.pos]:
        raise p.fail("trailing input after term")
    return t


def _parse_definition(p: _P, reg: DefRegistry, headers: dict[str, int]) -> Definition:
    coind = p.toks[p.pos] == "coinductive"  # or inductive
    p.pos += 1
    at = p.pos
    name = p.name("definition name")
    params: list[str] = []
    while p.toks[p.pos] == ("," if params else "("):
        p.pos += 1
        params.append(p.name("parameter variable"))
    if params:
        p.eat(")")
    if len(set(params)) != len(params) or name in params:
        raise p.fail(f"duplicate parameter name in {name}", at)
    tenv = _TypeEnv(reg, tyvars=frozenset(params), current_def=name,
                    current_params=tuple(params), headers=headers)
    p.eat("{")
    ctors: list[ConstructorSig] = []
    while p.toks[p.pos] != "}":
        cat = p.pos
        con = p.name("constructor name")
        p.eat(":")
        ty = p.type_(tenv)
        args: list[Type] = []
        target = ty
        while isinstance(target, Arrow):
            args.append(target.dom)
            target = target.cod
        if target != TyVar(name):
            raise p.fail(
                f"constructor {con} must end in the defined type {name}", cat)
        ctors.append(ConstructorSig(con, tuple(args), span=p.where(cat)))
        if p.toks[p.pos] == ";":
            p.pos += 1
        else:
            break
    close = p.pos
    p.eat("}")
    if not ctors:
        raise p.fail(f"{name}: empty constructor list", close)
    return Definition(name, coind, tuple(params), tuple(ctors),
                      span=p.where(at))


def parse_defs(src: str) -> DefRegistry:
    """Parse a sequence of (co)inductive definitions into a fresh registry.

    Validation is not run; call `validate_registry` afterwards.  Forward
    references between definitions parse fine (their arity is taken from
    the definition headers) so that dependency cycles are reported by
    validation rather than here.
    """
    reg, _rest = _parse_defs_prefix(src)
    return reg


def _collect_headers(p: _P) -> dict[str, int]:
    """The arity of each definition, read off its header, so that a
    definition may name a later one."""
    toks, headers = p.toks, {}
    for i, t in enumerate(toks):
        name = toks[i + 1] if t in ("inductive", "coinductive") else ""
        if name < "A" or name in _SYMBOLS:
            continue
        arity = depth = 0
        for tt in islice(toks, i + 2, None) if toks[i + 2] == "(" else ():
            depth += (tt == "(") - (tt == ")")
            if depth == 0:
                break
            if depth == 1 and (tt == "," or arity == 0 and tt >= "A"
                               and tt not in _SYMBOLS):
                arity += 1
        if name in headers:
            raise p.fail(f"duplicate definition {name}", i)
        headers[name] = arity
    return headers


def _parse_defs_prefix(src: str) -> tuple[DefRegistry, _P]:
    p = _P(src)
    headers = _collect_headers(p)
    reg = DefRegistry()
    while p.toks[p.pos] in ("inductive", "coinductive"):
        reg.add(_parse_definition(p, reg, headers))
    return reg, p


class SlamFile(_Record):
    """A parsed .slam file: a registry plus named terms, in file order.

    Each value in `bindings` is the term as written: references to other
    bindings, earlier or later in the file, are free variables.
    `reached` and `refs` follow those references.
    """

    _fields = ("registry", "bindings")

    def __init__(self, registry: DefRegistry, bindings: dict[str, Term]
                 ) -> None:
        self.registry = registry
        self.bindings = bindings
        self._refs: dict[str, list[str]] = {}

    def reached(self, t: Term, avoid: str | None = None) -> list[str]:
        """The bindings t refers to, directly or through other bindings,
        in file order.  The binding `avoid` is neither entered nor listed."""
        seen: set[str] = set()
        todo = [n for n in t.fv if n in self.bindings]
        while todo:
            n = todo.pop()
            if n in seen or n == avoid:
                continue
            seen.add(n)
            todo.extend(self.refs(n))
        return [n for n in self.bindings if n in seen]

    def refs(self, name: str) -> list[str]:
        """The bindings binding `name` refers to directly, sorted."""
        if name not in self._refs:
            self._refs[name] = sorted(m for m in self.bindings[name].fv
                                      if m in self.bindings)
        return self._refs[name]


def parse_slam(src: str) -> SlamFile:
    reg, p = _parse_defs_prefix(src)
    env = _TermEnv(reg)
    bindings: dict[str, Term] = {}
    while p.toks[p.pos]:
        at = p.pos
        name = p.name("binding name")
        if name in bindings:
            raise p.fail(f"duplicate binding {name}", at)
        p.eat("=")
        bindings[name] = p.term(env)
        p.eat(";")
    return SlamFile(reg, bindings)
