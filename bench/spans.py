"""Span recorder for the traced run.

Spans wrap a public function of a slam module at every module attribute
that names it, which is where its callers look it up, so calls from
other modules and from the defining module itself (recursion included)
are both seen.  Nothing is wrapped unless `Recorder.install` is called;
`uninstall` puts the original functions back.

A span is (name, start, end, parent span, input id).  Spans are kept in
flat arrays and written once, at the end.  A layer's self time is its
spans' duration minus the part their child spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# Layer boundaries, by module: the functions the CLI drives and the ones
# the ROADMAP names as where verdict time goes.
LAYERS = {
    "cli": ("main",),
    "parser": ("parse_slam", "parse_term"),
    "syntax": ("subst_term", "check_term_wf", "validate_registry"),
    "typecheck": ("minimal_type", "infer"),
    "subtyping": ("gen_sub_constraints", "subtype"),
    "constraints": ("parse_constraint_file", "is_valid", "sat_atoms",
                    "expand_type"),
    "sizes": ("normalize_succ", "simplify_infty"),
    "printer": ("print_type",),
    "rewrite": ("erase", "approximant", "productivity_check", "whnf",
                "psubst", "member"),
}

TIMED = [f"{m}.{f}" for m, fs in LAYERS.items() for f in fs]
CALLS = ("constraints.sat_atoms", "constraints.is_valid",
         "subtyping.gen_sub_constraints", "syntax.subst_term", "rewrite.whnf")

PER_LAYER = (
    [(f"{name}.self_s", "s") for name in TIMED]
    + [(f"{name}.calls", "count") for name in CALLS]
    + [("constraints.sat_atoms.atoms_mean", "count"),
       ("constraints.sat_atoms.unsat_share", "share"),
       ("typecheck.u_size", "count"), ("typecheck.s_size", "count"),
       ("parser.linked_nodes", "count"), ("rewrite.whnf.steps", "count"),
       ("rewrite.approx_nodes", "count"),
       ("rewrite.fuel_limited_share", "share"),
       ("trace.overhead_share", "share")]
)

_TERM_NODES = {"Var", "Con", "Lam", "App", "SizeApp", "SizeLam", "Case",
               "Fix", "Cofix"}


def tree_nodes(t) -> int:
    """Term nodes of a decorated term as a tree, shared subterms counted
    once per occurrence; iterative, so depth does not matter."""
    memo: dict[int, int] = {}
    stack = [(t, False)]
    while stack:
        node, done = stack.pop()
        if id(node) in memo:
            continue
        kids = _children(node)
        if done:
            memo[id(node)] = 1 + sum(memo[id(k)] for k in kids)
        else:
            stack.append((node, True))
            stack.extend((k, False) for k in kids if id(k) not in memo)
    return memo[id(t)]


def _children(node) -> list:
    out = []
    for value in vars(node).values():
        if type(value).__name__ in _TERM_NODES:
            out.append(value)
        elif isinstance(value, tuple):  # case branches
            out.extend(b.body for b in value)
    return out


def _approx_stats(a) -> tuple[int, bool]:
    """Nodes of an approximant and whether fuel cut some branch."""
    nodes, limited, stack = 0, False, [a]
    while stack:
        a = stack.pop()
        nodes += 1
        limited = limited or getattr(a, "fuel_limited", False)
        stack.extend(getattr(a, "children", ()))
    return nodes, limited


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.input = array("i")
        self.stack: list[int] = []
        self.input_id = -1
        self.counts: Counter = Counter()
        self.u_size = 0
        self.s_size = 0
        self._sites: list[tuple[object, str, object, object]] = []

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function at each slam module attribute that
        names it.  The sites are found once, on the first call."""
        if not self._sites:
            mods = [m for k, m in sys.modules.items()
                    if k == "slam" or k.startswith("slam.")]
            for mod, fnames in LAYERS.items():
                for fname in fnames:
                    fn = getattr(sys.modules[f"slam.{mod}"], fname)
                    wrapper = self._wrap(f"{mod}.{fname}", fn)
                    self._sites += [(m, attr, fn, wrapper) for m in mods
                                    for attr, v in vars(m).items() if v is fn]
        for m, attr, _fn, wrapper in self._sites:
            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn, _wrapper in self._sites:
            setattr(m, attr, fn)

    def _wrap(self, name: str, fn):
        self.names.append(name)
        nid = len(self.names) - 1
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        stack, start, end = self.stack, self.start, self.end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.input.append(self.input_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(idx, args, result)
            return result

        return wrapper

    # -- counts at the boundaries ------------------------------------------

    def _on_constraints_sat_atoms(self, idx, args, result) -> None:
        self.counts["sat_atoms.atoms"] += len(args[0])
        self.counts["sat_atoms.unsat"] += result is None

    def _on_typecheck_infer(self, idx, args, result) -> None:
        self.u_size = max(self.u_size, len(result.u))
        self.s_size = max(self.s_size, len(result.pairs))

    def _on_syntax_check_term_wf(self, idx, args, result) -> None:
        self.counts["linked_nodes"] += tree_nodes(args[0])

    def _on_rewrite_whnf(self, idx, args, result) -> None:
        p = self.parent[idx]
        if p < 0 or self.names[self.name[p]] != "rewrite.whnf":
            self.counts["whnf.steps"] += result.steps

    def _on_rewrite_approximant(self, idx, args, result) -> None:
        nodes, limited = _approx_stats(result)
        self.counts["approx"] += 1
        self.counts["approx.nodes"] += nodes
        self.counts["approx.fuel_limited"] += limited

    def _on_rewrite_productivity_check(self, idx, args, result) -> None:
        for d in result.verdicts:
            self.counts["approx"] += 1
            self.counts["approx.nodes"] += d.nodes
            self.counts["approx.fuel_limited"] += d.fuel_limited

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = dict.fromkeys(self.names, 0.0)
        for i, nid in enumerate(self.name):
            out[self.names[nid]] += self.end[i] - self.start[i] - covered[i]
        return out

    def calls(self) -> Counter:
        return Counter(self.names[nid] for nid in self.name)

    def layer_metrics(self, rounds: int, overhead: float) -> dict[str, float]:
        """Per-round values of every per-layer metric."""
        selfs, calls, c = self.self_times(), self.calls(), self.counts
        out = {f"{n}.self_s": selfs[n] / rounds for n in TIMED}
        out.update({f"{n}.calls": calls[n] / rounds for n in CALLS})
        sat_calls = calls["constraints.sat_atoms"]
        out["constraints.sat_atoms.atoms_mean"] = \
            c["sat_atoms.atoms"] / sat_calls if sat_calls else 0.0
        out["constraints.sat_atoms.unsat_share"] = \
            c["sat_atoms.unsat"] / sat_calls if sat_calls else 0.0
        out["typecheck.u_size"] = self.u_size
        out["typecheck.s_size"] = self.s_size
        out["parser.linked_nodes"] = c["linked_nodes"] / rounds
        out["rewrite.whnf.steps"] = c["whnf.steps"] / rounds
        out["rewrite.approx_nodes"] = c["approx.nodes"] / rounds
        out["rewrite.fuel_limited_share"] = \
            c["approx.fuel_limited"] / c["approx"] if c["approx"] else 0.0
        out["trace.overhead_share"] = overhead
        return out

    def write(self, path: Path) -> None:
        """All spans, one per line: id, parent, input, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write("span\tparent\tinput\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                f.write(f"{i}\t{self.parent[i]}\t{self.input[i]}\t"
                        f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                        f"{self.end[i]:.9f}\n")
