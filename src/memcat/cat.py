"""The model language: a small relational calculus over one candidate.

A model is a sequence of `let` bindings (possibly mutually recursive)
and checks (`acyclic e`, `irreflexive e`).  Expressions combine named
relations with union, intersection, difference, sequence, transitive
and reflexive-transitive closure, and direction filters like WW(e).

Checks are named by an `as` suffix, else by the last comment seen
before them (lowercased, spaces to hyphens), else positionally.

`include "f.cat"` splices another file's statements in at load time, so
a model is always one flat statement list.

A model is compiled once, at its first bind, into functions of a chunk
of consecutive candidates, whose relations are packed into one int each
(a bundle, see relation.Packing).  Each let and let rec that reads only
names every candidate of a test shares (po, po-loc, deps, fences, 0, id
and lets built from them) runs once per test (bind), on a chunk of one;
the rest runs once per chunk, on those values repeated into every block
and the chunk's rf, co and fr, which enumeration packs once.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .litmus import ALL_FENCE_KINDS, DEP_KINDS, ProjectedTest
from .relation import (
    Bundles,
    Candidate,
    Packing,
    Relation,
    check_acyclic,
    check_irreflexive,
    direction_mask,
)


class CatError(Exception):
    pass


# ----------------------------------------------------------------------- AST


@dataclass(frozen=True)
class Name:
    value: str


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class Union:
    left: object
    right: object


@dataclass(frozen=True)
class Inter:
    left: object
    right: object


@dataclass(frozen=True)
class Diff:
    left: object
    right: object


@dataclass(frozen=True)
class Seq:
    left: object
    right: object


@dataclass(frozen=True)
class Plus:
    expr: object


@dataclass(frozen=True)
class Star:
    expr: object


@dataclass(frozen=True)
class DirFilter:
    dir: str
    expr: object


@dataclass(frozen=True)
class Let:
    name: str
    expr: object
    pos: str = field(compare=False)  # keyword's file:line:col, for errors


@dataclass(frozen=True)
class LetRec:
    bindings: tuple  # ((name, expr), ...)
    pos: str = field(compare=False)  # keyword's file:line:col, for errors


@dataclass(frozen=True)
class Check:
    kind: str  # "acyclic" | "irreflexive"
    expr: object
    name: str
    pos: str = field(compare=False)  # keyword's file:line:col, for errors


@dataclass(frozen=True)
class Model:
    statements: tuple
    plan = cached_property(lambda self: _compile(self))  # compiled at the first bind


DIRS = {
    "RR": ("R", "R"), "RW": ("R", "W"), "WR": ("W", "R"), "WW": ("W", "W"),
    "RM": ("R", "M"), "MR": ("M", "R"), "MW": ("M", "W"), "MM": ("M", "M"),
}

_KEYWORDS = {"let", "rec", "and", "acyclic", "irreflexive", "as", "include"}
_IDENT = "[A-Za-z0-9_.-]"
# ctrl+isync, ctrl+isb and ctrl+cfence lex as single names
_TOKEN = re.compile(
    rf'\s+|(?P<string>"[^"\n]*")'
    rf"|(?P<name>ctrl\+(?:isync|isb|cfence)(?!{_IDENT})|[^\W\d]{_IDENT}*)"
    r"|(?P<zero>0)|(?P<op>[|&\\;+*()=])"
)
_COMMENT_MARK = re.compile(r"\(\*|\*\)")


def _position(text: str, path, offset: int) -> str:
    line = text.count("\n", 0, offset) + 1
    col = offset - text.rfind("\n", 0, offset)
    return f"{path or '<model>'}:{line}:{col}"


def _error(text: str, path, offset: int, msg: str) -> CatError:
    return CatError(f"{_position(text, path, offset)}: {msg}")


def _lex(text: str, path=None):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        if text.startswith("(*", i):  # comments nest
            depth = 0
            for m in _COMMENT_MARK.finditer(text, i):
                depth += 1 if m.group() == "(*" else -1
                if not depth:
                    break
            else:
                raise _error(text, path, i, "unterminated comment")
            tokens.append(("comment", text[i + 2:m.start()].strip(), i))
            i = m.end()
            continue
        m = _TOKEN.match(text, i)
        if m is None:
            if text[i] == '"':
                raise _error(text, path, i, "unterminated string")
            raise _error(text, path, i, f"unexpected character {text[i]!r}")
        kind = m.lastgroup
        if kind == "string":
            tokens.append((kind, m.group()[1:-1], i))
        elif kind:
            word = m.group()
            tokens.append(("kw" if word in _KEYWORDS else kind, word, i))
        i = m.end()
    tokens.append(("eof", "", n))
    return tokens


def _describe(tok) -> str:
    return "end of input" if tok[0] == "eof" else repr(tok[1])


class _Parser:
    def __init__(self, text, path, include_dirs, including):
        self.text = text
        self.path = path
        self.include_dirs = include_dirs
        self.including = including  # resolved paths of the open files
        self.tokens = _lex(text, path)
        self.pos = 0
        self.last_comment = None

    def error(self, tok, msg) -> CatError:
        return _error(self.text, self.path, tok[2], msg)

    def position(self, tok) -> str:
        return _position(self.text, self.path, tok[2])

    def peek(self):
        while self.tokens[self.pos][0] == "comment":
            self.last_comment = self.tokens[self.pos][1]
            self.pos += 1
        return self.tokens[self.pos]

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise self.error(tok, f"expected {value or kind}, got {_describe(tok)}")
        return tok

    # expression grammar: union < inter/diff < seq < postfix < primary
    def expr(self):
        node = self.inter()
        while self.peek()[:2] == ("op", "|"):
            self.next()
            node = Union(node, self.inter())
        return node

    def inter(self):
        node = self.seq()
        while self.peek()[0] == "op" and self.peek()[1] in ("&", "\\"):
            op = self.next()[1]
            rhs = self.seq()
            node = Inter(node, rhs) if op == "&" else Diff(node, rhs)
        return node

    def seq(self):
        node = self.postfix()
        while self.peek()[:2] == ("op", ";"):
            self.next()
            node = Seq(node, self.postfix())
        return node

    def postfix(self):
        node = self.primary()
        while self.peek()[0] == "op" and self.peek()[1] in ("*", "+"):
            node = Star(node) if self.next()[1] == "*" else Plus(node)
        return node

    def primary(self):
        tok = self.peek()
        kind, value, _ = tok
        if kind == "zero":
            self.next()
            return Empty()
        if kind == "op" and value == "(":
            self.next()
            node = self.expr()
            self.expect("op", ")")
            return node
        if kind == "name":
            self.next()
            if value in DIRS and self.peek()[:2] == ("op", "("):
                self.next()
                inner = self.expr()
                self.expect("op", ")")
                return DirFilter(value, inner)
            return Name(value)
        raise self.error(tok, f"unexpected {_describe(tok)} in expression")

    def statements(self):
        try:
            return self._statements()
        except RecursionError:
            raise self.error(self.tokens[self.pos], "expression nested too deeply") from None

    def _statements(self):
        out = []
        check_index = 0
        while True:
            tok = self.peek()
            kind, value, _ = tok
            if kind == "eof":
                break
            if kind == "kw" and value == "let":
                self.next()
                out.append(self.let_tail(self.position(tok)))
            elif kind == "kw" and value == "include":
                self.next()
                out.extend(self.include(self.expect("string")))
            elif kind == "kw" and value in ("acyclic", "irreflexive"):
                # grab the naming comment now: expression lookahead below
                # may consume a comment that belongs to the next check
                comment = self.last_comment
                self.last_comment = None
                self.next()
                check_index += 1
                expr = self.expr()
                if self.peek()[:2] == ("kw", "as"):
                    self.next()
                    name = self.expect("name")[1]
                elif comment:
                    name = re.sub(r"\s+", "-", comment.lower())
                else:
                    name = f"check-{check_index}"
                out.append(Check(value, expr, name, self.position(tok)))
            else:
                raise self.error(tok, f"unexpected {_describe(tok)} at statement level")
        return out

    def include(self, tok):
        name = tok[1]
        dirs = ((self.path.parent,) if self.path else ()) + tuple(self.include_dirs)
        path = next((d / name for d in dirs if (d / name).is_file()), None)
        if path is None:
            searched = ", ".join(str(d) for d in dirs) or "no directories"
            raise self.error(tok, f"cannot find include {name!r} (searched {searched})")
        key = path.resolve()
        if key in self.including:
            raise self.error(tok, f"include cycle through {str(path)!r}")
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise self.error(tok, f"cannot read include {str(path)!r}: {exc}")
        return _Parser(text, path, self.include_dirs, self.including | {key}).statements()

    def let_tail(self, pos):
        if self.peek()[:2] == ("kw", "rec"):
            start = self.next()
            bindings = [self.binding()]
            while self.peek()[:2] == ("kw", "and"):
                self.next()
                bindings.append(self.binding())
            stmt = LetRec(tuple(bindings), pos)
            try:
                _check_monotone(stmt)
            except CatError as exc:
                raise self.error(start, str(exc)) from None
            return stmt
        name, expr = self.binding()
        return Let(name, expr, pos)

    def binding(self):
        name = self.expect("name")[1]
        self.expect("op", "=")
        return name, self.expr()


def _check_monotone(stmt: LetRec):
    rec_names = {n for n, _ in stmt.bindings}
    if len(rec_names) != len(stmt.bindings):
        raise CatError("duplicate name in recursive binding group")

    def walk(node, in_subtrahend):
        if isinstance(node, Name):
            if in_subtrahend and node.value in rec_names:
                raise CatError(
                    f"recursive name {node.value!r} in a subtrahend: "
                    "recursion must stay monotone"
                )
        elif isinstance(node, Diff):
            walk(node.left, in_subtrahend)
            walk(node.right, True)
        elif isinstance(node, (Union, Inter, Seq)):
            walk(node.left, in_subtrahend)
            walk(node.right, in_subtrahend)
        elif isinstance(node, (Plus, Star, DirFilter)):
            walk(node.expr, in_subtrahend)

    for _, expr in stmt.bindings:
        walk(expr, False)


def parse_cat(text: str, path=None, include_dirs=()) -> Model:
    """Parse a model, expanding each `include "f.cat"` in place.

    path names the file text came from, for error positions and as the
    first place to look for its includes; include_dirs are searched next.
    """
    path = Path(path) if path else None
    including = frozenset({path.resolve()}) if path else frozenset()
    return Model(tuple(_Parser(text, path, include_dirs, including).statements()))


# ---------------------------------------------------------------- evaluation


# the builtin names all candidates of a test share, and those that differ
_TEST_NAMES = ("po", "po-loc", "0", "id") + DEP_KINDS + ALL_FENCE_KINDS
_CANDIDATE_NAMES = ("rf", "rfe", "rfi", "co", "coe", "coi", "fr", "fre", "fri", "com")
_TOO_DEEP = "expression nested too deeply to evaluate"


class CheckResult:
    """One check on one candidate.  witness is None if ok, else a shortest
    cycle (acyclic) or the least x with (x, x) (irreflexive); it may be
    given as a partial, called when witness is first read."""

    __slots__ = ("name", "kind", "ok", "_witness")

    def __init__(self, name: str, kind: str, ok: bool, witness: object):
        self.name, self.kind, self.ok, self._witness = name, kind, ok, witness

    @property
    def witness(self) -> object:
        if isinstance(self._witness, partial):
            self._witness = self._witness()
        return self._witness

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CheckResult) and (self.name, self.kind, self.ok, self.witness) == (
            other.name, other.kind, other.ok, other.witness)

    def __repr__(self) -> str:
        return f"CheckResult({self.name!r}, {self.kind!r}, {self.ok}, {self.witness!r})"


class _Chunk(Bundles):
    """A chunk as a bound model evaluated it: each name's bundle; masks,
    each direction filter's mask repeated into every block; per check
    (bytes whose byte j is nonzero if candidate j fails it, its witness
    given j); and loops, the union of the relations whose loops fail a
    check."""

    def __init__(self, pack: Packing, masks: dict):
        super().__init__(pack)
        self.masks, self.checks, self.loops = masks, [], 0


class _Env(Mapping):
    """A candidate's names, read-only: its block of its chunk's bundles,
    each wrapped in a Relation when read."""

    __slots__ = ("_chunk", "_j")

    def __init__(self, chunk: _Chunk, j: int):
        self._chunk, self._j = chunk, j

    def __getitem__(self, name: str) -> Relation:
        return self._chunk.relation(name, self._j)

    def __contains__(self, name: object) -> bool:
        return name in self._chunk

    def __iter__(self):
        return iter(self._chunk)

    def __len__(self) -> int:
        return len(self._chunk)


class ModelResult(NamedTuple):
    passed: bool
    checks: tuple
    env: Mapping  # name -> Relation

    @property
    def failed(self) -> Optional[str]:
        for c in self.checks:
            if not c.ok:
                return c.name
        return None


def _fixpoint(env: dict, group: list) -> None:
    """Set the group's least fixpoint in env."""
    # chaotic iteration; all operators that may see recursive names are
    # monotone, so this terminates
    env.update((name, 0) for name, _ in group)
    changed = True
    while changed:
        changed = False
        for name, f in group:
            new = f(env)
            if new != env[name]:
                env[name] = new
                changed = True


def _witness(test, pack: Packing, bits: int, j: int):
    return test(Relation(pack.n, pack.split(bits)[j]))


def _compile(model: Model) -> tuple:
    """Compile model's statements, in order, into (per_test, per_chunk,
    all_ok, dirs).  per_test holds the steps of the lets and let recs that
    read only names all candidates of a test share, and per_chunk the
    rest, checks included; a step is (statement position, function of a
    chunk).  all_ok holds each check's result if ok, and dirs the
    direction filters whose masks the steps read."""
    names, static = set(_TEST_NAMES + _CANDIDATE_NAMES), set(_TEST_NAMES)
    per_test, per_chunk, all_ok, dirs = [], [], [], set()
    read = set()  # the names the statement being compiled reads
    ops = {Union: lambda p, a, b: a | b, Inter: lambda p, a, b: a & b,
           Diff: lambda p, a, b: a & ~b, Seq: Packing.compose}

    def compile_expr(node):
        if isinstance(node, Name):
            if node.value not in names:
                raise CatError(f"unbound name {node.value!r}")
            read.add(node.value)
            return operator.itemgetter(node.value)
        if isinstance(node, Empty):
            return lambda c: 0
        if isinstance(node, DirFilter):
            f, d = compile_expr(node.expr), node.dir
            dirs.add(d)
            return lambda c: f(c) & c.masks[d]
        if isinstance(node, (Plus, Star)):
            f, star = compile_expr(node.expr), isinstance(node, Star)
            return lambda c: c.pack.closure(f(c), star)
        op, f, g = ops[type(node)], compile_expr(node.left), compile_expr(node.right)
        return lambda c: op(c.pack, f(c), g(c))

    def declare(*new):
        for name in new:
            if name in names:
                raise CatError(f"name {name!r} is already bound")
            names.add(name)
        return new

    def step(stmt):
        """stmt as a function of a chunk, and the names it binds (None for a check)."""
        if isinstance(stmt, Let):
            f = compile_expr(stmt.expr)
            return (lambda c: operator.setitem(c, stmt.name, f(c))), declare(stmt.name)
        if isinstance(stmt, LetRec):
            own = declare(*(name for name, _ in stmt.bindings))
            group = [(name, compile_expr(expr)) for name, expr in stmt.bindings]
            return (lambda c: _fixpoint(c, group)), own
        f = compile_expr(stmt.expr)
        test = check_acyclic if stmt.kind == "acyclic" else check_irreflexive
        all_ok.append(CheckResult(stmt.name, stmt.kind, True, None))

        def check(c):
            bits, p = f(c), c.pack
            loops = p.closure(bits) if test is check_acyclic else bits
            c.loops |= loops
            c.checks.append((p.loops(loops), partial(_witness, test, p, bits)))

        return check, None

    for stmt in model.statements:
        read.clear()
        try:
            f, own = step(stmt)
        except CatError as exc:
            raise CatError(f"{stmt.pos}: {exc}") from None
        except RecursionError:
            raise CatError(f"{stmt.pos}: {_TOO_DEEP}") from None
        once = own is not None and read <= static.union(own)
        static.update(own if once else ())
        (per_test if once else per_chunk).append((stmt.pos, f))
    return per_test, per_chunk, tuple(all_ok), dirs


def _run(steps: list, c: _Chunk) -> None:
    try:
        for pos, f in steps:
            f(c)
    except RecursionError:
        raise CatError(f"{pos}: {_TOO_DEEP}") from None


def bind(model: Model, t: ProjectedTest) -> Callable[[Candidate], ModelResult]:
    """A function judging one candidate of t by model.

    The model is compiled at its first bind and kept on it (Model.plan),
    so binding walks no expression.  Each let and let rec that reads
    only names all candidates of t share (po, po-loc, deps, fences, 0, id
    and lets built from them) runs here, once, on a chunk of one, and
    each direction filter's mask is fixed.  The rest runs once per chunk
    of candidates, which packs each relation of its candidates into one
    int (a bundle, see Packing), starting from those values repeated into
    every block; a check gives an ok bit per candidate.  Judging a
    candidate evaluates its chunk if it is not the one last evaluated,
    then slices out the candidate's block: its checks, and an env that
    wraps bits in a Relation only when a name is read.
    """
    (per_test, per_chunk, all_ok, dirs), n = model.plan, t.n
    shared = _Chunk(Packing.single(n), {d: direction_mask(n, t.events, *DIRS[d]) for d in dirs})
    shared.update({"po": t.po.bits, "po-loc": t.po_loc.bits, "0": 0, "id": shared.pack.diag})
    shared.update((k, r.bits) for k, r in {**t.deps, **t.fences}.items())
    _run(per_test, shared)
    same, last = t.same_thread.bits, [None, None]  # the chunk last evaluated, its _Chunk

    def evaluate(chunk: Bundles) -> _Chunk:
        pack, rf, co, fr = chunk.pack, chunk["rf"], chunk["co"], chunk["fr"]
        rep, inner = pack.rep, same * pack.rep
        c = _Chunk(pack, {d: mask * rep for d, mask in shared.masks.items()})
        c.update((name, bits * rep) for name, bits in shared.items())
        c.update(rf=rf, rfe=rf & ~inner, rfi=rf & inner, co=co, coe=co & ~inner, coi=co & inner,
                 fr=fr, fre=fr & ~inner, fri=fr & inner, com=co | rf | fr)
        _run(per_chunk, c)
        c.failed = pack.loops(c.loops)  # byte j is nonzero if candidate j fails any check
        return c

    def judge(cand: Candidate) -> ModelResult:
        if cand.source is not t:
            raise ValueError(f"model bound to {t.name}, candidate of {cand.source.name}")
        if last[0] is not cand.chunk:
            last[:] = cand.chunk, evaluate(cand.chunk)
        c, j = last[1], cand.j
        if not c.failed[j]:
            return ModelResult(True, all_ok, _Env(c, j))
        checks = tuple(
            CheckResult(ok.name, ok.kind, False, partial(witness, j)) if failures[j] else ok
            for ok, (failures, witness) in zip(all_ok, c.checks)
        )
        return ModelResult(False, checks, _Env(c, j))

    return judge


def run_model(model, cand: Candidate) -> ModelResult:
    """Judge cand by model: a Model, bound for cand's test here, or the
    result of binding one to it."""
    if isinstance(model, Model):
        return bind(model, cand.source)(cand)
    return model(cand)
