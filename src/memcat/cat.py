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
the rest runs once per chunk, on the chunk's rf, co and fr, which
enumeration packs once, and on those shared values, each repeated into
every block when a step first reads it.  An expression the model
closes more than once (e+, e* or an acyclic check) is closed once per
chunk, unless it reads a name of the let rec being solved.  Sequence,
intersection and the left side of a difference give 0 without
evaluating their other side when an operand, a name evaluated first,
is empty.  A let rec runs a binding again only when a recursive name
it reads has changed since it last ran.  A chunk's verdicts, and its
failures per check, are read from its per-check failure bytes; a
candidate's check results are built from them only when read.
"""

from __future__ import annotations

import operator
import re
from collections import Counter
from collections.abc import Mapping
from functools import cached_property, reduce
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .litmus import ALL_FENCE_KINDS, DEP_KINDS, ProjectedTest
from .relation import (
    Bundles,
    Candidate,
    Packing,
    Record,
    Relation,
    check_acyclic,
    check_irreflexive,
    direction_mask,
)


class CatError(Exception):
    pass


# ----------------------------------------------------------------------- AST


class Name(Record):
    __slots__ = ("value",)

    def __init__(self, value: str):
        self.value = value


class Empty(Record):
    __slots__ = ()


class _Binary(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: object, right: object):
        self.left, self.right = left, right


class Union(_Binary):
    __slots__ = ()


class Inter(_Binary):
    __slots__ = ()


class Diff(_Binary):
    __slots__ = ()


class Seq(_Binary):
    __slots__ = ()


class Plus(Record):
    __slots__ = ("expr",)

    def __init__(self, expr: object):
        self.expr = expr


class Star(Record):
    __slots__ = ("expr",)

    def __init__(self, expr: object):
        self.expr = expr


class DirFilter(Record):
    __slots__ = ("dir", "expr")

    def __init__(self, dir: str, expr: object):
        self.dir, self.expr = dir, expr


class Let(Record, uncompared=("pos",)):
    __slots__ = ("name", "expr", "pos")  # pos: keyword's file:line:col, for errors

    def __init__(self, name: str, expr: object, pos: str):
        self.name, self.expr, self.pos = name, expr, pos


class LetRec(Record, uncompared=("pos",)):
    __slots__ = ("bindings", "pos")  # bindings: ((name, expr), ...)

    def __init__(self, bindings: tuple, pos: str):
        self.bindings, self.pos = bindings, pos


class Check(Record, uncompared=("pos",)):
    __slots__ = ("kind", "expr", "name", "pos")  # kind: "acyclic" | "irreflexive"

    def __init__(self, kind: str, expr: object, name: str, pos: str):
        self.kind, self.expr, self.name = kind, expr, name
        self.pos = pos


class Model(Record):
    __slots__ = ("statements", "__dict__")  # __dict__ holds plan

    def __init__(self, statements: tuple):
        self.statements = statements

    plan = cached_property(lambda self: _compile(self))  # compiled at the first bind


DIRS = {src + tgt: (src, tgt) for src in "RWM" for tgt in "RWM"}

_BINARY = {"|": (1, Union), "&": (2, Inter), "\\": (2, Diff), ";": (3, Seq)}
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

    # expression grammar: union < inter/diff < seq < postfix < primary, each
    # binary operator left-associative at its level of _BINARY
    def expr(self, level=1):
        node = self.postfix()
        while True:
            tok = self.peek()
            op = _BINARY.get(tok[1]) if tok[0] == "op" else None
            if op is None or op[0] < level:
                return node
            self.next()
            node = op[1](node, self.expr(op[0] + 1))

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
                    name = "-".join(comment.lower().split())
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
        elif isinstance(node, _Binary):
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


class CheckResult(NamedTuple):
    """One check on one candidate.  witness is None if ok, else a shortest
    cycle (acyclic) or the least x with (x, x) (irreflexive)."""

    name: str
    kind: str
    ok: bool
    witness: object


class _Chunk(Bundles):
    """A chunk as a bound model evaluated it: each name's bundle (a name of
    shared, the one-block bits of the names all candidates share, is
    repeated into every block when first read); masks, each direction
    filter's mask repeated into every block; closures, the bits of e+ by
    slot for each e the model closes more than once; per check (its result
    if ok, bytes whose byte j is nonzero if candidate j fails it, its test
    and bundle); and loops, the union of the relations whose loops fail a
    check."""

    def __init__(self, pack: Packing, masks: dict, shared: Optional[Mapping] = None):
        super().__init__(pack)
        self.masks, self.shared, self.checks, self.loops = masks, shared or {}, [], 0
        self.closures = {}

    def __missing__(self, name: str) -> int:
        return self.setdefault(name, self.shared[name] * self.pack.rep)

    def closed(self, i: int, f: Callable) -> int:
        """Bits of e+ for the expression e in closure slot i, f being e as a
        function of a chunk: taken at the first call on the chunk."""
        got = self.closures.get(i)
        if got is None:
            got = self.closures[i] = self.pack.closure(f(self))
        return got

    def failures(self, skip: Optional[str] = None) -> dict:
        """Check name -> the chunk's candidates failing it, if any; one that
        fails a check named skip counts for none."""
        fails, out = [(ok.name, int.from_bytes(f, "little")) for ok, f, *_ in self.checks], {}
        ignore = reduce(operator.or_, (bits for name, bits in fails if name == skip), 0)
        for name, bits in fails:
            if count := (bits & ~ignore).bit_count():
                out[name] = out.get(name, 0) + count
        return out


class _Env(Mapping):
    """A candidate's names, read-only: its block of chunk, the chunk as the
    model evaluated it, each name's bits wrapped in a Relation when read
    (a shared name's one block as it is)."""

    __slots__ = ("chunk", "_j")

    def __init__(self, chunk: _Chunk, j: int):
        self.chunk, self._j = chunk, j

    def __getitem__(self, name: str) -> Relation:
        bits = self.chunk.shared.get(name)
        return self.chunk.relation(name, self._j) if bits is None else Relation(self.chunk.pack.n, bits)

    def __contains__(self, name: object) -> bool:
        return name in self.chunk.shared or name in self.chunk

    def __iter__(self):
        return iter({**dict.fromkeys(self.chunk.shared), **self.chunk})

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def checks(self) -> tuple:
        """Each check's result on the candidate, in model order."""
        c, j = self.chunk, self._j
        return tuple(CheckResult(ok.name, ok.kind, False, test(Relation(c.pack.n, c.pack.split(bits)[j])))
                     if failed[j] else ok for ok, failed, test, bits in c.checks)


class ModelResult(NamedTuple):
    passed: bool
    env: Mapping  # name -> Relation, the candidate's block of its chunk

    @property
    def checks(self) -> tuple:  # each check's CheckResult, built when read
        return self.env.checks()

    @property
    def failed(self) -> Optional[str]:
        for c in self.checks:
            if not c.ok:
                return c.name
        return None


def _fixpoint(env: dict, group: list) -> None:
    """Set the group's least fixpoint in env.

    group holds (name, function of env, readers), readers being the
    indices of the bindings that read name.  Every binding runs once from
    0, then again only when a name it reads has changed since it last
    ran: chaotic iteration on a worklist, which ends at the least
    fixpoint because every operator that may see a recursive name is
    monotone, and needs no confirming pass."""
    env.update((name, 0) for name, _, _ in group)
    todo = set(range(len(group)))
    while todo:
        for i, (name, f, readers) in enumerate(group):
            if i in todo:
                todo.discard(i)
                new = f(env)
                if new != env[name]:
                    env[name] = new
                    todo |= readers


def _walk(node, rec: set, closed: list) -> set:
    """The names node reads; appends to closed each expression node closes
    (e+ or e*) that reads no name of rec, with the names it reads."""
    if isinstance(node, Name):
        return {node.value}
    if isinstance(node, Empty):
        return set()
    if isinstance(node, _Binary):
        return _walk(node.left, rec, closed) | _walk(node.right, rec, closed)
    read = _walk(node.expr, rec, closed)
    if isinstance(node, (Plus, Star)) and read.isdisjoint(rec):
        closed.append((node.expr, frozenset(read)))
    return read


def _reads(stmt, closed: list) -> list:
    """The names each expression of stmt reads; appends to closed what
    stmt closes, as _walk does, an acyclic check's expression included."""
    if isinstance(stmt, LetRec):
        own = {name for name, _ in stmt.bindings}
        return [_walk(expr, own, closed) for _, expr in stmt.bindings]
    read = _walk(stmt.expr, (), closed)
    if isinstance(stmt, Check) and stmt.kind == "acyclic":
        closed.append((stmt.expr, frozenset(read)))
    return [read]


def _compile(model: Model) -> tuple:
    """Compile model's statements, in order, into (at_bind, per_chunk,
    dirs).  at_bind holds the steps of the lets and let recs that read
    only names all candidates of a test share, which bind runs once, and
    per_chunk the rest, checks included; a step is (statement position,
    function of a chunk).
    dirs holds the direction filters whose masks the steps read.

    An expression the model closes more than once (in e+, e* or an
    acyclic check) gets a slot, and where it reads no name of the let rec
    being solved its closure is taken once per chunk (_Chunk.closed)."""
    names, static = set(_TEST_NAMES + _CANDIDATE_NAMES), set(_TEST_NAMES)
    at_bind, per_chunk, dirs = [], [], set()
    rec = set()  # the names of the let rec being compiled
    leaf = (Name, Empty)
    times = Counter()  # (expression, the names it reads) -> times the model closes it
    walked = []  # per statement, the names each of its expressions reads
    for stmt in model.statements:
        closed = []
        try:
            reads = _reads(stmt, closed)
            times.update(closed)
        except RecursionError:
            break  # reported after the errors of the statements before it
        walked.append(reads)
    slots = {e: (i, read) for i, (e, read) in enumerate(k for k, t in times.items() if t > 1)}

    def slot(expr) -> Optional[int]:
        """expr's closure slot, unless expr reads a name of the let rec being solved."""
        i, read = slots.get(expr, (None, ()))
        return i if rec.isdisjoint(read) else None

    def compile_expr(node):
        if isinstance(node, Name):
            if node.value not in names:
                raise CatError(f"unbound name {node.value!r}")
            return operator.itemgetter(node.value)
        if isinstance(node, Empty):
            return lambda c: 0
        if isinstance(node, DirFilter):
            f, d = compile_expr(node.expr), node.dir
            dirs.add(d)
            return lambda c: f(c) & c.masks[d]
        if isinstance(node, (Plus, Star)):
            f, star, i = compile_expr(node.expr), isinstance(node, Star), slot(node.expr)
            if i is None:
                return lambda c: c.pack.closure(f(c), star)
            if star:
                return lambda c: c.closed(i, f) | c.pack.diag
            return lambda c: c.closed(i, f)
        f, g = compile_expr(node.left), compile_expr(node.right)
        if isinstance(node, Union):
            return lambda c: f(c) | g(c)
        if isinstance(node, Diff):  # an empty operand evaluated first spares the other
            return lambda c: (a := f(c)) and a & ~g(c)
        if isinstance(node.right, leaf) and not isinstance(node.left, leaf):  # the name first
            if isinstance(node, Inter):
                return lambda c: (b := g(c)) and f(c) & b
            return lambda c: (b := g(c)) and c.pack.compose(f(c), b)
        if isinstance(node, Inter):
            return lambda c: (a := f(c)) and a & g(c)
        return lambda c: (a := f(c)) and c.pack.compose(a, g(c))

    def declare(*new):
        for name in new:
            if name in names:
                raise CatError(f"name {name!r} is already bound")
            names.add(name)
        return new

    def step(stmt, reads):
        """stmt as a function of a chunk, and the names it binds (None for a check)."""
        if isinstance(stmt, Let):
            f = compile_expr(stmt.expr)
            return (lambda c: operator.setitem(c, stmt.name, f(c))), declare(stmt.name)
        if isinstance(stmt, LetRec):
            own = declare(*(name for name, _ in stmt.bindings))
            rec.update(own)
            group = [(name, compile_expr(expr), {j for j, read in enumerate(reads) if name in read})
                     for name, expr in stmt.bindings]
            return (lambda c: _fixpoint(c, group)), own
        f = compile_expr(stmt.expr)
        test = check_acyclic if stmt.kind == "acyclic" else check_irreflexive
        ok, i = CheckResult(stmt.name, stmt.kind, True, None), slot(stmt.expr)

        def check(c):
            bits, p = f(c), c.pack
            if test is check_irreflexive:
                loops = bits
            else:
                loops = p.closure(bits) if i is None else c.closed(i, lambda _: bits)
            c.loops |= loops
            c.checks.append((ok, p.loops(loops), test, bits))

        return check, None

    for stmt, reads in zip(model.statements, walked):
        rec.clear()
        try:
            f, own = step(stmt, reads)
        except CatError as exc:
            raise CatError(f"{stmt.pos}: {exc}") from None
        except RecursionError:
            raise CatError(f"{stmt.pos}: {_TOO_DEEP}") from None
        once = own is not None and set().union(*reads) <= static.union(own)
        static.update(own if once else ())
        (at_bind if once else per_chunk).append((stmt.pos, f))
    if len(walked) < len(model.statements):
        raise CatError(f"{model.statements[len(walked)].pos}: {_TOO_DEEP}")
    return at_bind, per_chunk, dirs


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
    int (a bundle, see Packing), on those values repeated into every block
    when first read; a check gives a failure byte per candidate, and one
    result per candidate is made then.  Judging a candidate evaluates its
    chunk if it is not the one last evaluated and gives the candidate's
    result: its verdict and an env that wraps bits in a Relation only when
    a name is read, from which its checks are built only when read.
    """
    (at_bind, per_chunk, dirs), n = model.plan, t.n
    shared = _Chunk(Packing.single(n), {d: direction_mask(n, t.events, *DIRS[d]) for d in dirs})
    shared.update({"po": t.po.bits, "po-loc": t.po_loc.bits, "0": 0, "id": shared.pack.diag})
    shared.update((k, r.bits) for k, r in {**t.deps, **t.fences}.items())
    _run(at_bind, shared)
    same, last = t.same_thread.bits, [None, None]  # the chunk last evaluated, its _Chunk

    def evaluate(chunk: Bundles) -> list:
        pack, rf, co, fr = chunk.pack, chunk["rf"], chunk["co"], chunk["fr"]
        rep, inner = pack.rep, same * pack.rep
        c = _Chunk(pack, {d: mask * rep for d, mask in shared.masks.items()}, shared)
        c.update(rf=rf, rfe=rf & ~inner, rfi=rf & inner, co=co, coe=co & ~inner, coi=co & inner,
                 fr=fr, fre=fr & ~inner, fri=fr & inner, com=co | rf | fr)
        _run(per_chunk, c)
        # byte j of loops' bytes is nonzero if candidate j fails some check
        return [ModelResult(not failed, _Env(c, j)) for j, failed in enumerate(pack.loops(c.loops))]

    def judge(cand: Candidate) -> ModelResult:
        if cand.source is not t:
            raise ValueError(f"model bound to {t.name}, candidate of {cand.source.name}")
        if last[0] is not cand.chunk:
            last[:] = cand.chunk, evaluate(cand.chunk)
        return last[1][cand.j]

    return judge


def run_model(model, cand: Candidate) -> ModelResult:
    """Judge cand by model: a Model, bound for cand's test here, or the
    result of binding one to it."""
    if isinstance(model, Model):
        return bind(model, cand.source)(cand)
    return model(cand)
