"""Litmus test frontend.

Parses the small assembly-like litmus format, statically evaluates
register contents (addresses and stored values must be compile-time
constants), follows each register's taint (the loads whose values flow
into it) to recover dependencies, and projects everything down to the
memory events and relations the enumerator works on.

After comments ('#' not followed by a digit or '-') are stripped, a
file is a '<name> <arch>' header line followed by a stream of sections
separated only by whitespace: 'init {...}', 'thread <name> {...}',
'expect {...}' and one 'final <quant> (...)', which ends its line.  The
entries of a brace block end at ';' or a newline.  Text that is not a
section is an error, never skipped.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from typing import Optional, Union

from .relation import Event, MemRead, MemWrite, Relation, same_loc, same_thread


ARCH_FENCES = {
    "power": {"sync", "lwsync", "eieio", "isync"},
    "arm": {"dmb", "dsb", "dmb.st", "dsb.st", "isb"},
    "tso": {"mfence"},
    "sc": set(),
    "generic": set(),
}

ALL_FENCE_KINDS = (
    "sync", "lwsync", "eieio", "isync",
    "dmb", "dsb", "dmb.st", "dsb.st", "isb",
    "mfence",
)

# control fences: the branch;fence;access idiom strengthens ctrl
_CTRL_FENCES = ("isync", "isb")
# every projected test binds these; ctrl+cfence is ctrl+isync | ctrl+isb
DEP_KINDS = ("addr", "data", "ctrl", *("ctrl+" + k for k in _CTRL_FENCES), "ctrl+cfence")


class LitmusError(Exception):
    def __init__(self, msg: str, line: Optional[int] = None):
        if line is not None:
            msg = f"line {line}: {msg}"
        super().__init__(msg)


# ------------------------------------------------------------- instructions


@dataclass(frozen=True)
class MovConst:
    dst: str
    val: int


@dataclass(frozen=True)
class Load:
    dst: str
    addr: str


@dataclass(frozen=True)
class Store:
    addr: str
    src: str


@dataclass(frozen=True)
class Xor:
    dst: str
    a: str
    b: str
    line: int = field(compare=False)  # for errors in the value it computes


@dataclass(frozen=True)
class Add:
    dst: str
    a: str
    b: Union[str, int]
    line: int = field(compare=False)  # for errors in the value it computes


@dataclass(frozen=True)
class Cmp:
    reg: str
    val: int


@dataclass(frozen=True)
class Branch:
    kind: str
    label: str


@dataclass(frozen=True)
class LabelDef:
    name: str


@dataclass(frozen=True)
class Fence:
    kind: str


Instr = Union[MovConst, Load, Store, Xor, Add, Cmp, Branch, LabelDef, Fence]


# ------------------------------------------------------------ final condition


@dataclass(frozen=True)
class RegEq:
    thread: str
    reg: str
    value: int


@dataclass(frozen=True)
class LocEq:
    loc: str
    value: int


@dataclass(frozen=True)
class And:
    items: tuple


@dataclass(frozen=True)
class Or:
    items: tuple


@dataclass(frozen=True)
class Final:
    quant: str
    cond: object


@dataclass
class LitmusTest:
    name: str
    arch: str
    init_locs: dict
    init_regs: dict  # (thread | None, reg) -> ("int", n) | ("loc", name)
    threads: dict  # name -> [Instr], in declaration order
    final: Final
    expect: dict


# ------------------------------------------------------------------- parsing

_RE_INIT = re.compile(r"^(?:(\w+)\s*:\s*)?([A-Za-z_]\w*)\s*=\s*(?:&([A-Za-z_]\w*)|(-?\d+))$")
_RE_MOV = re.compile(r"^mov\s+([A-Za-z_]\w*)\s*,\s*#(-?\d+)$")
_RE_LD = re.compile(r"^ld\s+([A-Za-z_]\w*)\s*,\s*\[([A-Za-z_]\w*)\]$")
_RE_ST = re.compile(r"^st\s+\[([A-Za-z_]\w*)\]\s*,\s*([A-Za-z_]\w*)$")
_RE_XOR = re.compile(r"^xor\s+([A-Za-z_]\w*)\s*,\s*([A-Za-z_]\w*)\s*,\s*([A-Za-z_]\w*)$")
_RE_ADD = re.compile(
    r"^add\s+([A-Za-z_]\w*)\s*,\s*([A-Za-z_]\w*)\s*,\s*(?:#(-?\d+)|([A-Za-z_]\w*))$"
)
_RE_CMP = re.compile(r"^cmp\s+([A-Za-z_]\w*)\s*,\s*#(-?\d+)$")
_RE_BR = re.compile(r"^(bne|beq)\s+(\w+)$")
_RE_LABEL = re.compile(r"^(\w+):$")
_RE_FENCE = re.compile(r"^([a-z]+(?:\.[a-z]+)?)$")
_RE_EXPECT = re.compile(r"^([\w.+-]+)\s*=\s*(allowed|forbidden)$")
# final condition tokens: an operator, an atom, whitespace, or a bad character
_COND_TOKEN = re.compile(r"(/\\|\\/|[()])|(?:(\w+):)?([A-Za-z_]\w*)=(-?\d+)|\s+|(.)")
_RE_COMMENT = re.compile(r"#(?![-\d]).*")
_RE_HEADER = re.compile(r"\s*(.*)")
# one alternative per section kind, then whitespace, then anything else
_RE_SECTION = re.compile(
    r"(?:(?P<kind>init|expect)|thread\s+(?P<thread>\w+))\s*\{(?P<body>[^}]*)\}"
    r"|final[^\S\n]+(?P<quant>exists|forall|observed)[^\S\n]*\((?P<cond>.*)\)[^\S\n]*$"
    r"|\s+|(?P<junk>.+)",
    re.M,
)


def _int(digits: str, line: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's limit on integer digits
        raise LitmusError(f"integer of {len(digits)} characters is too long", line) from None


def _is_reg(name: str) -> bool:
    return name.startswith("r")


def _parse_instr(text: str, arch: str, line: int) -> Instr:
    text = text.strip()
    if m := _RE_MOV.match(text):
        return MovConst(m.group(1), _int(m.group(2), line))
    if m := _RE_LD.match(text):
        return Load(m.group(1), m.group(2))
    if m := _RE_ST.match(text):
        return Store(m.group(1), m.group(2))
    if m := _RE_XOR.match(text):
        return Xor(m.group(1), m.group(2), m.group(3), line)
    if m := _RE_ADD.match(text):
        b = _int(m.group(3), line) if m.group(3) is not None else m.group(4)
        return Add(m.group(1), m.group(2), b, line)
    if m := _RE_CMP.match(text):
        return Cmp(m.group(1), _int(m.group(2), line))
    if m := _RE_BR.match(text):
        return Branch(m.group(1), m.group(2))
    if m := _RE_LABEL.match(text):
        return LabelDef(m.group(1))
    if m := _RE_FENCE.match(text):
        kind = m.group(1)
        if kind in ALL_FENCE_KINDS:
            if kind not in ARCH_FENCES[arch]:
                raise LitmusError(f"fence {kind} not available on {arch}", line)
            return Fence(kind)
    raise LitmusError(f"cannot parse instruction {text!r}", line)


def _tokenize_cond(text: str, line: int):
    tokens = []
    for m in _COND_TOKEN.finditer(text):
        op, thread, name, value, bad = m.groups()
        if bad is not None:
            raise LitmusError(f"bad final condition near {text[m.start():]!r}", line)
        if op is not None:
            tokens.append(op)
        elif thread is not None:
            tokens.append(RegEq(thread, name, _int(value, line)))
        elif name is not None:
            if _is_reg(name):
                raise LitmusError(f"register {name} in final must be thread-qualified", line)
            tokens.append(LocEq(name, _int(value, line)))
    return tokens


def _parse_cond(tokens: list, line: int):
    pos = 0

    def atom():
        nonlocal pos
        if pos >= len(tokens):
            raise LitmusError("final condition ends early", line)
        tok = tokens[pos]
        if tok == "(":
            pos += 1
            node = disj()
            if pos >= len(tokens) or tokens[pos] != ")":
                raise LitmusError("unbalanced parentheses in final", line)
            pos += 1
            return node
        if isinstance(tok, (RegEq, LocEq)):
            pos += 1
            return tok
        raise LitmusError(f"unexpected token {tok!r} in final", line)

    def conj():
        nonlocal pos
        items = [atom()]
        while pos < len(tokens) and tokens[pos] == "/\\":
            pos += 1
            items.append(atom())
        return items[0] if len(items) == 1 else And(tuple(items))

    def disj():
        nonlocal pos
        items = [conj()]
        while pos < len(tokens) and tokens[pos] == "\\/":
            pos += 1
            items.append(conj())
        return items[0] if len(items) == 1 else Or(tuple(items))

    try:
        node = disj()
    except RecursionError:
        raise LitmusError("final condition nested too deeply", line) from None
    if pos != len(tokens):
        raise LitmusError("trailing tokens in final condition", line)
    return node


def _line(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def _entries(text: str, start: int, end: int):
    # (line, entry) for each non-blank entry of text[start:end]; entries end at ';' or '\n'
    line = _line(text, start)
    for row in text[start:end].split("\n"):
        for entry in row.split(";"):
            if entry.strip():
                yield line, entry.strip()
        line += 1


def parse_litmus(text: str) -> LitmusTest:
    # '#' starts a comment unless it introduces an immediate like #1 or #-1
    text = _RE_COMMENT.sub("", text)
    head = _RE_HEADER.match(text)
    if not head.group(1):
        raise LitmusError("empty litmus source")
    no = _line(text, head.start(1))
    parts = head.group(1).split()
    if len(parts) != 2:
        raise LitmusError("header must be '<name> <arch>'", no)
    name, arch = parts[0], parts[1].lower()
    if arch not in ARCH_FENCES:
        raise LitmusError(f"unknown architecture {arch!r}", no)

    init_locs, init_regs, threads, expect = {}, {}, {}, {}
    final: Optional[Final] = None
    for m in _RE_SECTION.finditer(text, head.end()):
        if m.lastgroup is None:  # whitespace between sections
            continue
        no = _line(text, m.start())
        if m.lastgroup == "junk":
            raise LitmusError(f"text outside any section: {m.group('junk').strip()!r}", no)
        if m.lastgroup == "cond":
            if final is not None:
                raise LitmusError("duplicate final condition", no)
            cond = _parse_cond(_tokenize_cond(m.group("cond"), no), no)
            final = Final(m.group("quant"), cond)
            continue
        entries = _entries(text, *m.span("body"))
        if m.group("kind") == "init":
            for bno, entry in entries:
                e = _RE_INIT.match(entry)
                if not e:
                    raise LitmusError(f"bad init entry {entry!r}", bno)
                thread, lhs, loc, num = e.groups()
                if loc is not None:
                    if not _is_reg(lhs):
                        raise LitmusError(
                            f"{lhs} holds an address but is not a register", bno
                        )
                    if _is_reg(loc):
                        raise LitmusError(
                            f"location names must not start with 'r': {loc}", bno
                        )
                    init_regs[(thread, lhs)] = ("loc", loc)
                elif _is_reg(lhs):
                    init_regs[(thread, lhs)] = ("int", _int(num, bno))
                elif thread is not None:
                    raise LitmusError(f"location {lhs} cannot be thread-qualified", bno)
                else:
                    init_locs[lhs] = _int(num, bno)
        elif m.group("kind") == "expect":
            for bno, entry in entries:
                e = _RE_EXPECT.match(entry)
                if not e:
                    raise LitmusError(f"bad expect entry {entry!r}", bno)
                expect[e.group(1)] = e.group(2)
        else:
            tname = m.group("thread")
            if tname in threads:
                raise LitmusError(f"duplicate thread {tname}", no)
            instrs = [_parse_instr(entry, arch, bno) for bno, entry in entries]
            for ins, nxt in zip(instrs, instrs[1:] + [None]):
                if isinstance(ins, Branch) and nxt != LabelDef(ins.label):
                    raise LitmusError(
                        f"branch target {ins.label} must label the next instruction", no
                    )
            threads[tname] = instrs

    if final is None:
        raise LitmusError("missing final condition")
    if not threads:
        raise LitmusError("no threads declared")
    return LitmusTest(name, arch, init_locs, init_regs, threads, final, expect)


# ---------------------------------------------------------------- projection


@dataclass
class ProjectedTest:
    """Memory events of a test plus every statically known relation."""

    name: str
    arch: str
    events: tuple
    po: Relation
    po_loc: Relation
    same_thread: Relation  # splits rf, co and fr into internal and external
    deps: dict
    fences: dict
    final: Final
    expect: dict
    names: dict
    locations: tuple
    threads: tuple
    reg_sources: dict  # (thread, reg) -> ("event", eid) | ("const", n) | ("unknown",)
    init_ids: tuple

    @property
    def n(self) -> int:
        return len(self.events)


def _event_names(count: int):
    letters = string.ascii_lowercase
    for k in range(count):
        if k < len(letters):
            yield letters[k]
        else:
            yield letters[k % 26] + str(k // 26)


class _ThreadSim:
    """Static evaluation of one thread.

    Next to each register's static value it keeps the register's taint:
    the loads (indexes into mems) whose values flow into it.  A tainted
    address gives addr, a tainted stored value data, and a tainted cr0
    at a branch ctrl.
    """

    def __init__(self, tname, instrs, regstate):
        self.tname = tname
        self.regs = regstate
        self.taint = {}  # reg -> frozenset of load indexes
        self.reg_last = {}  # reg -> ("load", idx) | ("const", n) | ("unknown",)
        self.mems = []  # (instr_idx, MemRead | MemWrite)
        self.fences = []  # (instr_idx, kind)
        self.branches = []  # (instr_idx, taint of cr0)
        self.addr, self.data = [], []  # (load idx, access idx)
        for reg, val in regstate.items():
            if val[0] == "int":
                self.reg_last[reg] = ("const", val[1])
        for idx, ins in enumerate(instrs):
            self._step(idx, ins)

    def _loc_of(self, reg, what):
        val = self.regs.get(reg, ("unknown",))
        if val[0] != "loc":
            raise LitmusError(
                f"{self.tname}: {what} register {reg} must hold a location address"
            )
        return val[1]

    def _access(self, idx, action, addr_reg):
        m = len(self.mems)
        self.mems.append((idx, action))
        self.addr += [(s, m) for s in self.taint.get(addr_reg, ())]
        return m

    def _taint(self, *regs):
        return frozenset().union(*(self.taint.get(r, ()) for r in regs))

    def _set(self, reg, val, taint, line=None):
        if val[0] == "int":
            try:
                str(val[1])  # observed states print it
            except ValueError:  # past the interpreter's limit on integer digits
                raise LitmusError(f"{self.tname}: value of {reg} is too long", line) from None
        self.regs[reg] = val
        self.taint[reg] = taint
        self.reg_last[reg] = ("const", val[1]) if val[0] == "int" else ("unknown",)

    def _step(self, idx, ins):
        if isinstance(ins, MovConst):
            self._set(ins.dst, ("int", ins.val), frozenset())
        elif isinstance(ins, Load):
            loc = self._loc_of(ins.addr, "address")
            m = self._access(idx, MemRead(loc), ins.addr)
            self._set(ins.dst, ("unknown",), self._taint(ins.addr) | {m})
            self.reg_last[ins.dst] = ("load", m)
        elif isinstance(ins, Store):
            loc = self._loc_of(ins.addr, "address")
            val = self.regs.get(ins.src, ("unknown",))
            if val[0] != "int":
                raise LitmusError(
                    f"{self.tname}: stored value in {ins.src} must be a static integer"
                )
            m = self._access(idx, MemWrite(loc, val[1]), ins.addr)
            self.data += [(s, m) for s in self._taint(ins.src)]
        elif isinstance(ins, Xor):
            va, vb = self.regs.get(ins.a, ("unknown",)), self.regs.get(ins.b, ("unknown",))
            if ins.a == ins.b:
                out = ("int", 0)  # x^x=0 even when x is runtime-dependent
            elif va[0] == "int" and vb[0] == "int":
                out = ("int", va[1] ^ vb[1])
            else:
                out = ("unknown",)
            self._set(ins.dst, out, self._taint(ins.a, ins.b), ins.line)
        elif isinstance(ins, Add):
            va = self.regs.get(ins.a, ("unknown",))
            if isinstance(ins.b, str):
                vb = self.regs.get(ins.b, ("unknown",))
                srcs = self._taint(ins.a, ins.b)
            else:
                vb = ("int", ins.b)
                srcs = self._taint(ins.a)
            self._set(ins.dst, self._add_vals(va, vb), srcs, ins.line)
        elif isinstance(ins, Cmp):
            self.regs["cr0"] = ("unknown",)
            self.taint["cr0"] = self._taint(ins.reg)
        elif isinstance(ins, Branch):
            self.branches.append((idx, self._taint("cr0")))
        elif isinstance(ins, Fence):
            self.fences.append((idx, ins.kind))
        elif not isinstance(ins, LabelDef):  # pragma: no cover
            raise LitmusError(f"unhandled instruction {ins!r}")

    def _add_vals(self, va, vb):
        vals = (va, vb)
        if all(v[0] == "int" for v in vals):
            return ("int", va[1] + vb[1])
        if any(v[0] == "loc" for v in vals):
            loc = next(v for v in vals if v[0] == "loc")
            other = vb if loc is va else va
            if other[0] == "int" and other[1] == 0:
                return loc
            raise LitmusError(
                f"{self.tname}: address arithmetic beyond +0 is not supported"
            )
        return ("unknown",)

    def relations(self) -> dict:
        """Pairs of access indexes for po, each fence kind and each dependency."""
        at = [instr for instr, _ in self.mems]

        def after(i):
            return [k for k, j in enumerate(at) if j > i]

        rels = {
            "po": [(a, b) for a in range(len(at)) for b in range(a + 1, len(at))],
            "addr": self.addr,
            "data": self.data,
            "ctrl": [],
        }
        for fi, kind in self.fences:
            before = [k for k, j in enumerate(at) if j < fi]
            rels.setdefault(kind, []).extend((a, b) for a in before for b in after(fi))
        for bi, srcs in self.branches:
            rels["ctrl"] += [(s, b) for s in srcs for b in after(bi)]
            for fi, kind in self.fences:
                if fi > bi and kind in _CTRL_FENCES:
                    rels.setdefault("ctrl+" + kind, []).extend(
                        (s, b) for s in srcs for b in after(fi)
                    )
        return rels


def project(test: LitmusTest) -> ProjectedTest:
    sims = {}
    for tname, instrs in test.threads.items():
        regstate = {
            reg: val for (qual, reg), val in test.init_regs.items() if qual in (None, tname)
        }
        sims[tname] = _ThreadSim(tname, instrs, regstate)

    locations = sorted({act.loc for sim in sims.values() for _, act in sim.mems})
    if not locations:
        raise LitmusError("test accesses no memory")

    events = []
    names = {}
    for k, loc in enumerate(locations):
        events.append(Event(k, "init", k, MemWrite(loc, test.init_locs.get(loc, 0))))
        names[k] = "i" + loc
    init_ids = tuple(range(len(locations)))

    # program accesses in (thread, po) order; a thread's accesses are
    # consecutive ids from base, so its local pairs shift by base
    pairs = {k: [] for k in ("po",) + DEP_KINDS + ALL_FENCE_KINDS}
    reg_sources = {}
    for tname, sim in sims.items():
        base = len(events)
        for instr_idx, act in sim.mems:
            events.append(Event(len(events), tname, instr_idx, act))
        for kind, local in sim.relations().items():
            pairs[kind] += [(base + a, base + b) for a, b in local]
        for reg, last in sim.reg_last.items():
            reg_sources[(tname, reg)] = (
                ("event", base + last[1]) if last[0] == "load" else last
            )
    program = range(len(locations), len(events))
    names.update(zip(program, _event_names(len(program))))

    n = len(events)
    pairs["ctrl+cfence"] = pairs["ctrl+isync"] + pairs["ctrl+isb"]
    deps = {k: Relation.from_pairs(n, pairs[k]) for k in DEP_KINDS}
    po = Relation.from_pairs(n, pairs["po"])
    projected = ProjectedTest(
        name=test.name,
        arch=test.arch,
        events=tuple(events),
        po=po,
        po_loc=po & same_loc(events),
        same_thread=same_thread(events),
        deps=deps,
        fences={k: Relation.from_pairs(n, pairs[k]) for k in ALL_FENCE_KINDS},
        final=test.final,
        expect=test.expect,
        names=names,
        locations=tuple(locations),
        threads=tuple(sims),
        reg_sources=reg_sources,
        init_ids=init_ids,
    )
    _validate_final(projected)
    return projected


def atoms(cond):
    """The RegEq and LocEq atoms of a final condition, left to right."""
    if isinstance(cond, (And, Or)):
        for item in cond.items:
            yield from atoms(item)
    else:
        yield cond


def _validate_final(t: ProjectedTest):
    for node in atoms(t.final.cond):
        if isinstance(node, RegEq):
            if node.thread not in t.threads:
                raise LitmusError(f"final mentions unknown thread {node.thread}")
            src = t.reg_sources.get((node.thread, node.reg))
            if src is None or src[0] == "unknown":
                raise LitmusError(
                    f"final mentions {node.thread}:{node.reg} which has no "
                    "statically known source"
                )
        elif isinstance(node, LocEq) and node.loc not in t.locations:
            raise LitmusError(f"final mentions unaccessed location {node.loc}")
