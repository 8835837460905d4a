"""Litmus test frontend.

Parses the small assembly-like litmus format, statically evaluates
register contents (addresses and stored values must be compile-time
constants), follows each register's taint (the loads whose values flow
into it, as a bitmask of the thread's accesses) to recover dependencies,
and projects everything down to the memory events and relations the
enumerator works on.  A thread's accesses are consecutive event ids, so
po, po-loc and same-thread are built as bits over that range, and each
fence and dependency is a rectangle of it: the accesses before a fence
times those after it, a taint times the access or accesses it reaches.

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
from typing import Optional, Union

from .relation import Event, MemRead, MemWrite, Record, Relation


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


class MovConst(Record):
    __slots__ = ("dst", "val")

    def __init__(self, dst: str, val: int):
        self.dst, self.val = dst, val


class Load(Record):
    __slots__ = ("dst", "addr")

    def __init__(self, dst: str, addr: str):
        self.dst, self.addr = dst, addr


class Store(Record):
    __slots__ = ("addr", "src")

    def __init__(self, addr: str, src: str):
        self.addr, self.src = addr, src


class Xor(Record, uncompared=("line",)):
    __slots__ = ("dst", "a", "b", "line")  # line: for errors in the value it computes

    def __init__(self, dst: str, a: str, b: str, line: int):
        self.dst, self.a, self.b = dst, a, b
        self.line = line


class Add(Record, uncompared=("line",)):
    __slots__ = ("dst", "a", "b", "line")  # line: for errors in the value it computes

    def __init__(self, dst: str, a: str, b: Union[str, int], line: int):
        self.dst, self.a, self.b = dst, a, b
        self.line = line


class Cmp(Record):
    __slots__ = ("reg", "val")

    def __init__(self, reg: str, val: int):
        self.reg, self.val = reg, val


class Branch(Record):
    __slots__ = ("kind", "label")

    def __init__(self, kind: str, label: str):
        self.kind, self.label = kind, label


class LabelDef(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Fence(Record):
    __slots__ = ("kind",)

    def __init__(self, kind: str):
        self.kind = kind


Instr = Union[MovConst, Load, Store, Xor, Add, Cmp, Branch, LabelDef, Fence]


# ------------------------------------------------------------ final condition


class RegEq(Record):
    __slots__ = ("thread", "reg", "value")

    def __init__(self, thread: str, reg: str, value: int):
        self.thread, self.reg, self.value = thread, reg, value


class LocEq(Record):
    __slots__ = ("loc", "value")

    def __init__(self, loc: str, value: int):
        self.loc, self.value = loc, value


class And(Record):
    __slots__ = ("items",)

    def __init__(self, items: tuple):
        self.items = items


class Or(Record):
    __slots__ = ("items",)

    def __init__(self, items: tuple):
        self.items = items


class Final(Record):
    __slots__ = ("quant", "cond")

    def __init__(self, quant: str, cond: object):
        self.quant, self.cond = quant, cond


class LitmusTest(Record):
    """init_regs: (thread | None, reg) -> ("int", n) | ("loc", name);
    threads: name -> [Instr], in declaration order."""

    __slots__ = ("name", "arch", "init_locs", "init_regs", "threads", "final", "expect")
    __hash__ = None  # its dicts are mutable

    def __init__(self, name: str, arch: str, init_locs: dict, init_regs: dict,
                 threads: dict, final: Final, expect: dict):
        self.name, self.arch, self.init_locs = name, arch, init_locs
        self.init_regs, self.threads = init_regs, threads
        self.final, self.expect = final, expect


# ------------------------------------------------------------------- parsing

_REG = r"([A-Za-z_]\w*)"
_INT = r"(-?\d+)"
# an instruction's whole text, by the first two letters of its mnemonic
_INSTRS = {
    "mo": re.compile(rf"mov\s+{_REG}\s*,\s*#{_INT}"),
    "ld": re.compile(rf"ld\s+{_REG}\s*,\s*\[{_REG}\]"),
    "st": re.compile(rf"st\s+\[{_REG}\]\s*,\s*{_REG}"),
    "xo": re.compile(rf"xor\s+{_REG}\s*,\s*{_REG}\s*,\s*{_REG}"),
    "ad": re.compile(rf"add\s+{_REG}\s*,\s*{_REG}\s*,\s*(?:#{_INT}|{_REG})"),
    "cm": re.compile(rf"cmp\s+{_REG}\s*,\s*#{_INT}"),
    "bn": re.compile(r"(bne)\s+(\w+)"),
    "be": re.compile(r"(beq)\s+(\w+)"),
}
_RE_LABEL = re.compile(r"(\w+):")
_RE_INIT = re.compile(r"(?:(\w+)\s*:\s*)?([A-Za-z_]\w*)\s*=\s*(?:&([A-Za-z_]\w*)|(-?\d+))")
_RE_EXPECT = re.compile(r"([\w.+-]+)\s*=\s*(allowed|forbidden)")
# final condition tokens, each after any whitespace: an operator, an atom or a bad character
_COND_TOKEN = re.compile(r"\s*(?:(/\\|\\/|[()])|(?:(\w+):)?([A-Za-z_]\w*)=(-?\d+)|(\S))")
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
    # one match: the mnemonic picks the pattern, and no pattern but a
    # label's or a fence's matches text without whitespace
    op = text[:2]
    rx = _INSTRS.get(op)
    m = rx.fullmatch(text) if rx is not None else None
    if m is not None:
        g = m.groups()
        if op == "ld":
            return Load(*g)
        if op == "st":
            return Store(*g)
        if op == "mo":
            return MovConst(g[0], _int(g[1], line))
        if op == "xo":
            return Xor(*g, line)
        if op == "ad":
            return Add(g[0], g[1], g[3] if g[2] is None else _int(g[2], line), line)
        if op == "cm":
            return Cmp(g[0], _int(g[1], line))
        return Branch(*g)
    if text in ALL_FENCE_KINDS:
        if text not in ARCH_FENCES[arch]:
            raise LitmusError(f"fence {text} not available on {arch}", line)
        return Fence(text)
    if m := _RE_LABEL.fullmatch(text):
        return LabelDef(m[1])
    raise LitmusError(f"cannot parse instruction {text!r}", line)


def _tokenize_cond(text: str, line: int):
    tokens = []
    for op, thread, name, value, bad in _COND_TOKEN.findall(text):
        if op:
            tokens.append(op)
        elif thread:
            tokens.append(RegEq(thread, name, _int(value, line)))
        elif name:
            if _is_reg(name):
                raise LitmusError(f"register {name} in final must be thread-qualified", line)
            tokens.append(LocEq(name, _int(value, line)))
        else:  # every earlier match made one token
            at = [m.start(5) for m in _COND_TOKEN.finditer(text)][len(tokens)]
            raise LitmusError(f"bad final condition near {text[at:]!r}", line)
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


def _entries(body: str, line: int) -> list:
    """(line, entry) for each non-blank entry of a block body that starts on
    line; entries end at ';' or a newline."""
    out = []
    for row in body.split("\n"):
        for entry in row.split(";"):
            entry = entry.strip()
            if entry:
                out.append((line, entry))
        line += 1
    return out


def parse_litmus(text: str) -> LitmusTest:
    # '#' starts a comment unless it introduces an immediate like #1 or #-1
    text = _RE_COMMENT.sub("", text)
    head = _RE_HEADER.match(text)
    if not head.group(1):
        raise LitmusError("empty litmus source")
    at = head.start(1)
    no = text.count("\n", 0, at) + 1  # the line of offset at
    parts = head.group(1).split()
    if len(parts) != 2:
        raise LitmusError("header must be '<name> <arch>'", no)
    name, arch = parts[0], parts[1].lower()
    if arch not in ARCH_FENCES:
        raise LitmusError(f"unknown architecture {arch!r}", no)

    init_locs, init_regs, threads, expect = {}, {}, {}, {}
    final: Optional[Final] = None
    for m in _RE_SECTION.finditer(text, head.end()):
        kind = m.lastgroup
        if kind is None:  # whitespace between sections
            continue
        no += text.count("\n", at, m.start())
        at = m.start()
        if kind == "junk":
            raise LitmusError(f"text outside any section: {m.group('junk').strip()!r}", no)
        if kind == "cond":
            if final is not None:
                raise LitmusError("duplicate final condition", no)
            cond = _parse_cond(_tokenize_cond(m.group("cond"), no), no)
            final = Final(m.group("quant"), cond)
            continue
        body = m.start("body")
        entries = _entries(m.group("body"), no + text.count("\n", at, body))
        if m.group("kind") == "init":
            for bno, entry in entries:
                e = _RE_INIT.fullmatch(entry)
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
                    keys, key, val = init_regs, (thread, lhs), ("loc", loc)
                elif _is_reg(lhs):
                    keys, key, val = init_regs, (thread, lhs), ("int", _int(num, bno))
                elif thread is not None:
                    raise LitmusError(f"location {lhs} cannot be thread-qualified", bno)
                else:
                    keys, key, val = init_locs, lhs, _int(num, bno)
                if key in keys:
                    shown = lhs if thread is None else f"{thread}:{lhs}"
                    raise LitmusError(f"{shown} is set twice", bno)
                keys[key] = val
        elif m.group("kind") == "expect":
            for bno, entry in entries:
                e = _RE_EXPECT.fullmatch(entry)
                if not e:
                    raise LitmusError(f"bad expect entry {entry!r}", bno)
                expect[e.group(1)] = e.group(2)
        else:
            tname = m.group("thread")
            if tname == "init":  # the thread of the initial writes
                raise LitmusError("a thread may not be named init", no)
            if tname in threads:
                raise LitmusError(f"duplicate thread {tname}", no)
            instrs = [_parse_instr(entry, arch, bno) for bno, entry in entries]
            for k, ins in enumerate(instrs):
                if ins.__class__ is Branch and instrs[k + 1:k + 2] != [LabelDef(ins.label)]:
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


class ProjectedTest(Record):
    """Memory events of a test plus every statically known relation.
    same_thread splits rf, co and fr into internal and external parts;
    reg_sources: (thread, reg) -> ("event", eid) | ("const", n) | ("unknown",)."""

    __slots__ = ("name", "arch", "events", "po", "po_loc", "same_thread", "deps", "fences",
                 "final", "expect", "names", "locations", "threads", "reg_sources", "init_ids")
    __hash__ = None  # its dicts are mutable

    def __init__(self, name: str, arch: str, events: tuple, po: Relation, po_loc: Relation,
                 same_thread: Relation, deps: dict, fences: dict, final: Final, expect: dict,
                 names: dict, locations: tuple, threads: tuple, reg_sources: dict,
                 init_ids: tuple):
        self.name, self.arch, self.events = name, arch, events
        self.po, self.po_loc, self.same_thread = po, po_loc, same_thread
        self.deps, self.fences, self.final = deps, fences, final
        self.expect, self.names, self.locations = expect, names, locations
        self.threads, self.reg_sources, self.init_ids = threads, reg_sources, init_ids

    @property
    def n(self) -> int:
        return len(self.events)


def _event_names(count: int) -> list:
    letters = string.ascii_lowercase
    return [letters[k] if k < 26 else letters[k % 26] + str(k // 26) for k in range(count)]


def _evaluate(tname: str, instrs: list, regs: dict):
    """Statically evaluate one thread in one pass over its instructions.

    regs maps each register to its value: an int, a location name, or None
    when only the run decides it.  Each register also has a taint, the
    loads whose values flow into it, as a bitmask of the thread's access
    indexes: a load taints its destination with its address's taint plus
    its own bit, xor and add join their operands' taints, mov clears it
    and cmp hands its register's taint to cr0.

    Returns the accesses [(instruction index, action)], each register's
    last writer (a load's access index, ("const", n) or ("unknown",)), and
    the dependencies and fences as rectangles (kind, rows, cols) of access
    bitmasks.  A tainted address or stored value relates its taint to the
    access (addr, data); a fence relates the accesses before it to those
    after it; a branch relates cr0's taint to the accesses after it (ctrl)
    and after each later isync or isb (ctrl+isync, ctrl+isb).  cols
    -(1 << k) is every access from k on.
    """
    taint, acts, rects, branches = {}, [], [], []
    last = {reg: ("const", v) for reg, v in regs.items() if v.__class__ is int}
    for idx, ins in enumerate(instrs):
        cls = ins.__class__
        if cls is Load or cls is Store:
            loc, k = regs.get(ins.addr), len(acts)
            if loc.__class__ is not str:
                raise LitmusError(
                    f"{tname}: address register {ins.addr} must hold a location address"
                )
            t = taint.get(ins.addr, 0)
            if t:
                rects.append(("addr", t, 1 << k))
            if cls is Load:
                acts.append((idx, MemRead(loc)))
                regs[ins.dst], taint[ins.dst], last[ins.dst] = None, t | 1 << k, k
                continue
            val = regs.get(ins.src)
            if val.__class__ is not int:
                raise LitmusError(
                    f"{tname}: stored value in {ins.src} must be a static integer"
                )
            acts.append((idx, MemWrite(loc, val)))
            t = taint.get(ins.src, 0)
            if t:
                rects.append(("data", t, 1 << k))
        elif cls is MovConst:
            regs[ins.dst], taint[ins.dst], last[ins.dst] = ins.val, 0, ("const", ins.val)
        elif cls is Xor or cls is Add:
            a, b, t = regs.get(ins.a), ins.b, taint.get(ins.a, 0)
            if b.__class__ is str:  # a register; add may take an immediate
                b, t = regs.get(b), t | taint.get(b, 0)
            if cls is Xor and ins.a == ins.b:
                v = 0  # x^x=0 even when x is runtime-dependent
            elif a.__class__ is int and b.__class__ is int:
                v = a ^ b if cls is Xor else a + b
            elif cls is Add and (a.__class__ is str or b.__class__ is str):
                if a.__class__ is str and b == 0:
                    v = a
                elif b.__class__ is str and a == 0:
                    v = b
                else:
                    raise LitmusError(f"{tname}: address arithmetic beyond +0 is not supported")
            else:
                v = None
            if v.__class__ is int:
                try:
                    str(v)  # observed states print it
                except ValueError:  # past the interpreter's limit on integer digits
                    msg = f"{tname}: value of {ins.dst} is too long"
                    raise LitmusError(msg, ins.line) from None
                last[ins.dst] = ("const", v)
            else:
                last[ins.dst] = ("unknown",)
            regs[ins.dst], taint[ins.dst] = v, t
        elif cls is Cmp:
            regs["cr0"], taint["cr0"] = None, taint.get(ins.reg, 0)
        elif cls is Branch:
            t = taint.get("cr0", 0)
            if t:
                branches.append(t)
                rects.append(("ctrl", t, -(1 << len(acts))))
        elif cls is Fence:
            k = len(acts)
            rects.append((ins.kind, (1 << k) - 1, -(1 << k)))
            if ins.kind in _CTRL_FENCES:
                rects += [("ctrl+" + ins.kind, t, -(1 << k)) for t in branches]
    return acts, last, rects


def project(test: LitmusTest) -> ProjectedTest:
    # a thread-qualified register wins over an unqualified one
    shared, own = {}, {}
    for (qual, reg), (_, val) in test.init_regs.items():
        (shared if qual is None else own.setdefault(qual, {}))[reg] = val
    threads = [
        (tname, *_evaluate(tname, instrs, {**shared, **own.get(tname, {})}))
        for tname, instrs in test.threads.items()
    ]

    locations = sorted({act.loc for _, acts, _, _ in threads for _, act in acts})
    if not locations:
        raise LitmusError("test accesses no memory")
    init_locs, nl = test.init_locs, len(locations)
    events = [Event(k, "init", k, MemWrite(loc, init_locs.get(loc, 0)))
              for k, loc in enumerate(locations)]
    n = nl + sum(len(acts) for _, acts, _, _ in threads)
    names = {k: "i" + loc for k, loc in enumerate(locations)}
    names.update(zip(range(nl, n), _event_names(n - nl)))

    # a thread's accesses are the consecutive ids from base: po, po-loc and
    # same-thread are built row by row over that range, and each rectangle
    # row by row of its rows
    po = po_loc = same = 0
    for i in range(nl):  # the initial writes are one thread
        same |= (1 << nl) - 1 << i * n
    bits = dict.fromkeys(DEP_KINDS + ALL_FENCE_KINDS, 0)
    reg_sources = {}
    for tname, acts, last, rects in threads:
        base = len(events)
        events += [Event(base + k, tname, idx, act) for k, (idx, act) in enumerate(acts)]
        span, later = (1 << len(acts)) - 1 << base, {}  # later: loc -> accesses after i
        for i in range(len(events) - 1, base - 1, -1):
            loc, shift = events[i].action.loc, i * n
            same |= span << shift
            po |= (span & -(2 << i)) << shift
            row = later.get(loc, 0)
            po_loc |= row << shift
            later[loc] = row | 1 << i
        for kind, rows, cols in rects:
            cols = cols << base & span
            while rows and cols:
                low = rows & -rows
                bits[kind] |= cols << (base + low.bit_length() - 1) * n
                rows ^= low
        for reg, src in last.items():
            reg_sources[(tname, reg)] = ("event", base + src) if src.__class__ is int else src
    bits["ctrl+cfence"] = bits["ctrl+isync"] | bits["ctrl+isb"]
    none = Relation(n, 0)  # most kinds are empty, and a relation is immutable

    projected = ProjectedTest(
        name=test.name,
        arch=test.arch,
        events=tuple(events),
        po=Relation(n, po),
        po_loc=Relation(n, po_loc),
        same_thread=Relation(n, same),
        deps={k: Relation(n, bits[k]) if bits[k] else none for k in DEP_KINDS},
        fences={k: Relation(n, bits[k]) if bits[k] else none for k in ALL_FENCE_KINDS},
        final=test.final,
        expect=test.expect,
        names=names,
        locations=tuple(locations),
        threads=tuple(test.threads),
        reg_sources=reg_sources,
        init_ids=tuple(range(nl)),
    )
    _validate_final(projected)
    return projected


def atoms(cond) -> list:
    """The RegEq and LocEq atoms of a final condition, left to right."""
    out, todo = [], [cond]
    while todo:
        node = todo.pop()
        if node.__class__ is And or node.__class__ is Or:
            todo += reversed(node.items)
        else:
            out.append(node)
    return out


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
