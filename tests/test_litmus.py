"""Litmus parser and projection tests."""

import json
import re
import runpy
from pathlib import Path

import pytest
from hypothesis import given

from memcat import suite
from memcat.litmus import (
    ALL_FENCE_KINDS,
    ARCH_FENCES,
    DEP_KINDS,
    Add,
    And,
    Branch,
    Cmp,
    Fence,
    Final,
    LabelDef,
    LitmusError,
    LitmusTest,
    Load,
    LocEq,
    MovConst,
    Or,
    ProjectedTest,
    RegEq,
    Store,
    Xor,
    _RE_COMMENT,
    _RE_HEADER,
    _RE_SECTION,
    _int,
    _is_reg,
    _parse_cond,
    _validate_final,
    parse_litmus,
    project,
)
from memcat.relation import Event, MemRead, MemWrite, Relation

from test_fuzz import FUZZ, LITMUS_INPUTS
from test_relation import same_loc, same_thread


MP = """\
mp power

init { x=0; y=0; rx=&x; ry=&y; r1=1; }

thread T0 {
  st [rx], r1
  st [ry], r1
}

thread T1 {
  ld r2, [ry]
  ld r3, [rx]
}

final exists (T1:r2=1 /\\ T1:r3=0)
"""

MP_LWSYNC_ADDR = """\
mp+lwsync+addr power

init { x=0; y=0; rx=&x; ry=&y; r1=1; }

thread T0 {
  st [rx], r1
  lwsync
  st [ry], r1
}

thread T1 {
  ld r2, [ry]
  xor r4, r2, r2
  add r5, r4, rx
  ld r3, [r5]
}

final exists (T1:r2=1 /\\ T1:r3=0)
"""


def test_parse_mp_basic_shape():
    t = parse_litmus(MP)
    assert t.name == "mp"
    assert t.arch == "power"
    assert list(t.threads) == ["T0", "T1"]
    assert len(t.threads["T0"]) == 2
    assert t.final.quant == "exists"


def test_unknown_arch_rejected():
    with pytest.raises(LitmusError):
        parse_litmus(MP.replace("mp power", "mp vax"))


def test_foreign_fence_rejected():
    bad = MP.replace("  st [ry], r1", "  mfence\n  st [ry], r1")
    with pytest.raises(LitmusError, match="mfence"):
        parse_litmus(bad)


def test_missing_final_rejected():
    body = MP[: MP.index("final")]
    with pytest.raises(LitmusError):
        parse_litmus(body)


def test_init_bare_register_applies_to_all_threads():
    # r1 is set once and used as a store operand in both threads
    src = """\
both power
init { x=0; y=0; rx=&x; ry=&y; r1=1; }
thread T0 { st [rx], r1 }
thread T1 { st [ry], r1 }
final exists (x=1 /\\ y=1)
"""
    t = project(parse_litmus(src))
    vals = sorted(
        (e.action.loc, e.action.value)
        for e in t.events
        if e.thread != "init"
    )
    assert vals == [("x", 1), ("y", 1)]


def test_init_qualified_register_is_thread_local():
    src = """\
qual power
init { x=0; rx=&x; T0:r1=1; T1:r1=2; }
thread T0 { st [rx], r1 }
thread T1 { st [rx], r1 }
final exists (x=2)
"""
    t = project(parse_litmus(src))
    vals = sorted(
        (e.thread, e.action.value) for e in t.events if e.thread != "init"
    )
    assert vals == [("T0", 1), ("T1", 2)]


def test_projection_mp_events_and_names():
    t = project(parse_litmus(MP))
    # two init writes (sorted by location) then four program events
    assert [t.names[e.id] for e in t.events] == ["ix", "iy", "a", "b", "c", "d"]
    assert [e.thread for e in t.events] == ["init", "init", "T0", "T0", "T1", "T1"]
    kinds = [type(e.action).__name__ for e in t.events]
    assert kinds == ["MemWrite"] * 4 + ["MemRead"] * 2
    assert set(t.po.pairs()) == {(2, 3), (4, 5)}
    assert not any(t.fences[k] for k in t.fences)


def test_projection_init_writes_cover_accessed_locations_once():
    t = project(parse_litmus(MP))
    init = [e for e in t.events if e.thread == "init"]
    assert sorted(e.action.loc for e in init) == ["x", "y"]
    assert all(e.action.value == 0 for e in init)
    assert all(isinstance(e.action, MemWrite) for e in init)


def test_projection_lwsync_and_addr_edges():
    t = project(parse_litmus(MP_LWSYNC_ADDR))
    assert set(t.fences["lwsync"].pairs()) == {(2, 3)}
    assert set(t.deps["addr"].pairs()) == {(4, 5)}
    assert not t.deps["data"]
    assert not t.deps["ctrl"]


def test_fence_relates_all_pairs_across_it():
    src = """\
span power
init { x=0; y=0; z=0; rx=&x; ry=&y; rz=&z; r1=1; }
thread T0 {
  st [rx], r1
  sync
  st [ry], r1
  st [rz], r1
}
final exists (x=1)
"""
    t = project(parse_litmus(src))
    assert set(t.fences["sync"].pairs()) == {(3, 4), (3, 5)}


def test_data_dependency_reaches_store_value():
    src = """\
dep power
init { x=0; y=0; rx=&x; ry=&y; }
thread T0 {
  ld r1, [rx]
  xor r2, r1, r1
  add r3, r2, #1
  st [ry], r3
}
final exists (y=1)
"""
    t = project(parse_litmus(src))
    read = next(e for e in t.events if isinstance(e.action, MemRead))
    write = next(
        e for e in t.events if isinstance(e.action, MemWrite) and e.thread == "T0"
    )
    assert (read.id, write.id) in t.deps["data"]
    assert (read.id, write.id) not in t.deps["addr"]
    assert write.action.value == 1


def test_xor_same_register_value_is_zero_but_dependency_remains():
    src = """\
falsedep power
init { x=0; y=0; rx=&x; ry=&y; }
thread T0 {
  ld r1, [ry]
  xor r2, r1, r1
  add r3, r2, rx
  ld r4, [r3]
}
final exists (T0:r1=0)
"""
    t = project(parse_litmus(src))
    reads = [e for e in t.events if isinstance(e.action, MemRead)]
    assert len(reads) == 2
    assert (reads[0].id, reads[1].id) in t.deps["addr"]
    # r3 still statically names x, so the second load touches x
    assert reads[1].action.loc == "x"


def test_dependency_carries_through_a_dependent_load():
    # b's address depends on a, so b's destination r4 carries a's taint
    # along with b's own; mov clears a register's taint
    src = """\
chain power
init { x=0; y=0; z=0; w=0; rx=&x; ry=&y; rz=&z; rw=&w; r9=1; }
thread T0 {
  ld r1, [rx]
  xor r2, r1, r1
  add r3, r2, ry
  ld r4, [r3]
  xor r5, r4, r4
  add r6, r5, rz
  st [r6], r9
  add r7, r5, #1
  st [rw], r7
  mov r4, #0
  add r8, r4, rx
  ld r10, [r8]
}
final exists (T0:r1=0)
"""
    t = project(parse_litmus(src))
    a, b, c, d, e = (ev.id for ev in t.events if ev.thread == "T0")
    assert set(t.deps["addr"].pairs()) == {(a, b), (a, c), (b, c)}
    assert set(t.deps["data"].pairs()) == {(a, d), (b, d)}
    assert not any((x, e) in t.deps["addr"] for x in (a, b, c, d))


def test_ctrl_covers_every_later_access():
    src = """\
ctrl power
init { x=0; y=0; z=0; rx=&x; ry=&y; rz=&z; r1=1; }
thread T0 {
  ld r2, [ry]
  cmp r2, #1
  bne L0
L0:
  ld r3, [rx]
  st [rz], r1
}
final exists (T0:r2=1)
"""
    t = project(parse_litmus(src))
    a, b, c = (e.id for e in t.events if e.thread == "T0")
    assert set(t.deps["ctrl"].pairs()) == {(a, b), (a, c)}
    assert not t.deps["ctrl+isync"]


def test_ctrl_isync_needs_fence_between_branch_and_access():
    src = """\
ctrlisync power
init { x=0; y=0; rx=&x; ry=&y; }
thread T0 {
  ld r2, [ry]
  cmp r2, #1
  bne L0
L0:
  isync
  ld r3, [rx]
}
final exists (T0:r2=1)
"""
    t = project(parse_litmus(src))
    a, b = (e.id for e in t.events if e.thread == "T0")
    assert (a, b) in t.deps["ctrl"]
    assert set(t.deps["ctrl+isync"].pairs()) == {(a, b)}


def test_branch_must_target_next_label():
    src = """\
badbr power
init { x=0; rx=&x; }
thread T0 {
  ld r2, [rx]
  cmp r2, #1
  bne L1
  ld r3, [rx]
L1:
}
final exists (T0:r2=1)
"""
    with pytest.raises(LitmusError, match="L1"):
        parse_litmus(src)


def test_store_of_unknown_value_rejected():
    src = """\
unk power
init { x=0; y=0; rx=&x; ry=&y; }
thread T0 {
  ld r1, [rx]
  st [ry], r1
}
final exists (y=0)
"""
    with pytest.raises(LitmusError, match="static"):
        project(parse_litmus(src))


def test_load_through_integer_register_rejected():
    src = """\
badaddr power
init { x=0; r1=7; }
thread T0 {
  ld r2, [r1]
}
final exists (T0:r2=0)
"""
    with pytest.raises(LitmusError, match="address"):
        project(parse_litmus(src))


def test_add_location_plus_nonzero_rejected():
    src = """\
badadd power
init { x=0; rx=&x; }
thread T0 {
  add r2, rx, #4
  ld r3, [r2]
}
final exists (T0:r3=0)
"""
    with pytest.raises(LitmusError):
        project(parse_litmus(src))


def test_final_condition_conjunction_binds_tighter():
    src = MP.replace(
        "final exists (T1:r2=1 /\\ T1:r3=0)",
        "final exists (T1:r2=1 /\\ T1:r3=0 \\/ x=1)",
    )
    cond = parse_litmus(src).final.cond
    assert isinstance(cond, Or)
    assert isinstance(cond.items[0], And)
    assert cond.items[1] == LocEq("x", 1)


def test_deeply_nested_final_is_a_litmus_error():
    deep = "(" * 400 + "T1:r2=1" + ")" * 400
    src = MP.replace("(T1:r2=1 /\\ T1:r3=0)", f"({deep})")
    assert deep in src
    with pytest.raises(LitmusError, match="nested too deeply"):
        parse_litmus(src)


def test_expect_block_parsed():
    src = MP.replace(
        "final exists",
        "expect { power = allowed; sc = forbidden; }\n\nfinal exists",
    )
    t = parse_litmus(src)
    assert t.expect == {"power": "allowed", "sc": "forbidden"}


def test_register_sources_track_last_writer():
    t = project(parse_litmus(MP))
    src_r2 = t.reg_sources[("T1", "r2")]
    src_r3 = t.reg_sources[("T1", "r3")]
    assert src_r2 == ("event", 4)
    assert src_r3 == ("event", 5)
    assert t.reg_sources[("T0", "r1")] == ("const", 1)


def test_final_on_register_without_value_rejected():
    src = """\
nofinal power
init { x=0; rx=&x; }
thread T0 { ld r1, [rx] }
final exists (T0:r9=0)
"""
    with pytest.raises(LitmusError, match="r9"):
        project(parse_litmus(src))


def test_arm_arch_accepts_its_fences():
    src = """\
armok arm
init { x=0; y=0; rx=&x; ry=&y; r1=1; }
thread T0 {
  st [rx], r1
  dmb
  st [ry], r1
}
thread T1 {
  ld r2, [ry]
  dmb.st
  ld r3, [rx]
}
final exists (T1:r2=1)
"""
    t = project(parse_litmus(src))
    assert set(t.fences["dmb"].pairs()) == {(2, 3)}
    assert set(t.fences["dmb.st"].pairs()) == {(4, 5)}
    assert not t.fences["sync"]


def test_sections_may_share_a_line():
    one_line = MP.replace(
        MP[MP.index("thread T0"):MP.index("final")],
        "thread T0 { st [rx], r1; st [ry], r1 } thread T1 { ld r2, [ry]; ld r3, [rx] }\n",
    )
    t = parse_litmus(one_line)
    assert t.threads == parse_litmus(MP).threads
    assert projection_record(project(t)) == projection_record(project(parse_litmus(MP)))


def test_entries_end_at_semicolons_and_newlines_in_every_block():
    src = MP.replace(
        "init { x=0; y=0; rx=&x; ry=&y; r1=1; }",
        "init {\n x=0\n y=0; rx=&x\n ry=&y; r1=1 }",
    )
    src = src.replace("final", "expect { power = allowed\n sc = forbidden }\nfinal")
    t = parse_litmus(src)
    assert t.init_locs == parse_litmus(MP).init_locs
    assert t.init_regs == parse_litmus(MP).init_regs
    assert t.expect == {"power": "allowed", "sc": "forbidden"}


# text the reader once dropped or crashed on, and the line it is reported on
REJECTED = [
    pytest.param(MP.replace("init {", "init x=5 {"), 3, id="init-prefix"),
    pytest.param(MP.replace("init {", "initialise {"), 3, id="initialise"),
    pytest.param(MP + "expect power=allowed { sc = forbidden }\n", 16, id="expect-prefix"),
    pytest.param(MP + "expect\n", 16, id="bare-expect"),
    pytest.param(MP + "final exists (T1:r2=0)\n", 16, id="second-final"),
    pytest.param(MP.replace("  st [ry], r1\n}", "  st [ry], r1\n} junk"), 8, id="after-brace"),
    pytest.param(MP.replace("  ld r3, [rx]\n}", "  ld r3, [rx]"), 10, id="unterminated"),
]


@pytest.mark.parametrize("src, line", REJECTED)
def test_text_outside_any_section_is_rejected_with_its_line(src, line):
    with pytest.raises(LitmusError, match=rf"^line {line}: "):
        parse_litmus(src)


BIG = "7" * 5000  # past the interpreter's limit on the digits int() converts

HUGE_INTEGERS = [
    pytest.param(MP.replace("r1=1;", f"r1={BIG};"), 3, id="init-register"),
    pytest.param(MP.replace("x=0;", f"x={BIG};"), 3, id="init-location"),
    pytest.param(MP.replace("  ld r3", f"  mov r9, #{BIG}\n  ld r3"), 12, id="mov"),
    pytest.param(MP.replace("  ld r3", f"  add r9, r2, #{BIG}\n  ld r3"), 12, id="add"),
    pytest.param(MP.replace("  ld r3", f"  cmp r2, #-{BIG}\n  ld r3"), 12, id="cmp"),
    pytest.param(MP.replace("T1:r3=0", f"T1:r3={BIG}"), 15, id="final-register"),
    pytest.param(MP.replace("T1:r2=1", f"x={BIG}"), 15, id="final-location"),
]


@pytest.mark.parametrize("src, line", HUGE_INTEGERS)
def test_integer_past_the_digit_limit_is_a_litmus_error(src, line):
    msg = rf"^line {line}: integer of 500[01] characters is too long$"
    with pytest.raises(LitmusError, match=msg):
        parse_litmus(src)


NINES = 10**4300 - 1  # the most digits int() converts back and forth
# a value of 4,300 digits whose xor with NINES has 4,301
XOR_MATE = NINES ^ (1 << NINES.bit_length()) - 1


def computed(init: str, instr: str) -> str:
    """A test whose T0 computes r2 from r1 = NINES and stores it to x."""
    return (
        f"big power\ninit {{ x=0; rx=&x; r1={NINES}; {init} }}\n"
        f"thread T0 {{\n  {instr}\n  st [rx], r2\n}}\nfinal exists (x=0)\n"
    )


COMPUTED_HUGE_INTEGERS = [
    pytest.param(computed("", "add r2, r1, r1"), id="add"),
    pytest.param(computed(f"r3={XOR_MATE};", "xor r2, r1, r3"), id="xor"),
]


@pytest.mark.parametrize("src", COMPUTED_HUGE_INTEGERS)
def test_value_computed_past_the_digit_limit_is_a_litmus_error(src):
    test = parse_litmus(src)
    with pytest.raises(LitmusError, match=r"^line 4: T0: value of r2 is too long$"):
        project(test)


# Every suite test's projection, recorded before dependencies were computed
# by register taint instead of a micro-event graph.  Frozen: a frontend
# change that moves any entry here is a behaviour change, not a refactor.
SNAPSHOT = Path(__file__).with_name("projection_snapshot.json")


def projection_record(t) -> dict:
    """Everything project() computes, as plain JSON data."""
    return {
        "events": [
            [e.thread, e.po_index, type(e.action).__name__, e.action.loc, e.action.value]
            for e in t.events
        ],
        "names": [t.names[e.id] for e in t.events],
        "po": t.po.pairs(),
        "deps": {k: r.pairs() for k, r in sorted(t.deps.items())},
        "fences": {k: r.pairs() for k, r in sorted(t.fences.items())},
        "reg_sources": {
            f"{thread}:{reg}": list(src)
            for (thread, reg), src in sorted(t.reg_sources.items())
        },
    }


def test_suite_projections_match_snapshot():
    want = json.loads(SNAPSHOT.read_text())
    assert sorted(want) == suite.names()
    for name in suite.names():
        got = json.loads(json.dumps(projection_record(suite.load(name))))
        assert got == want[name], name


# ------------------------------------------------------ reference front end
#
# The front end as it was before project() built its relations as bits:
# one regex per instruction kind tried in turn, and a per-thread simulator
# that records pairs of access indexes, turned into relations with
# Relation.from_pairs.  Kept as the reference the lean front end must equal,
# with two fixes: a thread may not be named init, and an init key is set
# once, a thread-qualified register winning over an unqualified one.  The
# section scanner, the final condition's parser, its check against the
# projection and the integer and register helpers are shared.

_R_INIT = re.compile(r"^(?:(\w+)\s*:\s*)?([A-Za-z_]\w*)\s*=\s*(?:&([A-Za-z_]\w*)|(-?\d+))$")
_R_MOV = re.compile(r"^mov\s+([A-Za-z_]\w*)\s*,\s*#(-?\d+)$")
_R_LD = re.compile(r"^ld\s+([A-Za-z_]\w*)\s*,\s*\[([A-Za-z_]\w*)\]$")
_R_ST = re.compile(r"^st\s+\[([A-Za-z_]\w*)\]\s*,\s*([A-Za-z_]\w*)$")
_R_XOR = re.compile(r"^xor\s+([A-Za-z_]\w*)\s*,\s*([A-Za-z_]\w*)\s*,\s*([A-Za-z_]\w*)$")
_R_ADD = re.compile(
    r"^add\s+([A-Za-z_]\w*)\s*,\s*([A-Za-z_]\w*)\s*,\s*(?:#(-?\d+)|([A-Za-z_]\w*))$"
)
_R_CMP = re.compile(r"^cmp\s+([A-Za-z_]\w*)\s*,\s*#(-?\d+)$")
_R_BR = re.compile(r"^(bne|beq)\s+(\w+)$")
_R_LABEL = re.compile(r"^(\w+):$")
_R_FENCE = re.compile(r"^([a-z]+(?:\.[a-z]+)?)$")
_R_EXPECT = re.compile(r"^([\w.+-]+)\s*=\s*(allowed|forbidden)$")
_R_COND = re.compile(r"(/\\|\\/|[()])|(?:(\w+):)?([A-Za-z_]\w*)=(-?\d+)|\s+|(.)")


def _ref_instr(text, arch, line):
    text = text.strip()
    if m := _R_MOV.match(text):
        return MovConst(m.group(1), _int(m.group(2), line))
    if m := _R_LD.match(text):
        return Load(m.group(1), m.group(2))
    if m := _R_ST.match(text):
        return Store(m.group(1), m.group(2))
    if m := _R_XOR.match(text):
        return Xor(m.group(1), m.group(2), m.group(3), line)
    if m := _R_ADD.match(text):
        b = _int(m.group(3), line) if m.group(3) is not None else m.group(4)
        return Add(m.group(1), m.group(2), b, line)
    if m := _R_CMP.match(text):
        return Cmp(m.group(1), _int(m.group(2), line))
    if m := _R_BR.match(text):
        return Branch(m.group(1), m.group(2))
    if m := _R_LABEL.match(text):
        return LabelDef(m.group(1))
    if m := _R_FENCE.match(text):
        kind = m.group(1)
        if kind in ALL_FENCE_KINDS:
            if kind not in ARCH_FENCES[arch]:
                raise LitmusError(f"fence {kind} not available on {arch}", line)
            return Fence(kind)
    raise LitmusError(f"cannot parse instruction {text!r}", line)


def _ref_tokens(text, line):
    tokens = []
    for m in _R_COND.finditer(text):
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


def _ref_line(text, offset):
    return text.count("\n", 0, offset) + 1


def _ref_entries(text, start, end):
    line = _ref_line(text, start)
    for row in text[start:end].split("\n"):
        for entry in row.split(";"):
            if entry.strip():
                yield line, entry.strip()
        line += 1


def reference_parse(text: str) -> LitmusTest:
    text = _RE_COMMENT.sub("", text)
    head = _RE_HEADER.match(text)
    if not head.group(1):
        raise LitmusError("empty litmus source")
    no = _ref_line(text, head.start(1))
    parts = head.group(1).split()
    if len(parts) != 2:
        raise LitmusError("header must be '<name> <arch>'", no)
    name, arch = parts[0], parts[1].lower()
    if arch not in ARCH_FENCES:
        raise LitmusError(f"unknown architecture {arch!r}", no)

    init_locs, init_regs, threads, expect = {}, {}, {}, {}
    final = None
    for m in _RE_SECTION.finditer(text, head.end()):
        if m.lastgroup is None:
            continue
        no = _ref_line(text, m.start())
        if m.lastgroup == "junk":
            raise LitmusError(f"text outside any section: {m.group('junk').strip()!r}", no)
        if m.lastgroup == "cond":
            if final is not None:
                raise LitmusError("duplicate final condition", no)
            final = Final(m.group("quant"), _parse_cond(_ref_tokens(m.group("cond"), no), no))
            continue
        entries = _ref_entries(text, *m.span("body"))
        if m.group("kind") == "init":
            for bno, entry in entries:
                e = _R_INIT.match(entry)
                if not e:
                    raise LitmusError(f"bad init entry {entry!r}", bno)
                thread, lhs, loc, num = e.groups()
                if loc is not None:
                    if not _is_reg(lhs):
                        raise LitmusError(f"{lhs} holds an address but is not a register", bno)
                    if _is_reg(loc):
                        raise LitmusError(f"location names must not start with 'r': {loc}", bno)
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
                e = _R_EXPECT.match(entry)
                if not e:
                    raise LitmusError(f"bad expect entry {entry!r}", bno)
                expect[e.group(1)] = e.group(2)
        else:
            tname = m.group("thread")
            if tname == "init":
                raise LitmusError("a thread may not be named init", no)
            if tname in threads:
                raise LitmusError(f"duplicate thread {tname}", no)
            instrs = [_ref_instr(entry, arch, bno) for bno, entry in entries]
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


class _ThreadSim:
    """Static evaluation of one thread: each register's value and taint
    (a frozenset of load indexes), and pairs of access indexes for po,
    each fence kind and each dependency."""

    def __init__(self, tname, instrs, regstate):
        self.tname = tname
        self.regs = regstate
        self.taint = {}
        self.reg_last = {}
        self.mems = []
        self.fences = []
        self.branches = []
        self.addr, self.data = [], []
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
                str(val[1])
            except ValueError:
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
                out = ("int", 0)
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

    def _add_vals(self, va, vb):
        vals = (va, vb)
        if all(v[0] == "int" for v in vals):
            return ("int", va[1] + vb[1])
        if any(v[0] == "loc" for v in vals):
            loc = next(v for v in vals if v[0] == "loc")
            other = vb if loc is va else va
            if other[0] == "int" and other[1] == 0:
                return loc
            raise LitmusError(f"{self.tname}: address arithmetic beyond +0 is not supported")
        return ("unknown",)

    def relations(self):
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
                if fi > bi and kind in ("isync", "isb"):
                    rels.setdefault("ctrl+" + kind, []).extend(
                        (s, b) for s in srcs for b in after(fi)
                    )
        return rels


def reference_project(test: LitmusTest) -> ProjectedTest:
    sims = {}
    for tname, instrs in test.threads.items():
        regstate = {reg: val for (qual, reg), val in test.init_regs.items() if qual is None}
        regstate.update(
            (reg, val) for (qual, reg), val in test.init_regs.items() if qual == tname
        )
        sims[tname] = _ThreadSim(tname, instrs, regstate)

    locations = sorted({act.loc for sim in sims.values() for _, act in sim.mems})
    if not locations:
        raise LitmusError("test accesses no memory")
    events, names = [], {}
    for k, loc in enumerate(locations):
        events.append(Event(k, "init", k, MemWrite(loc, test.init_locs.get(loc, 0))))
        names[k] = "i" + loc
    pairs = {k: [] for k in ("po",) + DEP_KINDS + ALL_FENCE_KINDS}
    reg_sources = {}
    for tname, sim in sims.items():
        base = len(events)
        for instr_idx, act in sim.mems:
            events.append(Event(len(events), tname, instr_idx, act))
        for kind, local in sim.relations().items():
            pairs[kind] += [(base + a, base + b) for a, b in local]
        for reg, last in sim.reg_last.items():
            reg_sources[(tname, reg)] = ("event", base + last[1]) if last[0] == "load" else last
    letters = "abcdefghijklmnopqrstuvwxyz"
    for k in range(len(locations), len(events)):
        i = k - len(locations)
        names[k] = letters[i] if i < 26 else letters[i % 26] + str(i // 26)

    n = len(events)
    pairs["ctrl+cfence"] = pairs["ctrl+isync"] + pairs["ctrl+isb"]
    po = Relation.from_pairs(n, pairs["po"])
    projected = ProjectedTest(
        name=test.name,
        arch=test.arch,
        events=tuple(events),
        po=po,
        po_loc=po & same_loc(events),
        same_thread=same_thread(events),
        deps={k: Relation.from_pairs(n, pairs[k]) for k in DEP_KINDS},
        fences={k: Relation.from_pairs(n, pairs[k]) for k in ALL_FENCE_KINDS},
        final=test.final,
        expect=test.expect,
        names=names,
        locations=tuple(locations),
        threads=tuple(sims),
        reg_sources=reg_sources,
        init_ids=tuple(range(len(locations))),
    )
    _validate_final(projected)
    return projected


def front_end(front, text):
    """(parsed test, projection fields) of text, or the LitmusError message."""
    parse, proj = front
    try:
        parsed = parse(text)
        t = proj(parsed)
    except LitmusError as exc:
        return str(exc)
    return parsed, {f: getattr(t, f) for f in t._fields}


LEAN = (parse_litmus, project)
REFERENCE = (reference_parse, reference_project)


@pytest.fixture(scope="module")
def corpus():
    """The suite, tests/chunked.litmus and perfbench/gen.py's wide and xcheck
    seeds 1-3, with and without mine_only."""
    gen = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "gen.py"))
    texts = [suite.source(name) for name in suite.names()]
    texts.append(Path(__file__).with_name("chunked.litmus").read_text())
    for workload in ("wide", "xcheck"):
        for seed in (1, 2, 3):
            for mine_only in (False, True):
                texts += [text for _, text, _, _ in gen["generate"](workload, seed, mine_only)]
    return texts


def test_projections_match_reference_on_corpus(corpus):
    # events, names, locations, threads, init_ids, po, po_loc, same_thread,
    # every dep and fence relation, reg_sources, final and expect
    assert len(corpus) == 396
    for text in corpus:
        got, want = front_end(LEAN, text), front_end(REFERENCE, text)
        assert not isinstance(want, str), want
        assert got == want, text


@FUZZ
@given(LITMUS_INPUTS)
def test_front_end_matches_reference_on_fuzzed_text(text):
    # the same test and projection, or the same message with its line
    assert front_end(LEAN, text) == front_end(REFERENCE, text)


CORR_READER = suite.source("coRR").replace("thread T0 {", "thread init {")


def test_thread_named_init_is_rejected_with_its_line():
    # initial writes are the events of thread init; a thread of that name
    # would have its accesses taken for them
    assert "thread init {" in CORR_READER
    with pytest.raises(LitmusError, match=r"^line 5: a thread may not be named init$"):
        parse_litmus(CORR_READER)


ORDERS = """\
qual power
init {{ x=0; rx=&x; {} }}
thread T0 {{ st [rx], r1 }}
thread T1 {{ st [rx], r1 }}
final exists (x=1)
"""


@pytest.mark.parametrize("regs", ["T0:r1=2; r1=1;", "r1=1; T0:r1=2;"])
def test_qualified_register_init_wins_in_either_order(regs):
    t = project(parse_litmus(ORDERS.format(regs)))
    stored = [(e.thread, e.action.value) for e in t.events if e.thread != "init"]
    assert stored == [("T0", 2), ("T1", 1)]
    assert t.reg_sources[("T0", "r1")] == ("const", 2)


@pytest.mark.parametrize(
    "init, line, key",
    [
        ("r1=1;\n x=1;", 3, "x"),
        ("r1=1; r1=2;", 2, "r1"),
        ("T1:r1=1;\n T1:r1=&x;", 3, "T1:r1"),
        ("r1=1; } init { rx=&x;", 2, "rx"),
    ],
)
def test_init_key_set_twice_is_rejected_with_its_line(init, line, key):
    with pytest.raises(LitmusError, match=rf"^line {line}: {key} is set twice$"):
        parse_litmus(ORDERS.format(init))


def test_init_blocks_add_up():
    t = parse_litmus(ORDERS.format("r1=1; } init { y=1; T0:r1=2;"))
    assert t.init_locs == {"x": 0, "y": 1}
    assert t.init_regs == {
        (None, "rx"): ("loc", "x"), (None, "r1"): ("int", 1), ("T0", "r1"): ("int", 2)
    }
