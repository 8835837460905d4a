"""Litmus parser and projection tests."""

import json
from pathlib import Path

import pytest

from memcat import suite
from memcat.litmus import (
    And,
    LitmusError,
    LocEq,
    Or,
    RegEq,
    parse_litmus,
    project,
)
from memcat.relation import MemRead, MemWrite


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
