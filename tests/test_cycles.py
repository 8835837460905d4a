"""Static cycle mining: parsing, enumeration, reduction, naming, axioms."""

import random
import re
import runpy
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memcat import suite
from memcat.cycles import (
    Edge,
    LabeledCycle,
    Program,
    StaticAccess,
    ThrError,
    _canonical,
    _edge_between,
    _sort_key,
    classify,
    find_critical_cycles,
    location_condition,
    mine,
    name_pattern,
    parse_thr,
    program_from_litmus,
    reduce_cycle,
    thread_condition,
)
from memcat.litmus import ALL_FENCE_KINDS, DEP_KINDS, parse_litmus, project
from memcat.relation import is_write


def prog(*lines, name="p"):
    return parse_thr("\n".join(lines), name=name)


def kinds(cycle):
    return [e.kind for e in cycle.edges]


# ------------------------------------------------------------------- parsing


def test_parse_thr_reads_accesses_and_annotations():
    p = prog("T0: Wx lwsync Wy", "T1: Ry addr Rx")
    assert [(a.thread, a.po_index, a.direction, a.location) for a in p.accesses] == [
        ("T0", 0, "W", "x"),
        ("T0", 1, "W", "y"),
        ("T1", 0, "R", "y"),
        ("T1", 1, "R", "x"),
    ]
    assert p.fence_between == {(0, 1): "lwsync"}
    assert p.dep_between == {(2, 3): "addr"}


def test_parse_thr_fences_span_intermediate_accesses():
    p = prog("T0: Wx sync Ry Wz")
    assert p.fence_between[(0, 1)] == "sync"
    assert p.fence_between[(0, 2)] == "sync"
    assert (1, 2) not in p.fence_between


def test_parse_thr_strongest_fence_wins():
    p = prog("T0: Wx lwsync Ry sync Wz")
    assert p.fence_between[(0, 2)] == "sync"


@pytest.mark.parametrize(
    "text",
    [
        "T0:",
        "T0: lwsync Wx",
        "T0: Wx lwsync",
        "T0: Wx lwsync sync Wy",
        "T0: Wx frobnicate Wy",
        "T0: Wx\nT0: Wy",
        "Wx Wy",
        "T0: W",
    ],
)
def test_parse_thr_rejects_malformed(text):
    with pytest.raises(ThrError):
        parse_thr(text)


def test_litmus_projection_carries_fences_and_deps():
    p = program_from_litmus(suite.load("mp+lwsync+addr"))
    assert len(p.accesses) == 4  # init writes do not take part
    assert p.fence_between == {(0, 1): "lwsync"}
    assert p.dep_between == {(2, 3): "addr"}


# ---------------------------------------------------------------- enumeration


def test_mp_yields_single_alternating_cycle():
    cycles = find_critical_cycles(prog("T0: Wx Wy", "T1: Ry Rx"))
    assert len(cycles) == 1
    (c,) = cycles
    assert c.critical
    assert [a.uid for a in c.accesses] == [0, 1, 2, 3]
    assert kinds(c) == ["po", "rf", "po", "fr"]
    assert [e.external for e in c.edges] == [False, True, False, True]


@pytest.mark.parametrize(
    "lines",
    [
        ("T0: Wx", "T1: Rx"),  # one location only
        ("T0: Wx", "T1: Wx"),
        ("T0: Wx Wy Rz",),  # straight line, nothing competes
        ("T0: Rx Ry", "T1: Ry Rx"),  # no writes, nothing competes
    ],
)
def test_programs_without_cycles(lines):
    assert find_critical_cycles(prog(*lines)) == []


@pytest.mark.parametrize(
    "lines, shapes",
    [
        (("T0: Wx Wx",), {"coWW"}),
        (("T0: Rx Wx",), {"coRW1"}),
        (("T0: Rx Wx", "T1: Wx"), {"coRW1", "coRW2"}),
        (("T0: Wx Rx", "T1: Wx"), {"coWR"}),
        (("T0: Rx Rx", "T1: Wx"), {"coRR"}),
    ],
)
def test_coherence_shapes_detected(lines, shapes):
    cycles = find_critical_cycles(prog(*lines))
    assert {name_pattern(c).classic for c in cycles} == shapes
    assert all(not c.critical for c in cycles)
    assert all(classify(c) == "sc-per-location" for c in cycles)


def test_conditions_hold_on_seeded_random_programs():
    rng = random.Random(7)
    for _ in range(60):
        lines = []
        for t in range(rng.randint(2, 4)):
            accs = " ".join(
                rng.choice("WR") + rng.choice("xyz")
                for _ in range(rng.randint(1, 3))
            )
            lines.append(f"T{t}: {accs}")
        for c in find_critical_cycles(prog(*lines)):
            if c.critical:
                assert thread_condition(c), lines
                assert location_condition(c), lines
                assert len({a.location for a in c.accesses}) >= 2, lines


def test_alternating_threads_mine_in_bounded_time():
    # threads alternating Wx Ry / Wy Rx: the search stops at the first
    # access that breaks a minimality condition, so 10 threads stay fast;
    # the 6-thread count matches the search that filtered only at the end
    def alternating(n):
        return prog(*(f"T{i}: " + ("Wx Ry" if i % 2 else "Wy Rx") for i in range(n)))

    assert len(mine(alternating(6))) == 81
    start = time.perf_counter()
    records = mine(alternating(10))
    assert time.perf_counter() - start < 5
    assert len(records) == 625


# ------------------------------------------------------------------ reduction


def test_observer_thread_collapses_to_s():
    p = parse_thr(suite.thr_source("ww+rw+r"), name="ww+rw+r")
    cycles = [c for c in find_critical_cycles(p) if c.critical]
    assert sorted(len(c.accesses) for c in cycles) == [4, 5]
    reduced = [reduce_cycle(c) for c in cycles]
    for c in reduced:
        assert [a.uid for a in c.accesses] == [0, 1, 2, 3]
        assert kinds(c) == ["po", "rf", "po", "co"]
    named = {(name_pattern(c).systematic, name_pattern(c).classic) for c in reduced}
    assert named == {("ww+rw", "s")}


def test_coherence_chains_reduce_to_extremities():
    p = prog("T0: Wx Wy", "T1: Wy Wx", "T2: Wx")
    cycles = [c for c in find_critical_cycles(p) if c.critical]
    assert sorted(len(c.accesses) for c in cycles) == [4, 5]
    named = {
        (name_pattern(r).systematic, name_pattern(r).classic)
        for r in map(reduce_cycle, cycles)
    }
    assert named == {("ww+ww", "2+2w")}


def rotate_cycle(cycle, k):
    k %= len(cycle.accesses)
    return LabeledCycle(
        cycle.accesses[k:] + cycle.accesses[:k],
        cycle.edges[k:] + cycle.edges[:k],
        cycle.critical,
    )


def test_reduce_applies_across_the_rotation_seam():
    p = prog("T0: Wx Wy", "T1: Wy Wx", "T2: Wx")
    (big,) = [c for c in find_critical_cycles(p) if len(c.accesses) == 5]
    normal = reduce_cycle(big)
    for k in range(5):
        assert reduce_cycle(rotate_cycle(big, k)) == normal


def test_from_read_coherence_rule():
    (shape,) = find_critical_cycles(prog("T0: Wx Rx", "T1: Wx"))
    reduced = reduce_cycle(shape)
    assert len(reduced.accesses) == 2
    assert sorted(kinds(reduced)) == ["fr", "po"]
    assert classify(reduced) == "sc-per-location"


def test_reduction_is_confluent_under_random_rule_order():
    ext = parse_thr(suite.thr_source("ww+rw+r"), name="x")
    chain = prog("T0: Wx Wy", "T1: Wy Wx", "T2: Wx")
    for p in (ext, chain):
        (big,) = [c for c in find_critical_cycles(p) if len(c.accesses) == 5]
        normal = reduce_cycle(big)
        for seed in range(20):
            assert reduce_cycle(big, rng=random.Random(seed)) == normal


# --------------------------------------------------------------------- naming


@pytest.mark.parametrize(
    "lines, systematic, classic",
    [
        (("T0: Wx Wy", "T1: Ry Rx"), "ww+rr", "mp"),
        (("T0: Wx Ry", "T1: Wy Rx"), "wr+wr", "sb"),
        (("T0: Rx Wy", "T1: Ry Wx"), "rw+rw", "lb"),
        (("T0: Wx Wy", "T1: Wy Rx"), "ww+wr", "r"),
        (("T0: Wx Wy", "T1: Ry Wx"), "ww+rw", "s"),
        (("T0: Wx Wy", "T1: Wy Wx"), "ww+ww", "2+2w"),
        (("T0: Wx", "T1: Rx Wy", "T2: Ry Rx"), "w+rw+rr", "wrc"),
        (("T0: Wx", "T1: Rx Ry", "T2: Wy Rx"), "w+rr+wr", "rwc"),
        (
            ("T0: Wx Wy", "T1: Ry Wz", "T2: Rz Rx"),
            "ww+rw+rr",
            "isa2",
        ),
        (
            ("T0: Wx", "T1: Rx Ry", "T2: Wy", "T3: Ry Rx"),
            "w+rr+w+rr",
            "iriw",
        ),
    ],
)
def test_name_pattern_matches_glossary(lines, systematic, classic):
    (c,) = [x for x in find_critical_cycles(prog(*lines)) if x.critical]
    named = name_pattern(reduce_cycle(c))
    assert (named.systematic, named.classic) == (systematic, classic)
    assert named.name == classic


def test_extension_program_contains_its_base_pattern():
    cycles = [
        c
        for c in find_critical_cycles(prog("T0: Wx", "T1: Rx Wy", "T2: Wy Wx"))
        if c.critical
    ]
    named = {name_pattern(reduce_cycle(c)).classic for c in cycles}
    assert named == {"w+rw+2w", "s"}


@pytest.mark.parametrize(
    "lines, name",
    [
        (("T0: Wx lwsync Wy", "T1: Ry addr Rx"), "mp+lwsync+addr"),
        (("T0: Wx lwsync Wy", "T1: Ry lwsync Rx"), "mp+lwsyncs"),
        (("T0: Wx lwsync Wy", "T1: Ry Rx"), "mp+lwsync+po"),
        (("T0: Rx addr Wy", "T1: Ry addr Wx"), "lb+addrs"),
        (("T0: Wx dmb Wy", "T1: Ry ctrl+isb Rx"), "mp+dmb+ctrlisb"),
        (
            ("T0: Wx lwsync Wy", "T1: Ry addr Wz", "T2: Rz addr Rx"),
            "isa2+lwsync+addrs",
        ),
        (
            ("T0: Wx", "T1: Rx sync Ry", "T2: Wy", "T3: Ry sync Rx"),
            "iriw+syncs",
        ),
    ],
)
def test_fence_and_dependency_suffixes(lines, name):
    (c,) = [x for x in find_critical_cycles(prog(*lines)) if x.critical]
    assert name_pattern(reduce_cycle(c)).name == name


def test_unnamed_pattern_falls_back_to_digrams():
    (c,) = [
        x
        for x in find_critical_cycles(
            prog("T0: Wx Wy", "T1: Wy Wz", "T2: Wz Rx")
        )
        if x.critical
    ]
    named = name_pattern(reduce_cycle(c))
    assert named.classic is None
    assert named.systematic == "ww+ww+wr"
    assert named.name == "ww+ww+wr"


def test_coherence_shape_names():
    (c,) = find_critical_cycles(prog("T0: Wx Wx"))
    named = name_pattern(c)
    assert (named.systematic, named.classic, named.name) == ("ww", "coWW", "coWW")


# --------------------------------------------------------------- classification


AXIOM_TABLE = {
    "mp": (("T0: Wx Wy", "T1: Ry Rx"), "observation"),
    "wrc": (("T0: Wx", "T1: Rx Wy", "T2: Ry Rx"), "observation"),
    "isa2": (("T0: Wx Wy", "T1: Ry Wz", "T2: Rz Rx"), "observation"),
    "lb": (("T0: Rx Wy", "T1: Ry Wx"), "no-thin-air"),
    "sb": (("T0: Wx Ry", "T1: Wy Rx"), "propagation"),
    "rwc": (("T0: Wx", "T1: Rx Ry", "T2: Wy Rx"), "propagation"),
    "r": (("T0: Wx Wy", "T1: Wy Rx"), "propagation"),
    "2+2w": (("T0: Wx Wy", "T1: Wy Wx"), "propagation"),
}


@pytest.mark.parametrize("pattern", sorted(AXIOM_TABLE))
def test_classification_per_axiom(pattern):
    lines, axiom = AXIOM_TABLE[pattern]
    (c,) = [x for x in find_critical_cycles(prog(*lines)) if x.critical]
    assert classify(reduce_cycle(c)) == axiom


def test_classification_ignores_fence_annotations():
    (c,) = [
        x
        for x in find_critical_cycles(
            prog("T0: Wx lwsync Wy", "T1: Ry addr Rx")
        )
        if x.critical
    ]
    assert classify(reduce_cycle(c)) == "observation"


def test_s_has_no_from_read_and_lands_in_propagation():
    (c,) = [
        x
        for x in find_critical_cycles(prog("T0: Wx Wy", "T1: Ry Wx"))
        if x.critical
    ]
    assert classify(reduce_cycle(c)) == "propagation"


# -------------------------------------------------------------------- pipeline


def test_mine_record_shape():
    p = parse_thr(suite.thr_source("mp"), name="mp")
    records = mine(p)
    assert len(records) == 1
    (rec,) = records
    assert rec["input"] == "mp"
    assert rec["name"] == "mp"
    assert rec["systematic"] == "ww+rr"
    assert rec["classic"] == "mp"
    assert rec["axiom"] == "observation"
    assert rec["accesses"] == [
        ["T0", 0, "W", "x"],
        ["T0", 1, "W", "y"],
        ["T1", 0, "R", "y"],
        ["T1", 1, "R", "x"],
    ]


def test_mine_agrees_across_input_formats():
    from_thr = mine(parse_thr(suite.thr_source("mp"), name="mp"))
    from_litmus = mine(program_from_litmus(suite.load("mp")))
    strip = lambda recs: [
        {k: v for k, v in r.items() if k != "input"} for r in recs
    ]
    assert strip(from_thr) == strip(from_litmus)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(
            st.tuples(st.sampled_from("WR"), st.sampled_from("xyz")),
            min_size=1,
            max_size=3,
        ),
        min_size=2,
        max_size=4,
    )
)
def test_mined_cycles_are_wellformed(threads):
    lines = [
        f"T{t}: " + " ".join(d + loc for d, loc in accs)
        for t, accs in enumerate(threads)
    ]
    p = prog(*lines)
    for c in find_critical_cycles(p):
        if c.critical:
            assert thread_condition(c)
            assert location_condition(c)
        else:
            assert all(
                c.accesses[i].location
                == c.accesses[(i + 1) % len(c.accesses)].location
                for i in range(len(c.accesses))
            )
    mine(p)  # the full pipeline must not choke on any of these


# ---------------------------------------------------- reference front ends

# The two front ends and the coherence shapes as the miner first wrote them:
# a per-pair min over the gaps between two accesses in parse_thr, a rank
# comparison per fence pair in program_from_litmus, and an if-chain of
# closing edges per shape.  Kept as the reference the rewritten ones, which
# state each rule once, must equal.

_REF_DEP_KINDS = ("addr", "data", "ctrl", "ctrl+isync", "ctrl+isb")
_REF_FENCE_RANK = (
    "sync", "dmb", "dsb", "mfence",
    "lwsync", "dmb.st", "dsb.st", "eieio",
    "isync", "isb",
)
_REF_ACCESS_RE = re.compile(r"^([RW])([a-z]\w*)$")
_REF_LINE_RE = re.compile(r"^(\w+)\s*:\s*(.*)$")


def reference_parse_thr(text, name="thr"):
    accesses = []
    fence_between = {}
    dep_between = {}
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _REF_LINE_RE.match(line)
        if not m:
            raise ThrError(f"line {lineno}: expected '<thread>: <accesses>'")
        thread, rest = m.group(1), m.group(2)
        if thread in seen:
            raise ThrError(f"line {lineno}: duplicate thread {thread}")
        seen.add(thread)
        row = []
        gaps = []  # one annotation slot between consecutive accesses
        pending = None
        for tok in rest.split():
            if _REF_ACCESS_RE.match(tok):
                if row:
                    gaps.append(pending)
                    pending = None
                row.append((tok[0], tok[1:]))
            elif tok in ALL_FENCE_KINDS or tok in _REF_DEP_KINDS:
                if not row:
                    raise ThrError(f"line {lineno}: {tok} before any access")
                if pending is not None:
                    raise ThrError(f"line {lineno}: two annotations in a row")
                pending = tok
            else:
                raise ThrError(f"line {lineno}: cannot parse token {tok!r}")
        if pending is not None:
            raise ThrError(f"line {lineno}: trailing annotation on {thread}")
        if not row:
            raise ThrError(f"line {lineno}: thread {thread} has no accesses")
        base = len(accesses)
        for idx, (d, loc) in enumerate(row):
            accesses.append(StaticAccess(base + idx, thread, idx, d, loc))
        for i in range(len(row)):
            for j in range(i + 1, len(row)):
                kinds = [
                    g for g in gaps[i:j] if g is not None and g not in _REF_DEP_KINDS
                ]
                if kinds:
                    fence_between[(base + i, base + j)] = min(
                        kinds, key=_REF_FENCE_RANK.index
                    )
        for i, g in enumerate(gaps):
            if g in _REF_DEP_KINDS:
                dep_between[(base + i, base + i + 1)] = g
    if not accesses:
        raise ThrError("no threads declared")
    return Program(name, tuple(accesses), fence_between, dep_between)


def reference_program_from_litmus(t):
    init = set(t.init_ids)
    uid_of = {}
    accesses = []
    counters = {}
    for e in t.events:
        if e.id in init:
            continue
        idx = counters.get(e.thread, 0)
        counters[e.thread] = idx + 1
        uid_of[e.id] = len(accesses)
        accesses.append(
            StaticAccess(
                len(accesses),
                e.thread,
                idx,
                "W" if is_write(e) else "R",
                e.action.loc,
            )
        )
    fence_between = {}
    for kind in ALL_FENCE_KINDS:
        for a, b in t.fences[kind].pairs():
            pair = (uid_of[a], uid_of[b])
            cur = fence_between.get(pair)
            if cur is None or _REF_FENCE_RANK.index(kind) < _REF_FENCE_RANK.index(cur):
                fence_between[pair] = kind
    dep_between = {}
    for kind in ("addr", "data", "ctrl+isync", "ctrl+isb", "ctrl"):
        for a, b in t.deps[kind].pairs():
            dep_between.setdefault((uid_of[a], uid_of[b]), kind)
    return Program(t.name, tuple(accesses), fence_between, dep_between)


def reference_coherence_shapes(program, threads, by_loc):
    shapes = []
    for accs in threads.values():
        for i, a in enumerate(accs):
            for b in accs[i + 1 :]:
                if a.location != b.location:
                    continue
                pair = a.direction + b.direction
                po = _edge_between(a, b, program)
                if pair == "WW":
                    shapes.append(
                        _canonical([a, b], [po, Edge("co", None, False)], False)
                    )
                elif pair == "RW":
                    shapes.append(
                        _canonical([a, b], [po, Edge("rf", None, False)], False)
                    )
                for w in by_loc[a.location]:
                    if w.direction != "W" or w.thread == a.thread:
                        continue
                    if pair == "RW":
                        tail = [Edge("co", None, True), Edge("rf", None, True)]
                    elif pair == "WR":
                        tail = [Edge("fr", None, True), Edge("co", None, True)]
                    elif pair == "RR":
                        tail = [Edge("fr", None, True), Edge("rf", None, True)]
                    else:
                        continue
                    shapes.append(_canonical([a, b, w], [po] + tail, False))
    shapes.sort(key=_sort_key)
    return shapes


def reference_find_critical_cycles(program):
    """The critical cycles as mined today, then the reference shapes."""
    threads, by_loc = {}, {}
    for a in program.accesses:
        threads.setdefault(a.thread, []).append(a)
        by_loc.setdefault(a.location, []).append(a)
    critical = [c for c in find_critical_cycles(program) if c.critical]
    return critical + reference_coherence_shapes(program, threads, by_loc)


def thr_front_end(parse, text):
    """The program and its cycles, or the ThrError message."""
    try:
        program = parse(text, name="p")
    except ThrError as e:
        return str(e)
    cycles = (find_critical_cycles if parse is parse_thr else reference_find_critical_cycles)
    return program, cycles(program)


def test_shapes_and_projections_match_reference_front_ends():
    """The suite, both .thr shapes and perfbench/gen.py's wide and xcheck
    seeds 1-3, with and without mine_only."""
    gen = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "gen.py"))
    texts = [suite.source(name) for name in suite.names()]
    for workload in ("wide", "xcheck"):
        for seed in (1, 2, 3):
            for mine_only in (False, True):
                texts += [text for _, text, _, _ in gen["generate"](workload, seed, mine_only)]
    assert len(texts) == 395
    for text in texts:
        t = project(parse_litmus(text))
        got, want = program_from_litmus(t), reference_program_from_litmus(t)
        assert got == want, t.name
        assert find_critical_cycles(got) == reference_find_critical_cycles(want), t.name
    for name in suite.thr_names():
        text = suite.thr_source(name)
        assert thr_front_end(parse_thr, text) == thr_front_end(reference_parse_thr, text)


THR_ACCESSES = st.sampled_from([d + loc for d in "RW" for loc in "xyz"])
THR_ANNOTATIONS = st.sampled_from(ALL_FENCE_KINDS + DEP_KINDS)
# a thread's accesses, each but the last maybe followed by a fence or dependency
THR_BODY = st.tuples(
    st.lists(st.tuples(THR_ACCESSES, st.none() | THR_ANNOTATIONS), max_size=3),
    THR_ACCESSES,
).map(lambda body: " ".join([tok for pair in body[0] for tok in pair if tok] + [body[1]]))
THR_MALFORMED = st.sampled_from(
    ["", "# a comment", "Wx Wy", "T0 Wx", "T0: Wx", "T9:", "T8: W", "T7: Wx frob Ry",
     "T6: Rx1", "T5: sync Wx", "T4: Wx lwsync sync Ry", "T4: Wx ctrl+cfence Ry", "T4: Wx sync"]
) | st.lists(st.sampled_from(["Wx", "Ry"]) | THR_ANNOTATIONS, max_size=4).map(
    lambda toks: "T4: " + " ".join(toks)
)


@st.composite
def thr_texts(draw):
    """Threads T0, T1, ... and maybe one malformed line among them."""
    lines = [f"T{i}: {body}" for i, body in enumerate(draw(st.lists(THR_BODY, max_size=4)))]
    for bad in draw(st.lists(THR_MALFORMED, max_size=1)):
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return "\n".join(lines)


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(thr_texts())
def test_parse_thr_matches_reference_on_drawn_text(text):
    # the same program and cycles, or the same message with its line
    assert thr_front_end(parse_thr, text) == thr_front_end(reference_parse_thr, text)
