"""Static cycle mining: parsing, enumeration, reduction, naming, axioms."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memcat import suite
from memcat.cycles import (
    LabeledCycle,
    ThrError,
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
