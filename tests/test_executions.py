"""Candidate enumeration tests."""

import itertools
from pathlib import Path

import pytest

from memcat import suite
from memcat.cat import run_model
from memcat import executions
from memcat.executions import enumerate_candidates, evaluate_final, observed_state
from memcat.litmus import And, LocEq, Or, RegEq, atoms, parse_litmus, project
from memcat.models import PRUNE_CHECK, load_builtin
from memcat.relation import Event, MemRead, MemWrite, compose, is_read, is_write

from oracles import candidate_pairs, count_expected_candidates, is_acyclic_pairs


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

COWW = """\
coww power
init { x=0; rx=&x; r1=1; r2=2; }
thread T0 {
  st [rx], r1
  st [rx], r2
}
final exists (x=1)
"""

THREE_WRITES = """\
threew power
init { x=0; rx=&x; r1=1; r2=2; r3=3; }
thread T0 { st [rx], r1 }
thread T1 { st [rx], r2 }
thread T2 { st [rx], r3 }
final exists (x=3)
"""


def _cands(src):
    return list(enumerate_candidates(project(parse_litmus(src))))


def test_mp_candidate_count_matches_closed_form():
    cands = _cands(MP)
    # one program write per location, each read picks among two writes
    assert len(cands) == count_expected_candidates([1, 1], [2, 2])


def test_coww_candidate_count_is_write_permutations():
    cands = _cands(COWW)
    assert len(cands) == count_expected_candidates([2], [])


def test_three_writes_share_a_location():
    cands = _cands(THREE_WRITES)
    assert len(cands) == count_expected_candidates([3], [])


def test_every_read_has_exactly_one_same_location_source():
    for cand in _cands(MP):
        p = candidate_pairs(cand)
        for r in p["reads"]:
            srcs = [w for w, r2 in p["rf"] if r2 == r]
            assert len(srcs) == 1
            assert p["loc"][srcs[0]] == p["loc"][r]


def test_read_values_are_filled_from_their_source():
    for cand in _cands(MP):
        for w, r in cand.rf.pairs():
            assert cand.events[r].action.value == cand.events[w].action.value


def test_fr_matches_rf_inverse_then_co():
    # enumeration builds fr row by row from each read's source
    for name in suite.names():
        for cand in enumerate_candidates(suite.load(name)):
            assert cand.fr == compose(cand.rf.inverse(), cand.co), name


def reference_candidates(t):
    """(events, rf, co, fr) of every candidate of t: co orders outer, rf
    choices inner, locations sorted, writes and sources by ascending id."""
    writes = {loc: [e.id for e in t.events if is_write(e) and e.action.loc == loc]
              for loc in t.locations}
    co_orders = [[(init, *p) for p in itertools.permutations(rest)]
                 for init, *rest in writes.values()]
    reads = [e for e in t.events if is_read(e)]
    sources = [writes[r.action.loc] for r in reads]
    for co_pick, rf_pick in itertools.product(
        itertools.product(*co_orders), itertools.product(*sources)
    ):
        events = list(t.events)
        for src, r in zip(rf_pick, reads):
            value = t.events[src].action.value
            events[r.id] = Event(r.id, r.thread, r.po_index, MemRead(r.action.loc, value))
        co = {pair for order in co_pick for pair in itertools.combinations(order, 2)}
        rf = {(src, r.id) for src, r in zip(rf_pick, reads)}
        fr = {(r, w) for src, r in rf for a, w in co if a == src}
        yield tuple(events), rf, co, fr


# the one input whose candidates span several chunks at the default size
CHUNKED = project(parse_litmus((Path(__file__).parent / "chunked.litmus").read_text()))


@pytest.mark.parametrize("chunk", [1, 3, executions.CHUNK])
def test_enumeration_order_is_co_outer_rf_inner(monkeypatch, chunk):
    # a test's witness and machine --trace take its first candidate; each
    # run of chunk consecutive candidates, and the rest at the end, shares
    # one Bundles with a block per candidate
    monkeypatch.setattr(executions, "CHUNK", chunk)
    for t in [suite.load(name) for name in suite.names()] + [CHUNKED]:
        cands = list(enumerate_candidates(t))
        got = [
            (c.events, set(c.rf.pairs()), set(c.co.pairs()), set(c.fr.pairs()))
            for c in cands
        ]
        assert got == list(reference_candidates(t)), t.name
        parts = [cands[i:i + chunk] for i in range(0, len(cands), chunk)]
        assert len({id(part[0].chunk) for part in parts}) == len(parts), t.name
        for part in parts:
            assert [c.j for c in part] == list(range(len(part))), t.name
            assert all(c.chunk is part[0].chunk for c in part), t.name
            assert part[0].chunk.pack.m == len(part), t.name


def test_co_is_per_location_total_order_with_init_first():
    for cand in _cands(THREE_WRITES):
        p = candidate_pairs(cand)
        writes = sorted(p["writes"])
        # all writes here hit x: co must be a strict total order
        for a in writes:
            for b in writes:
                if a != b:
                    assert ((a, b) in p["co"]) != ((b, a) in p["co"])
        init = next(e.id for e in cand.events if e.thread == "init")
        assert all((init, w) in p["co"] for w in writes if w != init)
        assert is_acyclic_pairs(p["co"], p["nodes"])


def test_co_never_relates_different_locations():
    for cand in _cands(MP):
        p = candidate_pairs(cand)
        for a, b in p["co"]:
            assert p["loc"][a] == p["loc"][b]


def test_enumeration_is_deterministic():
    a = [(c.rf.pairs(), c.co.pairs()) for c in _cands(MP)]
    b = [(c.rf.pairs(), c.co.pairs()) for c in _cands(MP)]
    assert a == b


def test_mp_final_holds_in_exactly_one_candidate():
    hits = [c for c in _cands(MP) if evaluate_final(c)]
    assert len(hits) == 1
    (cand,) = hits
    t = cand.source
    ids = {name: eid for eid, name in t.names.items()}
    b, c, d, ix = ids["b"], ids["c"], ids["d"], ids["ix"]  # Wy=1, Ry, Rx, init x
    assert (b, c) in cand.rf
    assert (ix, d) in cand.rf


def test_location_final_reads_co_maximum():
    src = """\
qual power
init { x=0; rx=&x; T0:r1=1; T1:r1=2; }
thread T0 { st [rx], r1 }
thread T1 { st [rx], r1 }
final exists (x=2)
"""
    hits = [c for c in _cands(src) if evaluate_final(c)]
    # two interleavings of the two writes; exactly one ends with x=2
    assert len(_cands(src)) == 2
    assert len(hits) == 1


def _passes_sc_per_location(model, cand):
    (check,) = [c for c in run_model(model, cand).checks if c.name == PRUNE_CHECK]
    return check.ok


def test_uniproc_filter_discards_po_co_contradiction():
    power = load_builtin("power")
    cands = _cands(COWW)
    kept = [c for c in cands if _passes_sc_per_location(power, c)]
    assert len(cands) == 2
    assert len(kept) == 1
    p = candidate_pairs(kept[0])
    a, b = sorted(e.id for e in kept[0].events if e.thread == "T0")
    assert (a, b) in p["co"]


def test_uniproc_filter_agrees_with_oracle_on_mp():
    power = load_builtin("power")
    for cand in _cands(MP):
        p = candidate_pairs(cand)
        assert _passes_sc_per_location(power, cand) == is_acyclic_pairs(
            p["po_loc"] | p["com"], p["nodes"]
        )


def reference_value(cand, node):
    """The per-candidate walk the compiled final replaced: look the atom's
    register source up, or scan the location's writes for the co-last."""
    if isinstance(node, RegEq):
        src = cand.source.reg_sources[(node.thread, node.reg)]
        return src[1] if src[0] == "const" else cand.events[src[1]].action.value
    writes = [e for e in cand.events if is_write(e) and e.action.loc == node.loc]
    (top,) = [e for e in writes if not cand.co.successors(e.id)]
    return top.action.value


def reference_state(cand):
    regs, locs = {}, {}
    for node in atoms(cand.source.final.cond):
        if isinstance(node, RegEq):
            regs[(node.thread, node.reg)] = node
        else:
            locs[node.loc] = node
    return tuple(
        [f"{th}:{reg}={reference_value(cand, node)}" for (th, reg), node in sorted(regs.items())]
        + [f"{loc}={reference_value(cand, node)}" for loc, node in sorted(locs.items())]
    )


def reference_final(cand):
    def walk(node):
        if isinstance(node, And):
            return all(walk(x) for x in node.items)
        if isinstance(node, Or):
            return any(walk(x) for x in node.items)
        return reference_value(cand, node) == node.value

    return walk(cand.source.final.cond)


def assert_final_matches_reference(cands):
    for cand in cands:
        assert observed_state(cand) == reference_state(cand)
        assert evaluate_final(cand) is reference_final(cand)


def test_compiled_final_agrees_with_reference_on_the_suite():
    checked = 0
    for name in suite.names():
        cands = list(enumerate_candidates(suite.load(name)))
        assert_final_matches_reference(cands)
        checked += len(cands)
    assert checked == 296


# a forall over a disjunction that names a location, a constant register
# and a read; two writes to x make the co-last write vary
FORALL = """\
fa power
init { x=0; y=0; rx=&x; ry=&y; r1=1; r2=2; }
thread T0 {
  st [rx], r1
  ld r3, [ry]
}
thread T1 {
  st [rx], r2
  st [ry], r1
}
final forall (x=2 \\/ (T0:r3=0 /\\ T0:r1=1))
"""


def test_compiled_final_agrees_with_reference_on_forall_and_locations():
    t = project(parse_litmus(FORALL))
    assert t.final.quant == "forall"
    assert any(isinstance(node, LocEq) for node in atoms(t.final.cond))
    cands = list(enumerate_candidates(t))
    assert_final_matches_reference(cands)
    assert {evaluate_final(c) for c in cands} == {True, False}
    assert len({observed_state(c) for c in cands}) == 4
    # the location final of the three-writer test, fed after another test
    assert_final_matches_reference(_cands(THREE_WRITES) + cands + _cands(THREE_WRITES))
