"""Operational machine: acceptance, witness paths, path derivation."""

from pathlib import Path

import pytest

from memcat import machine, suite
from memcat.cat import run_model
from memcat.executions import enumerate_candidates, evaluate_final
from memcat.litmus import parse_litmus, project
from memcat.machine import (
    NEVER,
    MachineContext,
    WitnessCycleError,
    derive_from_path,
    label_str,
    machine_accepts,
    machine_context,
    _fires,
    replay_path,
    trace_lines,
    witness_path,
)
from memcat.models import load_builtin
from memcat.relation import closure, compose, is_read, is_write, restrict


@pytest.fixture(scope="module")
def power():
    return load_builtin("power")


def contexts(name, power):
    for cand in enumerate_candidates(suite.load(name)):
        result = run_model(power, cand)
        yield cand, machine_context(cand, result.env), result.passed


def test_machine_matches_model_on_mp(power):
    seen = set()
    for cand, ctx, model_ok in contexts("mp", power):
        assert machine_accepts(ctx) == model_ok
        seen.add(model_ok)
    assert seen == {True}  # every mp candidate is coherent and allowed


def test_machine_rejects_write_order_against_po(power):
    verdicts = []
    for cand, ctx, model_ok in contexts("coWW", power):
        verdicts.append((machine_accepts(ctx), model_ok))
    assert sorted(verdicts) == [(False, False), (True, True)]


def test_machine_blocks_stale_second_read(power):
    # the coRR shape: an earlier local read saw a newer write
    for cand, ctx, model_ok in contexts("coRR", power):
        assert machine_accepts(ctx) == model_ok


def test_corr_strengthening_is_load_bearing(power, monkeypatch):
    # with cr:visible forced true, the machine commits the reads out of
    # order and wrongly accepts the execution the model forbids
    t = suite.load("coRR")
    forbidden = []
    for cand in enumerate_candidates(t):
        result = run_model(power, cand)
        if not result.passed and evaluate_final(cand):
            assert not machine_accepts(machine_context(cand, result.env))
            forbidden.append((cand, result.env))
    monkeypatch.setattr(machine, "_visible", lambda *a: True)
    weak_accepts = [machine_accepts(machine_context(c, env)) for c, env in forbidden]
    assert weak_accepts == [True]


def test_machine_rejects_fenced_store_buffering(power):
    for cand, ctx, model_ok in contexts("sb+syncs", power):
        assert machine_accepts(ctx) == model_ok
        if evaluate_final(cand):
            assert not machine_accepts(ctx)


def test_machine_equivalence_on_assorted_tests(power):
    # every suite test, candidate by candidate
    checked = 0
    for name in suite.names():
        for cand, ctx, model_ok in contexts(name, power):
            assert machine_accepts(ctx) == model_ok, (name, cand.rf.pairs())
            checked += 1
    assert checked == 296


def reference_accepts(ctx):
    """The exhaustive search over done sets that machine_accepts replaced."""
    full = (1 << len(ctx.labels)) - 1
    dead = set()

    def search(done):
        if done == full:
            return True
        if done not in dead:
            for i in range(len(ctx.labels)):
                if _fires(ctx, i, done) and search(done | 1 << i):
                    return True
            dead.add(done)
        return False

    return search(0)


def test_machine_accepts_agrees_with_reference_search(power):
    checked = 0
    for name in suite.names():
        for cand, ctx, _ in contexts(name, power):
            assert machine_accepts(ctx) is reference_accepts(ctx), name
            checked += 1
    assert checked == 296


def hand_built(need, block):
    labels = tuple(range(len(need)))
    return MachineContext(None, labels, {l: l for l in labels}, {}, tuple(need), tuple(block))


@pytest.mark.parametrize(
    "need, block, accepted",
    [
        # 0 needs 1 needs 2: fires against index order
        ((0b010, 0b100, 0), (0, 0, 0), True),
        # 1 needs 0, 2 needs 1, but 0 being done wedges 2
        ((0, 0b001, 0b010), (0, 0, 0b001), False),
        ((0, NEVER), (0, 0), False),
        # a label is not done when it fires, so its own bit never wedges it
        ((0, 0b001), (0b001, 0b010), True),
    ],
    ids=["need-chain", "need-against-block", "never", "self-block"],
)
def test_machine_accepts_hand_built_premises(need, block, accepted):
    ctx = hand_built(need, block)
    assert machine_accepts(ctx) is reference_accepts(ctx) is accepted


def reference_linearise(preds):
    """The scan _linearise replaced: fire the lowest-index label whose
    preds are all done, then scan again from label 0."""
    done, order, i = 0, [], 0
    while i < len(preds):
        if done >> i & 1 or preds[i] & ~done:
            i += 1
        else:
            done |= 1 << i
            order.append(i)
            i = 0
    return order, [i for i in range(len(preds)) if not done >> i & 1]


def test_linearise_matches_the_rescanning_reference_on_the_suite(power, monkeypatch):
    linearise, stuck = machine._linearise, []

    def checked(preds):
        got = linearise(preds)
        assert got == reference_linearise(preds)
        stuck.append(bool(got[1]))
        return got

    monkeypatch.setattr(machine, "_linearise", checked)
    for name in suite.names():
        for cand, ctx, _ in contexts(name, power):
            machine_accepts(ctx)
            try:
                witness_path(ctx)
            except WitnessCycleError:
                pass
    # machine_accepts sorts once per candidate; witness_path sorts once
    # an accepted candidate and twice a rejected one, whose preferred
    # order and bare premises are both cyclic: 296 + 186 + 2 * 110
    assert len(stuck) == 702 and True in stuck and False in stuck


def test_witness_path_replays_for_every_passing_candidate(power):
    for name in ("mp", "sb", "r", "coWW", "mp+lwsync+addr",
                 "r+lwsync+sync", "rwc+syncs", "iriw+syncs"):
        checked = 0
        for cand, ctx, model_ok in contexts(name, power):
            if not model_ok:
                continue
            path = witness_path(ctx)
            ok, blocked_at = replay_path(ctx, path)
            assert ok, (name, blocked_at, [label_str(ctx, l) for l in path])
            checked += 1
        assert checked


def test_witness_roundtrip_recovers_rf_and_co(power):
    for name in ("mp", "s", "2+2w"):
        for cand, ctx, model_ok in contexts(name, power):
            if not model_ok:
                continue
            rf, co = derive_from_path(cand, witness_path(ctx))
            assert rf == frozenset(cand.rf.pairs())
            assert co == frozenset(cand.co.pairs())


def test_witness_cycle_on_forbidden_candidate(power):
    t = suite.load("2+2w+lwsyncs")
    hit = False
    for cand in enumerate_candidates(t):
        if not evaluate_final(cand):
            continue
        env = run_model(power, cand).env
        ctx = machine_context(cand, env)
        with pytest.raises(WitnessCycleError):
            witness_path(ctx)
        hit = True
    assert hit


def test_path_labels_render_with_event_names(power):
    for cand, ctx, model_ok in contexts("mp", power):
        if not model_ok:
            continue
        rendered = [label_str(ctx, l) for l in witness_path(ctx)]
        for s in rendered:
            assert s[0:2] in ("c(", "cp", "s(")
        # every program event shows up somewhere
        joined = " ".join(rendered)
        for nm in ("a", "b", "c", "d"):
            assert f"({nm})" in joined or f",{nm})" in joined
        break


def test_replay_reports_block_position(power):
    for cand, ctx, model_ok in contexts("mp", power):
        path = witness_path(ctx)
        # force an illegal prefix: commit a read before satisfying it
        bad = [l for l in path if l[0] == "cr"][:1] + path
        ok, blocked_at = replay_path(ctx, bad)
        assert not ok and blocked_at == 0
        break


def test_trace_lines_stop_at_the_replay_block(power):
    for cand, ctx, model_ok in contexts("mp", power):
        path = witness_path(ctx)
        names = [label_str(ctx, l) for l in path]
        assert trace_lines(ctx, path) == [f"{n}  accepted" for n in names]
        # a label replayed twice blocks there and ends the trace
        bad = path[:3] + path[2:]
        assert replay_path(ctx, bad) == (False, 3)
        assert trace_lines(ctx, bad) == [f"{n}  accepted" for n in names[:3]] + [
            f"{names[2]}  blocked"
        ]
        break


def reference_context(cand, env):
    """The per-candidate premise builder machine_context replaced: it
    scans the events for every read's po-loc neighbours and a dict for
    every event-to-label step.  Returns (labels, need, block, rf_src)."""
    ppo, fence, prop, hb = (env[k] for k in ("ppo", "fence", "prop", "hb"))
    ppo_fence = ppo | fence
    order = cand.po_loc | prop
    prop_hb_star = compose(prop, closure(hb, reflexive=True))
    co, co_before, prop_before = cand.co, cand.co.inverse(), prop.inverse()

    init_mask = sum(1 << e.id for e in cand.events if e.thread == "init")
    write_ids = tuple(
        e.id for e in cand.events if is_write(e) and e.thread != "init"
    )
    read_ids = tuple(e.id for e in cand.events if is_read(e))
    rf_src = {r: w for (w, r) in cand.rf.pairs()}

    labels = []
    for w in write_ids:
        labels.append(("cw", w))
        labels.append(("cpw", w))
    for r in read_ids:
        labels.append(("sr", rf_src[r], r))
        labels.append(("cr", rf_src[r], r))
    labels = tuple(labels)
    label_index = {l: i for i, l in enumerate(labels)}

    cw = {w: 1 << label_index[("cw", w)] for w in write_ids}
    cpw = {w: 1 << label_index[("cpw", w)] for w in write_ids}
    sr = {r: 1 << label_index[("sr", rf_src[r], r)] for r in read_ids}

    def bits(table, events):
        return sum(b for x, b in table.items() if events >> x & 1)

    events_by_id = {e.id: e for e in cand.events}
    need, block = [], []
    for w in write_ids:
        later = order.row(w)
        wait = cw[w] | bits(cpw, co_before.row(w)) | bits(sr, prop_before.row(w))
        wedged = later & init_mask
        need += [NEVER if wedged else 0, NEVER if wedged else wait]
        block += [bits(cw, later) | bits(sr, fence.row(w)), bits(cpw, later)]
    for r in read_ids:
        w = rf_src[r]
        later = ppo_fence.row(r)
        source = 0 if (w, r) in cand.po_loc else cw.get(w, 0)
        obs = not any((w2, r) in prop_hb_star for w2 in co.successors(w))
        visible = reference_visible(cand, events_by_id, rf_src, w, r)
        need += [
            source | bits(cpw, prop_before.row(r)) if obs else NEVER,
            sr[r] if visible and not later & init_mask else NEVER,
        ]
        block += [bits(sr, later | prop.row(r)), bits(cw, later) | bits(sr, later)]
    return labels, tuple(need), tuple(block), rf_src


def reference_visible(cand, events_by_id, rf_src, w, r):
    po_loc, co = cand.po_loc, cand.co
    loc = events_by_id[r].action.loc
    before = [
        e for e in cand.events
        if is_write(e) and e.action.loc == loc and (e.id, r) in po_loc
    ]
    after = [
        e for e in cand.events
        if is_write(e) and e.action.loc == loc and (r, e.id) in po_loc
    ]
    if before:
        wb = max(before, key=lambda e: e.po_index).id
        if w != wb and (wb, w) not in co:
            return False
    if after:
        wa = min(after, key=lambda e: e.po_index).id
        if (w, r) not in po_loc and (w, wa) not in co:
            return False
    for e in cand.events:
        if is_read(e) and e.action.loc == loc and (e.id, r) in po_loc:
            if (w, rf_src[e.id]) in co:
                return False
    return True


def assert_matches_reference(cand, env):
    ctx = machine_context(cand, env)
    got = (ctx.labels, ctx.need, ctx.block, ctx.rf_src)
    assert got == reference_context(cand, env), cand.rf.pairs()
    assert ctx.label_index == {l: i for i, l in enumerate(ctx.labels)}


def test_machine_context_agrees_with_reference_on_the_suite(power):
    checked = 0
    for name in suite.names():
        for cand in enumerate_candidates(suite.load(name)):
            assert_matches_reference(cand, run_model(power, cand).env)
            checked += 1
    assert checked == 296


# one thread reads x, writes x, then reads x twice: the first read has a
# po-loc-later write, the last two a po-loc-earlier write, and the last a
# po-loc-earlier read of x; another thread writes x twice
NEIGHBOURS = """\
rwrr power
init { x=0; rx=&x; r1=1; r2=2; r3=3; }
thread T0 {
  ld r4, [rx]
  st [rx], r1
  ld r5, [rx]
  ld r6, [rx]
}
thread T1 {
  st [rx], r2
  st [rx], r3
}
final exists (T0:r5=2 /\\ T0:r6=1)
"""


def test_machine_context_agrees_with_reference_around_po_loc_neighbours(power):
    t = project(parse_litmus(NEIGHBOURS))
    cands = list(enumerate_candidates(t))
    for cand in cands:
        assert_matches_reference(cand, run_model(power, cand).env)
    # the read after the write sees T1's writes only when co puts them
    # after it, and the last read never sees a write co-before the one
    # the read before it saw
    assert len(cands) == 6 * 4**3
    accepted = [
        c for c in cands if machine_accepts(machine_context(c, run_model(power, c).env))
    ]
    assert 0 < len(accepted) < len(cands)


def test_machine_context_switches_tests_when_fed_alternately(power):
    firsts = [list(enumerate_candidates(suite.load(n))) for n in ("coRR", "sb+syncs")]
    for a, b in zip(*firsts):
        for cand in (a, b):
            assert_matches_reference(cand, run_model(power, cand).env)


def reference_witness_path(ctx, env):
    """The edge builder witness_path replaced: it ordered the labels by
    its own reading of ppo, fence, prop, rfe and co, then sorted them."""
    cand, labels, index = ctx.cand, ctx.labels, ctx.label_index
    ppo, fence, prop = env["ppo"], env["fence"], env["prop"]
    preds = [0] * len(labels)

    def edge(a, b):
        if a in index and b in index:
            preds[index[b]] |= 1 << index[a]

    for r, w in ctx.rf_src.items():
        edge(("sr", w, r), ("cr", w, r))
    for e in cand.events:
        edge(("cw", e.id), ("cpw", e.id))
    write_flag = {e.id: is_write(e) for e in cand.events}
    read_flag = {e.id: is_read(e) for e in cand.events}
    sr = {r: ("sr", w, r) for r, w in ctx.rf_src.items()}
    cr = {r: ("cr", w, r) for r, w in ctx.rf_src.items()}
    for w, r in fence.pairs():
        if write_flag[w] and read_flag[r]:
            edge(("cw", w), sr[r])
    for w, r in cand.rfe.pairs():
        edge(("cw", w), ("sr", w, r))
    cp_order = set(cand.co.pairs()) | set(
        restrict(closure(prop), "W", "W", cand.events).pairs()
    )
    for w1, w2 in cp_order:
        edge(("cpw", w1), ("cpw", w2))
        edge(("cw", w1), ("cw", w2))  # commits stay FIFO with coherence
    for x, y in prop.pairs():
        if read_flag[x] and read_flag[y]:
            edge(sr[x], sr[y])
        elif write_flag[x] and read_flag[y]:
            edge(("cpw", x), sr[y])
        elif read_flag[x] and write_flag[y]:
            edge(sr[x], ("cpw", y))
    for r, e in (ppo | fence).pairs():
        if read_flag[r]:
            edge(cr[r], sr[e] if read_flag[e] else ("cw", e))
    order, stuck = reference_linearise(preds)
    if stuck:
        raise WitnessCycleError(", ".join(label_str(ctx, labels[i]) for i in stuck))
    return [labels[i] for i in order]


def suite_and_neighbour_tests():
    chunked = (Path(__file__).parent / "chunked.litmus").read_text()
    return [suite.load(n) for n in suite.names()] + [
        project(parse_litmus(text)) for text in (chunked, NEIGHBOURS)
    ]


def test_witness_path_matches_the_reference_builder_on_accepted_candidates(power):
    checked = 0
    for t in suite_and_neighbour_tests():
        for cand in enumerate_candidates(t):
            env = run_model(power, cand).env
            ctx = machine_context(cand, env)
            if machine_accepts(ctx):
                assert witness_path(ctx) == reference_witness_path(ctx, env), t.name
                checked += 1
    assert checked == 186 + 29


# perfbench/gen.py's wide seed 1, test 2: its candidate 38 passes Power
# and the machine accepts it, but a witness built from edges of its own,
# not the machine's premises, was cyclic there
WIDE1_02 = """\
wide1-02-power power

init { x=0; y=0; z=0; rx=&x; ry=&y; rz=&z; }

thread T0 {
  ld r1, [rx]
  ld r2, [rz]
  xor r3, r2, r2
  add r4, r3, ry
  ld r5, [r4]
}

thread T1 {
  mov r1, #1
  st [ry], r1
  sync
  ld r2, [rz]
  mov r3, #1
  st [rz], r3
}

thread T2 {
  ld r1, [rx]
  cmp r1, #0
  bne L20
L20:
  mov r2, #2
  st [rz], r2
  lwsync
  ld r3, [rz]
}

final exists (T0:r1=0 /\\ T0:r2=1 /\\ T0:r5=1 /\\ T1:r2=2 /\\ T2:r1=0 /\\ T2:r3=2)
"""


def test_witness_path_exists_exactly_when_the_machine_accepts(power):
    wide = project(parse_litmus(WIDE1_02))
    seen = set()
    for t in [wide] + [suite.load(n) for n in suite.names()]:
        for k, cand in enumerate(enumerate_candidates(t)):
            result = run_model(power, cand)
            ctx = machine_context(cand, result.env)
            accepts = machine_accepts(ctx)
            if accepts:
                assert replay_path(ctx, witness_path(ctx)) == (True, None), (t.name, k)
            else:
                with pytest.raises(WitnessCycleError):
                    witness_path(ctx)
            seen.add(accepts)
            if t is wide and k == 38:
                assert result.passed and accepts
                with pytest.raises(WitnessCycleError):
                    reference_witness_path(ctx, result.env)
    assert seen == {True, False}
