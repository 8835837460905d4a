"""Operational machine: acceptance, witness paths, path derivation."""

import gc
import runpy
import sys
from collections import Counter
from pathlib import Path

import pytest

from memcat import cat, executions, machine, models, suite
from memcat.cat import CatError, Empty, Let, Model, bind, parse_cat, run_model
from memcat.executions import enumerate_candidates, evaluate_final, observed_state
from memcat.litmus import parse_litmus, project
from memcat.machine import (
    WitnessCycleError,
    derive_from_path,
    label_str,
    machine_accepts,
    machine_context,
    replay_path,
    trace_lines,
    witness_path,
)
from memcat.models import evaluate_test, load_builtin
from memcat.relation import Packing, Relation, closure, compose, is_read, is_write, restrict

from test_executions import CHUNKED, reference_state

# the need of a label that can never fire: no done set covers it
NEVER = -1


@pytest.fixture(scope="module")
def power():
    return load_builtin("power")


def evaluated(t, power):
    """Each candidate of t, a test or a suite name, with Power's result on
    it; Power is bound to t once."""
    t = suite.load(t) if isinstance(t, str) else t
    judge = bind(power, t)
    for cand in enumerate_candidates(t):
        yield cand, run_model(judge, cand)


def contexts(t, power):
    """Each candidate of t with its machine context and Power's verdict."""
    for cand, result in evaluated(t, power):
        yield cand, machine_context(cand, result), result.passed


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
    # with the fragment's cr:visible term (unseen) emptied, the machine
    # commits the reads out of order and wrongly accepts the execution the
    # model forbids; each run_model binds Power anew, so each call judges a
    # fresh chunk and the machine builds its premises again
    t = suite.load("coRR")
    forbidden = [c for c in enumerate_candidates(t)
                 if not run_model(power, c).passed and evaluate_final(c)]

    def accepts(cand):
        return machine_accepts(machine_context(cand, run_model(power, cand)))

    assert [accepts(c) for c in forbidden] == [False]
    fragment = machine._FRAGMENT
    monkeypatch.setattr(machine, "_FRAGMENT", Model(tuple(
        Let(s.name, Empty(), s.pos) if isinstance(s, Let) and s.name == "unseen" else s
        for s in fragment.statements), fragment.given))
    assert [accepts(c) for c in forbidden] == [True]


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


def fires(need, block, i, done):
    """The machine's firing rule on need and block label bitmasks: label i
    fires when it is not done, all of its need is done and none of its
    block is."""
    return not (done >> i & 1 or need[i] & ~done or block[i] & done)


def reference_preds(need, block):
    """The precedence graph of need and block, as the machine once folded
    them: preds[i] holds each label that label i needs and each label
    whose being done label i wedges."""
    preds = list(need)  # a NEVER keeps bits no done set covers
    for i, wedges in enumerate(block):
        wedges &= ~(1 << i)  # a label never wedges itself
        while wedges:
            low = wedges & -wedges
            preds[low.bit_length() - 1] |= 1 << i
            wedges ^= low
    return preds


def settled(preds):
    """preds with every label that can never fire, one holding its own
    bit, reduced to that bit: such a label's other bits differ between a
    NEVER need and a label that needs itself."""
    return [1 << i if p >> i & 1 else p for i, p in enumerate(preds)]


def reference_accepts(need, block):
    """The exhaustive search over done sets that machine_accepts replaced."""
    full = (1 << len(need)) - 1
    dead = set()

    def search(done):
        if done == full:
            return True
        if done not in dead:
            for i in range(len(need)):
                if fires(need, block, i, done) and search(done | 1 << i):
                    return True
            dead.add(done)
        return False

    return search(0)


def settled_accepts(need, block):
    """reference_accepts, answering at once for a label that needs NEVER:
    that label never fires."""
    return NEVER not in need and reference_accepts(need, block)


def test_machine_accepts_agrees_with_reference_search(power):
    checked = 0
    for name in suite.names():
        for cand, result in evaluated(name, power):
            _, need, block, _ = candidate_context(cand, result.env)
            ctx = machine_context(cand, result)
            assert machine_accepts(ctx) is reference_accepts(need, block), name
            checked += 1
    assert checked == 296


def test_never_label_fires_from_no_done_set(power):
    chunked = project(parse_litmus((Path(__file__).parent / "chunked.litmus").read_text()))
    tests = [suite.load(name) for name in suite.names()] + [chunked]
    nevers = 0
    for t in tests:
        for cand, ctx, _ in contexts(t, power):
            full = (1 << len(ctx.labels)) - 1
            for i, preds in enumerate(ctx.preds):
                if preds >> i & 1:
                    others = full & ~(1 << i)
                    assert not any(machine._fires(ctx, i, done) for done in (0, others))
                    nevers += 1
    assert nevers > 0


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
    # premises as witness_path sorts them: a full order exists exactly
    # when the search finds a path
    preds = reference_preds(need, block)
    assert (not machine._linearise(preds)[1]) is reference_accepts(need, block) is accepted


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
            assert machine_accepts(ctx) == (not machine._linearise(ctx.preds)[1])
            try:
                witness_path(ctx)
            except WitnessCycleError:
                pass
    # each candidate's premises sort once against the chunk's verdict;
    # witness_path sorts once an accepted candidate and twice a rejected
    # one, whose preferred order and bare premises are both cyclic:
    # 296 + 186 + 2 * 110
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
        ctx = machine_context(cand, run_model(power, cand))
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
        visible = reference_visible(cand, events_by_id, rf_src, env["po-loc-sc"], w, r)
        need += [
            source | bits(cpw, prop_before.row(r)) if obs else NEVER,
            sr[r] if visible and not later & init_mask else NEVER,
        ]
        block += [bits(sr, later | prop.row(r)), bits(cw, later) | bits(sr, later)]
    return labels, tuple(need), tuple(block), rf_src


def reference_visible(cand, events_by_id, rf_src, po_loc_sc, w, r):
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
        if is_read(e) and (e.id, r) in po_loc_sc:
            if (w, rf_src[e.id]) in co:
                return False
    return True


def candidate_layout(t):
    """What candidate_context takes from t alone: write and read ids,
    write labels, init, write and read event masks, each event's first
    label bit and each read's po-loc neighbours (the mask of its
    po-loc-earlier events, its last po-loc-earlier write and its first
    po-loc-later write; an absent write is None)."""
    events, po_loc = t.events, t.po_loc
    writes = [e for e in events if is_write(e) and e.thread != "init"]
    reads = [e for e in events if is_read(e)]
    slot = [0] * t.n
    for k, e in enumerate(writes + reads):
        slot[e.id] = 1 << 2 * k
    neighbours = {}
    for r in reads:
        before = [e for e in events if (e.id, r.id) in po_loc]
        after = [e for e in events if is_write(e) and (r.id, e.id) in po_loc]
        last = max((e for e in before if is_write(e)), key=lambda e: e.po_index, default=None)
        first = min(after, key=lambda e: e.po_index, default=None)
        neighbours[r.id] = (mask(before), last and last.id, first and first.id)
    write_labels = tuple(x for e in writes for x in (("cw", e.id), ("cpw", e.id)))
    init = mask(e for e in events if e.thread == "init")
    return (tuple(e.id for e in writes), tuple(e.id for e in reads), write_labels,
            init, mask(writes), mask(reads), slot, neighbours)


def mask(events):
    return sum(1 << e.id for e in events)


def reference_neighbours(t):
    """The po-loc scan the machine's fragment replaced: the bits of last,
    first and earlier, which pair each read with its last po-loc-earlier
    write, its first po-loc-later write and each of its po-loc-earlier
    reads, found per read by testing every event against po-loc."""
    events, n, po_loc = t.events, t.n, t.po_loc
    last = first = earlier = 0
    for x in (e for e in events if is_read(e)):
        before = [e for e in events if (e.id, x.id) in po_loc]
        after = [e for e in events if is_write(e) and (x.id, e.id) in po_loc]
        ws = [e for e in before if is_write(e)]
        if ws:
            last |= 1 << x.id * n + max(ws, key=lambda e: e.po_index).id
        if after:
            first |= 1 << x.id * n + min(after, key=lambda e: e.po_index).id
        earlier |= mask(e for e in before if is_read(e)) << x.id * n
    return last, first, earlier


def candidate_context(cand, env):
    """The per-candidate builder the chunk's premises replaced: one
    candidate's rf, co and Power relations, as ints, turned into label
    bitmasks over candidate_layout.  Returns (labels, need, block, rf_src)."""
    ppo, fence, prop, hb, po_loc_sc = (env[k] for k in ("ppo", "fence", "prop", "hb", "po-loc-sc"))
    write_ids, read_ids, labels, init, writes, reads, slot, neighbours = candidate_layout(cand.source)
    n, full, co = cand.n, (1 << cand.n) - 1, cand.co
    order, ppo_fence = cand.po_loc.bits | prop.bits, ppo.bits | fence.bits
    # (w, r): a co-successor of w reaches r by prop;hb*, which fails sr:obs
    one = Packing.single(n)
    hidden = one.compose(co.bits, one.compose(prop.bits, one.closure(hb.bits, True)))
    rf_src = {r: w for (w, r) in cand.rf.pairs()}

    def bits(events):
        """The first-label bits of an event bitmask's events."""
        out = 0
        while events:
            low = events & -events
            out |= slot[low.bit_length() - 1]
            events ^= low
        return out

    # cpw:co, cpw:prop-rw and sr:prop-wr: a label's needs along co and prop
    earlier = [0] * n
    for a, b in co.pairs():
        earlier[b] |= slot[a] << 1
    for x, y in prop.pairs():
        if (reads >> x ^ reads >> y) & 1:  # a read and a write
            earlier[y] |= slot[x] << (writes >> x & 1)

    need, block, labels = [], [], list(labels)
    for w in write_ids:
        later = order >> w * n & full  # cw:coWW, cw:prop and cpw:order
        later_writes = bits(later & writes)
        # an init write is done from the start, so it wedges for good
        need += [NEVER, NEVER] if later & init else [0, slot[w] | earlier[w]]  # cpw:buff
        block += [later_writes | bits(fence.bits >> w * n & reads), later_writes << 1]
    for r in read_ids:
        w = rf_src[r]
        labels += [("sr", w, r), ("cr", w, r)]
        later = ppo_fence >> r * n & full  # sr:ppo, cr:ppo-write and cr:ppo-read
        source = 0 if neighbours[r][0] >> w & 1 else slot[w]  # sr:source
        sc_reads = [e for e in read_ids if (e, r) in po_loc_sc]
        visible = candidate_visible(co, rf_src, w, neighbours[r], sc_reads)
        need += [
            NEVER if hidden >> w * n + r & 1 else source | earlier[r],
            slot[r] if visible and not later & init else NEVER,
        ]
        block += [bits((later | prop.bits >> r * n) & reads), bits(later)]
    return tuple(labels), tuple(need), tuple(block), rf_src


def candidate_visible(co, rf_src, w, neighbours, reads):
    """w may service its read: it lies between the read's po-loc write
    neighbours, and none of reads, its po-loc-sc-earlier reads, saw a
    write co-after w."""
    before, last, first = neighbours
    if last is not None and w != last and (last, w) not in co:
        return False
    if first is not None and not before >> w & 1 and (w, first) not in co:
        return False
    return not any((w, rf_src[e]) in co for e in reads)


def assert_matches_reference(cand, result):
    """cand's labels and preds, read from its block of its chunk's
    premises, equal those of both per-candidate builders, and the chunk's
    verdict on it equals the search over their need and block; result is
    Power's on cand."""
    ctx, env = machine_context(cand, result), result.env
    labels, need, block, rf_src = want = candidate_context(cand, env)
    where = (cand.source.name, cand.j, cand.rf.pairs())
    assert want == reference_context(cand, env), where
    assert (ctx.labels, ctx.rf_src) == (labels, rf_src), where
    assert settled(ctx.preds) == settled(reference_preds(need, block)), where
    assert ctx.label_index == {l: i for i, l in enumerate(ctx.labels)}
    assert machine_accepts(ctx) is settled_accepts(need, block), where


def assert_test_matches_reference(t, model):
    """assert_matches_reference on every candidate of t, with model (Power,
    or any model binding ppo, fence, prop and hb) bound to t once.  Returns
    the counts of candidates and of chunks."""
    judge, chunks, checked = bind(model, t), [], 0
    for cand in enumerate_candidates(t):
        result = run_model(judge, cand)
        assert_matches_reference(cand, result)
        if not chunks or chunks[-1] is not result.chunk:
            chunks.append(result.chunk)
        checked += 1
    return checked, len(chunks)


def test_machine_context_agrees_with_reference_on_the_suite():
    # every bundled model binds the names the machine reads
    for name in models.BUILTIN_MODELS:
        model = load_builtin(name)
        counts = [assert_test_matches_reference(suite.load(t), model) for t in suite.names()]
        assert sum(c for c, _ in counts) == 296, name


def test_machine_context_agrees_with_reference_across_chunks():
    # candidate j of each chunk reads block j of that chunk's premises
    t = project(parse_litmus((Path(__file__).parent / "chunked.litmus").read_text()))
    for name in models.BUILTIN_MODELS:
        assert assert_test_matches_reference(t, load_builtin(name)) == (600, 3), name


def test_machine_decides_each_chunk_once_and_answers_each_candidate(power, monkeypatch):
    calls = Counter()

    def counted(name):
        fn = getattr(machine, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in ("_premises", "machine_context", "machine_accepts"):
        monkeypatch.setattr(machine, name, counted(name))
    chunked = (Path(__file__).parent / "chunked.litmus").read_text()
    accepted, allowed, _ = machine.cross_check(project(parse_litmus(chunked)), power)
    assert accepted == allowed
    assert calls == {"_premises": 3, "machine_context": 600, "machine_accepts": 600}


def test_cross_check_refuses_a_model_without_the_machines_names_before_enumerating(monkeypatch):
    # the contract is checked once per test, at the model's last statement,
    # and only for a test within the bound
    model = parse_cat("let po-loc-sc = po-loc\nacyclic po", "power.cat")
    monkeypatch.setattr(executions, "enumerate_candidates", lambda t: pytest.fail("enumerated"))
    with pytest.raises(CatError, match=r"^power.cat:2:1: power model binds no ppo, fence, prop, hb$"):
        machine.cross_check(suite.load("mp"), model)
    with pytest.raises(machine.BoundError):
        machine.cross_check(suite.load("mp"), model, bound=3)


def generated(workload, seed, mine_only=False):
    """perfbench/gen.py's tests for one workload and seed, projected."""
    gen = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "gen.py"))
    return [project(parse_litmus(text))
            for _, text, _, _ in gen["generate"](workload, seed, mine_only)]


# cpp-ra checks irreflexive prop ; co where the machine's cpw:order
# enforces acyclic co | prop, so the machine forbids some of its 2+2w shapes
CPP_RA_GAP = {"2+2w", "2+2w+lwsyncs", "s+dmb+fri-rfi-data", "w+rw+2w+lwsyncs"}


def test_machine_cross_checks_every_bundled_model_on_the_corpus():
    # the suite, chunked.litmus and the benchmark's wide and xcheck seeds
    # 1-3: the machine, run on each model's names, accepts what that model
    # allows, on tests of up to 12 events; where it does not, it accepts less
    tests = [suite.load(n) for n in suite.names()] + [CHUNKED] + [
        t for w in ("wide", "xcheck") for seed in (1, 2, 3) for t in generated(w, seed)]
    assert len(tests) == 126
    for name in models.BUILTIN_MODELS:
        model, diverging = load_builtin(name), set()
        for t in tests:
            accepted, allowed, _ = machine.cross_check(t, model, 99)
            assert accepted <= allowed, (name, t.name)
            if accepted != allowed:
                diverging.add(t.name)
        assert diverging == (CPP_RA_GAP if name == "cpp-ra" else set()), name


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_machine_context_agrees_with_reference_on_generated_tests(power, seed):
    # the machine's own benchmark inputs: 8-9 events, 30-90 candidates each
    counts = [assert_test_matches_reference(t, power) for t in generated("xcheck", seed)]
    assert len(counts) == 20 and all(chunks == 1 for _, chunks in counts)


def test_layout_neighbours_match_the_po_loc_scan(power):
    # every input of the benchmark's wide and xcheck seeds 1-3, mined ones
    # too: the fragment's last, now (w, r), its first and RR(po-loc-sc),
    # Power's RR(po-loc), on block 0 of the fragment's chunk on Power's
    # first chunk
    tests = suite_and_neighbour_tests() + [
        t for w in ("wide", "xcheck") for seed in (1, 2, 3) for mine in (False, True)
        for t in generated(w, seed, mine)]
    for t in tests:
        cand = next(enumerate_candidates(t))
        m = cat.extend(machine._FRAGMENT, t, run_model(power, cand).chunk)
        earlier = Relation(t.n, m.pack.split(m["po-loc"] & m.masks["RR"])[0])
        got = m.relation("last", 0).inverse(), m.relation("first", 0), earlier.inverse()
        assert tuple(r.bits for r in got) == reference_neighbours(t), t.name
    assert len(tests) == 397


def test_no_module_keeps_a_test_alive(power):
    # each walk builds the tables it needs, so once its results are dropped
    # only the caller refers to the test
    frame, t = sys._getframe(), suite.load("mp")
    result, behaviors = evaluate_test(t, power), machine.cross_check(t, power)
    states = [observed_state(cand) for cand in enumerate_candidates(t)]
    assert result.witness and behaviors[2] and len(states) == 4
    del result, behaviors
    gc.collect()
    assert [r for r in gc.get_referrers(t) if r is not frame] == []


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
    # the read after the write sees T1's writes only when co puts them
    # after it, and the last read never sees a write co-before the one
    # the read before it saw
    assert assert_test_matches_reference(t, power) == (6 * 4**3, 2)
    accepted = [ctx for _, ctx, _ in contexts(t, power) if machine_accepts(ctx)]
    assert 0 < len(accepted) < 6 * 4**3


def test_machine_context_switches_tests_when_fed_alternately(power):
    # Power is bound to each test once, so every call brings the machine
    # a chunk, and a test, other than the one it saw last
    tests = [suite.load(n) for n in ("coRR", "sb+syncs")]
    judges = [bind(power, t) for t in tests]
    for pair in zip(*map(enumerate_candidates, tests)):
        for judge, cand in zip(judges, pair):
            assert_matches_reference(cand, run_model(judge, cand))


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
        judge = bind(power, t)
        for cand in enumerate_candidates(t):
            result = run_model(judge, cand)
            ctx = machine_context(cand, result)
            if machine_accepts(ctx):
                assert witness_path(ctx) == reference_witness_path(ctx, result.env), t.name
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


def test_machine_context_agrees_with_reference_on_wide1_02(power):
    assert assert_test_matches_reference(project(parse_litmus(WIDE1_02)), power) == (108, 1)


def test_witness_path_exists_exactly_when_the_machine_accepts(power):
    # the machine's own inputs too, so `machine --trace` always has a path to show
    wide = project(parse_litmus(WIDE1_02))
    tests = [wide, CHUNKED] + [suite.load(n) for n in suite.names()]
    tests += [t for seed in (1, 2, 3) for t in generated("xcheck", seed)]
    seen = Counter()
    for t in tests:
        judge = bind(power, t)
        for k, cand in enumerate(enumerate_candidates(t)):
            result = run_model(judge, cand)
            ctx = machine_context(cand, result)
            accepts = machine_accepts(ctx)
            if accepts:
                assert replay_path(ctx, witness_path(ctx)) == (True, None), (t.name, k)
            else:
                with pytest.raises(WitnessCycleError):
                    witness_path(ctx)
            seen[accepts] += 1
            if t is wide and k == 38:
                assert result.passed and accepts
                with pytest.raises(WitnessCycleError):
                    reference_witness_path(ctx, result.env)
    assert seen == {True: 1124, False: 3026}


def reference_replay(labels, need, block, path):
    """replay_path under the need and block rules: a step blocks when its
    label is not one of labels or cannot fire from the steps before it."""
    index, done = {label: i for i, label in enumerate(labels)}, 0
    for step, label in enumerate(path):
        i = index.get(label)
        if i is None or not fires(need, block, i, done):
            return False, step
        done |= 1 << i
    return done == (1 << len(labels)) - 1, None


def test_perturbed_witness_paths_replay_as_the_need_and_block_rules(power):
    # each adjacent swap and each duplicated label of every witness path:
    # replay_path accepts exactly the paths the need and block rules fire
    # in full; where the two block at different steps, replay_path blocks
    # first, at a label fired ahead of one it must follow, where the rules
    # go on until the label that one wedges
    paths = moved = 0
    for t in suite_and_neighbour_tests() + [project(parse_litmus(WIDE1_02))]:
        for cand, result in evaluated(t, power):
            ctx = machine_context(cand, result)
            if not machine_accepts(ctx):
                continue
            labels, need, block, _ = candidate_context(cand, result.env)
            path = witness_path(ctx)
            perturbed = [path[:k] + path[k:k + 2][::-1] + path[k + 2:] for k in range(len(path) - 1)]
            perturbed += [path[:k + 1] + path[k:] for k in range(len(path))]
            for bad in perturbed:
                (ok, step), want = replay_path(ctx, bad), reference_replay(labels, need, block, bad)
                assert ok is want[0], (t.name, cand.j, bad)
                if step != want[1]:
                    assert step < want[1], (t.name, cand.j, bad)
                    moved += 1
            paths += len(perturbed)
    assert (paths, moved) == (5_084, 252)


def test_behaviors_match_a_per_candidate_reference(power):
    # each state is made once per key; fed test after test, as
    # cross_check and the CLI feed them
    for t in [suite.load(name) for name in ("2+2w", "coWW", "iriw", "mp")] + [CHUNKED]:
        want = {(frozenset(cand.rf.pairs()), "; ".join(reference_state(cand)))
                for cand, _, passed in contexts(t, power) if passed}
        assert machine.model_behaviors(t, power) == want, t.name
