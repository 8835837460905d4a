"""Operational machine: acceptance, witness paths, path derivation."""

import pytest

from memcat import machine, suite
from memcat.cat import run_model
from memcat.executions import enumerate_candidates, evaluate_final
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
    return MachineContext(
        None, labels, {l: l for l in labels}, (), (), {}, tuple(need), tuple(block)
    )


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
