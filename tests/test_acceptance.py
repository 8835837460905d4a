"""Acceptance gate: one test per shipping criterion, tolerances included.

Each test is self-contained and states its own frozen expectations, so a
`pytest -v` run of this file reads as the checklist.
"""

import random
import time

from memcat import suite
from memcat.cat import run_model
from memcat.cycles import (
    find_critical_cycles,
    location_condition,
    mine,
    parse_thr,
    thread_condition,
)
from memcat.executions import enumerate_candidates
from memcat.machine import (
    derive_from_path,
    enumerate_accepted,
    machine_context,
    model_behaviors,
    replay_path,
    witness_path,
)
from memcat.models import golden_table, load_builtin, verdict
from memcat.relation import Relation, check_acyclic, closure, compose

from oracles import closure_pairs, sc_allowed, tso_allowed

GOLDEN_POWER = {
    "coWW": "forbidden",
    "coRW1": "forbidden",
    "coRW2": "forbidden",
    "coWR": "forbidden",
    "coRR": "forbidden",
    "lb+addrs": "forbidden",
    "mp+lwsync+addr": "forbidden",
    "wrc+lwsync+addr": "forbidden",
    "isa2+lwsync+addrs": "forbidden",
    "2+2w+lwsyncs": "forbidden",
    "w+rw+2w+lwsyncs": "forbidden",
    "sb+syncs": "forbidden",
    "rwc+syncs": "forbidden",
    "r+syncs": "forbidden",
    "s+lwsync+addr": "forbidden",
    "iriw+syncs": "forbidden",
    "lb+addrs+ww": "forbidden",
    "mp": "allowed",
    "sb": "allowed",
    "lb": "allowed",
    "iriw": "allowed",
    "r+lwsync+sync": "allowed",
    "w+rwc+eieio+addr+sync": "allowed",
    "lb+datas+ww": "allowed",
}


def test_criterion_1_power_verdict_table_exact_under_60s():
    start = time.monotonic()
    power = load_builtin("power")
    got = {name: verdict(suite.load(name), power) for name in GOLDEN_POWER}
    elapsed = time.monotonic() - start
    assert got == GOLDEN_POWER
    assert golden_table()["power"] == GOLDEN_POWER  # shipped asset in sync
    assert elapsed < 60.0, f"golden table took {elapsed:.1f}s"


def test_criterion_2_arm_divergences_exact():
    arm = load_builtin("arm")
    power_as_arm = load_builtin("power-as-arm")
    arm_llh = load_builtin("arm-llh")
    for name in (
        "mp+dmb+fri-rfi-ctrlisb",
        "lb+data+fri-rfi-ctrl",
        "s+dmb+fri-rfi-data",
    ):
        t = suite.load(name)
        assert verdict(t, arm) == "allowed", name
        assert verdict(t, power_as_arm) == "forbidden", name
    for name in ("coWW", "coRW1", "coRW2", "coWR", "coRR"):
        t = suite.load(name)
        assert verdict(t, arm) == "forbidden", name
        want = "allowed" if name == "coRR" else "forbidden"
        assert verdict(t, arm_llh) == want, name


def test_criterion_3_sc_tso_oracle_equivalence_under_2min():
    start = time.monotonic()
    sc = load_builtin("sc")
    tso = load_builtin("tso")
    names = suite.names()
    assert len(names) >= 30
    for name in names:
        t = suite.load(name)
        for cand in enumerate_candidates(t):
            assert run_model(sc, cand).passed == sc_allowed(cand), name
            mfence = cand.fences["mfence"].pairs()
            assert run_model(tso, cand).passed == tso_allowed(cand, mfence), name
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_4_machine_equivalence_and_witness_roundtrip_under_5min():
    start = time.monotonic()
    power = load_builtin("power")
    tests = [suite.load(name) for name in suite.names()]
    for t in tests:
        assert enumerate_accepted(t, 10) == model_behaviors(t, power), t.name
    for t in tests:
        for cand in enumerate_candidates(t):
            result = run_model(power, cand)
            if not result.passed:
                continue
            ctx = machine_context(cand, result.env)
            path = witness_path(ctx)
            accepted, blocked = replay_path(ctx, path)
            assert accepted and blocked is None, t.name
            rf, co = derive_from_path(cand, path)
            assert rf == frozenset(cand.rf.pairs()), t.name
            assert co == frozenset(cand.co.pairs()), t.name
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"machine sweep took {elapsed:.1f}s"


CLASSIFIER_TABLE = (
    ("T0: Wx Wy\nT1: Ry Rx\n", "mp", "observation"),
    ("T0: Wx\nT1: Rx Wy\nT2: Ry Rx\n", "wrc", "observation"),
    ("T0: Wx Wy\nT1: Ry Wz\nT2: Rz Rx\n", "isa2", "observation"),
    ("T0: Rx Wy\nT1: Ry Wx\n", "lb", "no-thin-air"),
    ("T0: Wx Ry\nT1: Wy Rx\n", "sb", "propagation"),
    ("T0: Wx\nT1: Rx Ry\nT2: Wy Rx\n", "rwc", "propagation"),
    ("T0: Wx Wy\nT1: Wy Rx\n", "r", "propagation"),
    ("T0: Wx Wy\nT1: Wy Wx\n", "2+2w", "propagation"),
    ("T0: Wx Wx\n", "coWW", "sc-per-location"),
    ("T0: Rx Wx\n", "coRW1", "sc-per-location"),
    ("T0: Rx Wx\nT1: Wx\n", "coRW2", "sc-per-location"),
    ("T0: Wx Rx\nT1: Wx\n", "coWR", "sc-per-location"),
    ("T0: Rx Rx\nT1: Wx\n", "coRR", "sc-per-location"),
)


def test_criterion_5_classifier_table_exact():
    for text, classic, axiom in CLASSIFIER_TABLE:
        records = mine(parse_thr(text, name=classic))
        assert records, classic
        assert {r["axiom"] for r in records} == {axiom}, classic
        assert classic in {r["classic"] for r in records}, classic


def _record_conditions_hold(accesses):
    by_thread, by_loc = {}, {}
    for thread, _, _, loc in accesses:
        by_thread.setdefault(thread, []).append(loc)
        by_loc.setdefault(loc, []).append(thread)
    threads_ok = all(
        len(locs) <= 2 and len(set(locs)) == len(locs)
        for locs in by_thread.values()
    )
    locs_ok = all(
        len(ts) <= 3 and len(set(ts)) == len(ts) for ts in by_loc.values()
    )
    return threads_ok and locs_ok


def test_criterion_6_cycle_miner_mp_and_s_extension():
    mp_records = mine(parse_thr(suite.thr_source("mp"), name="mp"))
    assert len(mp_records) == 1
    assert mp_records[0]["name"] == "mp"
    assert mp_records[0]["systematic"] == "ww+rr"

    ext = mine(parse_thr(suite.thr_source("ww+rw+r"), name="ww+rw+r"))
    assert ext
    assert {(r["classic"], r["systematic"]) for r in ext} == {("s", "ww+rw")}

    rng = random.Random(20260814)
    for _ in range(80):
        lines = []
        for tid in range(rng.randint(2, 4)):
            accs = [
                rng.choice("RW") + rng.choice("xyz")
                for _ in range(rng.randint(1, 3))
            ]
            lines.append(f"T{tid}: " + " ".join(accs))
        program = parse_thr("\n".join(lines) + "\n", name="fuzz")
        for cyc in find_critical_cycles(program):
            if cyc.critical:
                assert thread_condition(cyc)
                assert location_condition(cyc)
        for rec in mine(program):
            if len({loc for _, _, _, loc in rec["accesses"]}) >= 2:
                assert _record_conditions_hold(rec["accesses"])


def test_criterion_7_relation_algebra_on_1000_random_relations():
    rng = random.Random(7)

    def rand_rel(n):
        pairs = {
            (rng.randrange(n), rng.randrange(n))
            for _ in range(rng.randrange(n * n + 1))
        }
        return Relation.from_pairs(n, pairs)

    for _ in range(1000):
        n = rng.randint(1, 8)
        a, b, c = rand_rel(n), rand_rel(n), rand_rel(n)
        assert compose(compose(a, b), c) == compose(a, compose(b, c))
        assert (a | b) | c == a | (b | c)
        assert a | a == a
        assert a & a == a
        ca = closure(a)
        assert set(ca.pairs()) == closure_pairs(a.pairs(), range(n))
        assert closure(ca) == ca
        assert set(a.pairs()) <= set(ca.pairs())
        acyclic = check_acyclic(a) is None
        assert acyclic == all(x != y for x, y in ca.pairs())


def test_criterion_8_ppo_fixpoint_inclusions_on_every_power_candidate():
    power = load_builtin("power")
    names = [n for n in suite.names() if suite.load(n).arch == "power"]
    assert len(names) >= 20
    for name in names:
        for cand in enumerate_candidates(suite.load(name)):
            env = run_model(power, cand).env
            assert not (env["ci"] - env["ii"]), name
            assert not ((env["ii"] | env["cc"]) - env["ic"]), name
            assert not (env["ci"] - env["cc"]), name
            assert not (env["ii0"] - env["ii"]), name
            assert not (env["cc0"] - env["cc"]), name
