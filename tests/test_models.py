"""Bundled model verdicts on the bundled suite."""

import json
import re
from collections import Counter
from pathlib import Path

import pytest

from memcat import suite
from memcat.cat import CatError, Check, bind, parse_cat, run_model
from memcat.cycles import mine, parse_thr, program_from_litmus
from memcat.executions import (
    CHUNK,
    count_candidates,
    enumerate_candidates,
    evaluate_final,
    observed_state,
)
from memcat.litmus import parse_litmus, project
from memcat.models import (
    BUILTIN_MODELS,
    BUNDLED_DIR,
    MODELS_DIR_VAR,
    PRUNE_CHECK,
    available_models,
    evaluate_test,
    golden_table,
    load_builtin,
    verdict,
)

from oracles import sc_allowed, tso_allowed, candidate_pairs
from test_executions import (
    CHUNKED,
    assert_final_matches_reference,
    reference_final,
    reference_state,
)
from test_machine import generated


@pytest.fixture(scope="module")
def tests():
    return {n: suite.load(n) for n in suite.names()}


@pytest.fixture(scope="module")
def models():
    return {n: load_builtin(n) for n in BUILTIN_MODELS}


# Every bundled model on every suite test, recorded before the models were
# rewritten as instances of one shared skeleton.  Frozen: a model change
# that moves any figure here is a behaviour change, not a refactor.
SNAPSHOT = Path(__file__).with_name("model_snapshot.json")
STATIC_PPO_MODELS = ("power", "power-as-arm", "arm", "arm-llh")


@pytest.fixture(scope="module")
def snapshot():
    return json.loads(SNAPSHOT.read_text())


def _outcomes(tests, model, label):
    out = {}
    for name, t in tests.items():
        r = evaluate_test(t, model, label)
        out[name] = {
            "verdict": r.verdict,
            "candidates": r.candidates,
            "passing": r.passing,
            "satisfying": r.satisfying,
            "states": list(r.states),
            "checks": r.check_failures,
        }
    return out


def _mismatches(got, want):
    return sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))


def test_bundled_models_match_snapshot(tests, models, snapshot):
    assert sorted(snapshot["outcomes"]) == sorted(BUILTIN_MODELS)
    for m in BUILTIN_MODELS:
        got = _outcomes(tests, models[m], m)
        assert _mismatches(got, snapshot["outcomes"][m]) == [], m


def test_static_ppo_models_match_snapshot(tests, snapshot):
    assert sorted(snapshot["static-ppo"]) == sorted(STATIC_PPO_MODELS)
    for m in STATIC_PPO_MODELS:
        got = _outcomes(tests, load_builtin(m, static_ppo=True), m)
        assert _mismatches(got, snapshot["static-ppo"][m]) == [], m


def test_check_names_and_order_match_snapshot(models, snapshot):
    for m in BUILTIN_MODELS:
        names = [s.name for s in models[m].statements if isinstance(s, Check)]
        assert names == snapshot["checks"][m], m


def test_models_pruning_and_miner_name_the_same_four_axioms(tests, models):
    # the models name their checks; the pruned check and the miner's axioms are among them
    axioms = ["sc-per-location", "no-thin-air", "observation", "propagation"]
    for m in BUILTIN_MODELS:
        assert [s.name for s in models[m].statements if isinstance(s, Check)] == axioms, m
    assert PRUNE_CHECK in axioms
    programs = [program_from_litmus(t) for t in tests.values()]
    programs += [parse_thr(suite.thr_source(n), name=n) for n in suite.thr_names()]
    assert {r["axiom"] for p in programs for r in mine(p)} <= set(axioms)


def test_pruning_keeps_every_outcome(tests, models, snapshot):
    # a pruned candidate fails the model's own sc-per-location check, so
    # it could never pass: only the failed-check counts may change
    for m in BUILTIN_MODELS:
        for name, t in tests.items():
            r = evaluate_test(t, models[m], m, prune=True)
            want = snapshot["outcomes"][m][name]
            got = (r.verdict, r.candidates, r.passing, r.satisfying, list(r.states))
            assert got == (
                want["verdict"],
                want["candidates"],
                want["passing"],
                want["satisfying"],
                want["states"],
            ), (m, name)
            assert PRUNE_CHECK not in r.check_failures, (m, name)


def test_pruning_needs_the_models_own_check(tests):
    model = parse_cat("(* coherence *)\nacyclic po-loc | rf | co | fr\n")
    with pytest.raises(CatError, match="sc-per-location"):
        evaluate_test(tests["mp"], model, "coherence-only", prune=True)


def test_all_builtin_models_present(monkeypatch):
    monkeypatch.delenv(MODELS_DIR_VAR, raising=False)
    assert available_models() == sorted(BUILTIN_MODELS)
    with pytest.raises(FileNotFoundError):
        load_builtin("_axioms")  # an include fragment is not a model


def test_load_builtin_takes_exactly_the_listed_names(tmp_path, monkeypatch):
    (tmp_path / "sub").mkdir()
    for name in ("trivial", "_fragment", "sub/nested"):
        (tmp_path / f"{name}.cat").write_text("acyclic 0\n")
    monkeypatch.setenv(MODELS_DIR_VAR, str(tmp_path))
    assert available_models() == ["trivial"]
    for name in available_models():
        load_builtin(name)
    for name in ("", "_fragment", "sub/nested", "./trivial", "trivial/", str(tmp_path / "trivial"),
                 "missing"):
        with pytest.raises(FileNotFoundError, match="available: trivial\\)"):
            load_builtin(name)


def test_axioms_and_ppo_fixpoint_live_in_one_fragment_each():
    def holders(pattern):
        return sorted(
            p.name
            for p in BUNDLED_DIR.glob("*.cat")
            if re.search(pattern, p.read_text(), re.M)
        )

    # cpp-ra states its own, weaker propagation check, and the machine
    # its verdict
    assert holders(r"^\s*(acyclic|irreflexive)\b") == [
        "_axioms.cat", "_common.cat", "_machine.cat", "cpp-ra.cat"
    ]
    assert holders(r"^\s*let rec\b") == ["_power-arm.cat"]


def test_suite_has_enough_tests():
    assert len(suite.names()) >= 30


def test_power_verdicts_match_golden_table(tests, models):
    table = golden_table()["power"]
    got = {
        name: verdict(tests[name], models["power"]) for name in table
    }
    assert got == table


def test_arm_model_diverges_from_power_shaped_arm(tests, models):
    fri_rfi = (
        "mp+dmb+fri-rfi-ctrlisb",
        "lb+data+fri-rfi-ctrl",
        "s+dmb+fri-rfi-data",
    )
    for name in fri_rfi:
        assert verdict(tests[name], models["arm"]) == "allowed", name
        assert verdict(tests[name], models["power-as-arm"]) == "forbidden", name


def test_arm_llh_relaxes_exactly_read_read_coherence(tests, models):
    coherence = ("coWW", "coRW1", "coRW2", "coWR", "coRR")
    for name in coherence:
        assert verdict(tests[name], models["arm"]) == "forbidden", name
        want = "allowed" if name == "coRR" else "forbidden"
        assert verdict(tests[name], models["arm-llh"]) == want, name


def test_sc_and_tso_on_classic_shapes(tests, models):
    assert verdict(tests["sb"], models["sc"]) == "forbidden"
    assert verdict(tests["sb"], models["tso"]) == "allowed"
    assert verdict(tests["sb+ffences"], models["tso"]) == "forbidden"
    assert verdict(tests["mp"], models["tso"]) == "forbidden"
    assert verdict(tests["lb"], models["tso"]) == "forbidden"


def test_release_acquire_orders_message_passing_but_not_stores(tests, models):
    assert verdict(tests["mp"], models["cpp-ra"]) == "forbidden"
    assert verdict(tests["lb"], models["cpp-ra"]) == "forbidden"
    assert verdict(tests["sb"], models["cpp-ra"]) == "allowed"
    # independent reads stay unordered without a total store order
    assert verdict(tests["iriw"], models["cpp-ra"]) == "allowed"


# The paper's inclusions between instances of the generic model, which is
# monotone in ppo, fences and prop: each candidate the first model allows,
# the second allows too.  --static-ppo empties rdw and detour, which only
# shrinks ppo.
INCLUSIONS = [
    ("sc", "tso"), ("sc", "power"), ("sc", "cpp-ra"), ("sc", "arm-llh"), ("tso", "cpp-ra"),
    ("power-as-arm", "arm"), ("arm", "arm-llh"),
    ("power", "power --static-ppo"), ("arm", "arm --static-ppo"),
]


@pytest.fixture(scope="module")
def judged(tests, models):
    """Each candidate of the suite, tests/chunked.litmus and perfbench/gen.py's
    wide and xcheck seeds 1-3, with its verdict by every bundled model and by
    power and arm with --static-ppo: one enumeration per test."""
    judges = {**models, **{f"{m} --static-ppo": load_builtin(m, static_ppo=True) for m in ("power", "arm")}}
    corpus = [*tests.values(), CHUNKED, *(t for w in ("wide", "xcheck") for seed in (1, 2, 3)
                                          for t in generated(w, seed))]
    out = []
    for t in corpus:
        bound = {name: bind(model, t) for name, model in judges.items()}
        out += [(cand, {name: judge(cand).passed for name, judge in bound.items()})
                for cand in enumerate_candidates(t)]
    assert (len(corpus), len(out)) == (126, 7566)
    return out


def test_stronger_models_allow_no_candidate_a_weaker_one_forbids(judged):
    for i, (cand, passed) in enumerate(judged):
        for strong, weak in INCLUSIONS:
            assert passed[weak] or not passed[strong], (cand.source.name, i, strong, weak)


def test_sc_model_agrees_with_acyclicity_oracle(judged):
    for cand, passed in judged:
        assert passed["sc"] == sc_allowed(cand), cand.source.name


def test_tso_model_agrees_with_store_order_oracle(judged):
    for cand, passed in judged:
        assert passed["tso"] == tso_allowed(cand, cand.fences["mfence"].pairs()), cand.source.name


def test_ppo_fixpoint_inclusions_on_a_fenced_test(tests, models):
    for cand in enumerate_candidates(tests["mp+lwsync+addr"]):
        env = run_model(models["power"], cand).env
        ii, ic, ci, cc = env["ii"], env["ic"], env["ci"], env["cc"]
        assert not (ci - ii)
        assert not ((ii | cc) - ic)
        assert not (ci - cc)
        assert not (env["ii0"] - ii)
        assert not (env["cc0"] - cc)


def test_static_ppo_drops_execution_dependent_parts():
    src = """\
rdwtest power
init { x=0; rx=&x; r1=1; }
thread T0 { st [rx], r1 }
thread T1 {
  ld r2, [rx]
  ld r3, [rx]
}
final exists (T1:r2=0 /\\ T1:r3=1)
"""
    t = project(parse_litmus(src))
    full = load_builtin("power")
    static = load_builtin("power", static_ppo=True)
    saw_rdw = False
    for cand in enumerate_candidates(t):
        env_full = run_model(full, cand).env
        env_static = run_model(static, cand).env
        saw_rdw |= bool(env_full["rdw"])
        assert not env_static["rdw"]
        assert not env_static["detour"]
    assert saw_rdw


def test_models_dir_override(tmp_path, monkeypatch):
    (tmp_path / "trivial.cat").write_text("(* everything goes *)\nacyclic 0\n")
    monkeypatch.setenv("MEMCAT_MODELS_DIR", str(tmp_path))
    assert available_models() == ["trivial"]
    model = load_builtin("trivial")
    t = project(parse_litmus(
        "tiny sc\ninit { x=0; rx=&x; r1=1; }\nthread T0 { st [rx], r1 }\n"
        "final exists (x=1)"
    ))
    assert verdict(t, model) == "allowed"
    with pytest.raises(FileNotFoundError):
        load_builtin("power")


def test_evaluate_test_counts_are_consistent(tests, models):
    r = evaluate_test(tests["mp"], models["sc"], model_name="sc")
    assert r.candidates == 4
    assert 0 < r.passing <= r.candidates
    assert r.satisfying == 0  # sc forbids the stale read
    assert r.verdict == "forbidden"
    assert r.witness is None


def reference_evaluation(t, model, prune=False):
    """evaluate_test's figures the per-candidate way: each candidate's own
    checks, and each passing one's observed_state and evaluate_final, both
    checked against test_executions' per-candidate walk."""
    judge, failures, states, satisfying, witness = bind(model, t), Counter(), set(), 0, None
    for cand in enumerate_candidates(t):
        result = run_model(judge, cand)
        failed = [check.name for check in result.checks if not check.ok]
        assert bool(failed) is not result.passed
        if not (prune and PRUNE_CHECK in failed):
            failures.update(failed)
        if result.passed:
            state, satisfied = observed_state(cand), evaluate_final(cand)
            assert (state, satisfied) == (reference_state(cand), reference_final(cand))
            states.add("; ".join(state))
            if satisfied:
                satisfying += 1
                witness = witness or cand
    return failures, tuple(sorted(states)), satisfying, _identity(witness)


def _identity(cand):
    """A candidate's rf and co, which no other candidate of its test has."""
    return cand and (cand.rf, cand.co)


@pytest.mark.parametrize("prune", [False, True])
def test_failures_counted_per_chunk_match_a_per_candidate_count(models, prune):
    # 600 candidates in 3 chunks: each chunk's failures are counted once,
    # from its per-check bytes, with the pruned candidates' bytes masked off
    assert count_candidates(CHUNKED) == 600 > 2 * CHUNK
    for m in BUILTIN_MODELS:
        r = evaluate_test(CHUNKED, models[m], m, prune=prune)
        failures, states, satisfying, witness = reference_evaluation(CHUNKED, models[m], prune)
        assert r.check_failures == failures, (m, prune)
        assert (r.states, r.satisfying, _identity(r.witness)) == (states, satisfying, witness), (
            m, prune)


# a final mixing a register atom and a location atom; T1's r4 is read but
# not in the final, so candidates that differ only in it share one outcome
MIXED = """\
mixed power
init { x=0; y=0; rx=&x; ry=&y; r1=1; r2=2; }
thread T0 {
  st [rx], r1
  st [ry], r1
}
thread T1 {
  st [rx], r2
  ld r3, [ry]
  ld r4, [rx]
}
final exists (T1:r3=1 /\\ x=2)
"""


@pytest.mark.parametrize("name", ["2+2w", "coWW", "mp", "iriw", "mixed"])
def test_keyed_outcomes_match_a_per_candidate_reference(tests, models, name):
    t = project(parse_litmus(MIXED)) if name == "mixed" else tests[name]
    for m in BUILTIN_MODELS:
        r = evaluate_test(t, models[m], m)
        _, states, satisfying, witness = reference_evaluation(t, models[m])
        assert (r.states, r.satisfying, _identity(r.witness)) == (states, satisfying, witness), (
            m, name)
    assert_final_matches_reference(enumerate_candidates(t))
