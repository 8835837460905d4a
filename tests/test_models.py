"""Bundled model verdicts on the bundled suite."""

import json
import re
from pathlib import Path

import pytest

from memcat import suite
from memcat.cat import CatError, Check, parse_cat, run_model
from memcat.executions import enumerate_candidates
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


def test_axioms_and_ppo_fixpoint_live_in_one_fragment_each():
    def holders(pattern):
        return sorted(
            p.name
            for p in BUNDLED_DIR.glob("*.cat")
            if re.search(pattern, p.read_text(), re.M)
        )

    # cpp-ra states its own, weaker propagation check
    assert holders(r"^\s*(acyclic|irreflexive)\b") == [
        "_axioms.cat", "_common.cat", "cpp-ra.cat"
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


def test_sc_model_agrees_with_acyclicity_oracle(tests, models):
    for name in ("mp", "sb", "lb", "r", "2+2w", "coWW", "coRR"):
        for cand in enumerate_candidates(tests[name]):
            assert run_model(models["sc"], cand).passed == sc_allowed(cand), name


def test_tso_model_agrees_with_store_order_oracle(tests, models):
    for name in ("sb", "sb+ffences", "mp", "lb", "coWR"):
        for cand in enumerate_candidates(tests[name]):
            mfence = cand.fences["mfence"].pairs()
            assert run_model(models["tso"], cand).passed == tso_allowed(
                cand, mfence
            ), name


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
