"""Bundled models, loading, and per-test verdicts: evaluate_test counts
check failures once per chunk, from the chunk's per-check failure bytes."""

from __future__ import annotations

import json
import os
from collections import Counter
from pathlib import Path
from typing import Optional

from ..cat import CatError, Check, Empty, Let, Model, bind, parse_cat, run_model
from ..executions import enumerate_candidates, final_outcome
from ..litmus import ProjectedTest
from ..relation import Record

BUILTIN_MODELS = ("sc", "tso", "cpp-ra", "power", "power-as-arm", "arm", "arm-llh")

# the model's own coherence check, which pruning skips candidates on
PRUNE_CHECK = "sc-per-location"

MODELS_DIR_VAR = "MEMCAT_MODELS_DIR"

# the shipped models and the fragments they include ("_" names)
BUNDLED_DIR = Path(__file__).resolve().parent


def models_dir() -> Path:
    override = os.environ.get(MODELS_DIR_VAR)
    if override:
        return Path(override)
    return BUNDLED_DIR


def available_models() -> list:
    """Model names in models_dir(); include-only fragments start with "_"."""
    return sorted(
        p.stem for p in models_dir().glob("*.cat") if not p.stem.startswith("_")
    )


def _drop_dynamic_ppo(model: Model) -> Model:
    # drop the execution-dependent ppo ingredients, keeping only what
    # is derivable from the program text
    return Model(
        tuple(
            Let(s.name, Empty(), s.pos)
            if isinstance(s, Let) and s.name in ("rdw", "detour")
            else s
            for s in model.statements
        )
    )


def _load(path: Path, static_ppo: bool) -> Model:
    # includes resolve against path's directory, then the bundled one
    model = parse_cat(path.read_text(), path, (BUNDLED_DIR,))
    return _drop_dynamic_ppo(model) if static_ppo else model


def load_builtin(name: str, static_ppo: bool = False) -> Model:
    """The model of name, one of available_models(): the stem of a .cat
    file in models_dir() that does not start with "_"."""
    path = models_dir() / f"{name}.cat"
    if not name or name[0] == "_" or Path(name).name != name or not path.exists():
        raise FileNotFoundError(
            f"no model {name!r} in {models_dir()} (available: {', '.join(available_models())})"
        )
    return _load(path, static_ppo)


def load_model(spec: str, static_ppo: bool = False) -> Model:
    """Resolve a builtin model name or a path to a .cat file."""
    path = Path(spec)
    if path.suffix == ".cat" and path.is_file():
        return _load(path, static_ppo)
    return load_builtin(spec, static_ppo)


def golden_table() -> dict:
    return json.loads((BUNDLED_DIR / "golden.json").read_text())


class TestResult(Record):
    """verdict: "allowed" | "forbidden"; witness: a Candidate hitting the final, if any;
    states: observed over model-passing candidates; check_failures: check name -> count."""

    __slots__ = ("name", "model", "verdict", "candidates", "passing", "satisfying", "witness",
                 "states", "check_failures")

    def __init__(self, name: str, model: str, verdict: str, candidates: int, passing: int,
                 satisfying: int, witness: Optional[object] = None, states: tuple = (),
                 check_failures: Optional[dict] = None):
        self.name, self.model, self.verdict = name, model, verdict
        self.candidates, self.passing, self.satisfying = candidates, passing, satisfying
        self.witness, self.states = witness, states
        self.check_failures = {} if check_failures is None else check_failures


def evaluate_test(
    t: ProjectedTest,
    model: Model,
    model_name: str = "?",
    prune: bool = False,
) -> TestResult:
    """Judge every candidate of t by model.

    With prune, a candidate that fails the model's own PRUNE_CHECK counts
    among the candidates and is otherwise skipped, its failed checks
    included; it could never pass, so only those counts change.
    """
    if prune and not any(
        isinstance(s, Check) and s.name == PRUNE_CHECK for s in model.statements
    ):
        raise CatError(
            f"model {model_name} has no check named {PRUNE_CHECK!r} to prune on"
        )
    total = passing = satisfying = 0
    witness = None
    states = set()
    failures = Counter()  # check name -> candidates failing it
    judge, outcome, skip = bind(model, t), final_outcome(t), PRUNE_CHECK if prune else None
    for cand in enumerate_candidates(t):
        total += 1
        result = run_model(judge, cand)
        if not cand.j:  # the first of its chunk: count the chunk's failures
            failures.update(result.chunk.failures(skip))
        if not result.passed:
            continue
        passing += 1
        _, state, satisfied = outcome(cand)
        states.add(state)
        if satisfied:
            satisfying += 1
            if witness is None:
                witness = cand
    if t.final.quant == "forall":
        allowed = 0 < passing == satisfying
    else:  # exists and observed ask whether the final is reachable
        allowed = satisfying > 0
    return TestResult(
        t.name,
        model_name,
        "allowed" if allowed else "forbidden",
        total,
        passing,
        satisfying,
        witness,
        tuple(sorted(states)),
        failures,
    )


def verdict(t: ProjectedTest, model: Model) -> str:
    return evaluate_test(t, model).verdict
