"""Output checks behind `error_rate`.

A call fails when it exits with a code other than 0 or when any of its
jsonl records fails a check:

- run: the records cover exactly the inputs, with the jsonl schema; a
  bundled test's verdict matches golden.json and its expect block; a
  generated test's candidate count matches the generator's, and its `sc`
  and `tso` verdicts, passing counts and state sets match the independent
  oracles in tests/oracles.py;
- machine: every record has skipped false, equal true and equal state sets;
- cycles: every record has the schema and names one of the inputs;
- for the seeds with a recorded reference, every record equals the
  reference byte for byte (compared through a hash).
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RUN_KEYS = {"test", "model", "verdict", "expected", "ok", "candidates", "passing",
            "satisfying", "states", "checks"}
MACHINE_KEYS = {"test", "events", "skipped", "equal", "machine_behaviors",
                "axiomatic_behaviors", "machine_states", "axiomatic_states"}
CYCLE_KEYS = {"input", "name", "systematic", "classic", "axiom", "accesses"}

_EXPECT = re.compile(r"^expect\s*\{(.*?)\}", re.S | re.M)


@dataclass(frozen=True)
class Input:
    name: str  # the test or program name memcat reports
    path: Path
    text: str
    generated: bool
    candidates: int = 0  # generator's count, generated tests only
    events: int = 0


def record_hash(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()[:16]


def expect_block(text: str) -> dict:
    m = _EXPECT.search(text)
    if not m:
        return {}
    pairs = (e.split("=") for e in m.group(1).split(";") if "=" in e)
    return {k.strip(): v.strip() for k, v in pairs}


class Checker:
    def __init__(self, inputs: dict, reference: dict | None = None):
        """inputs: name -> Input; reference: call key -> [record hash]."""
        self.inputs = inputs
        self.reference = reference
        self.golden = json.loads((ROOT / "src/memcat/models/golden.json").read_text())
        self._oracle_cache: dict = {}

    def check(self, key: str, names: list, code, stdout: str) -> list:
        """Problems with one call's output; key is 'run:<model>', 'machine:<i>' or 'cycles:<i>'."""
        problems = [] if code == 0 else [f"{key}: exit code {code}"]
        lines = stdout.splitlines()
        try:
            records = [json.loads(line) for line in lines]
        except json.JSONDecodeError as exc:
            return problems + [f"{key}: output is not jsonl: {exc}"]
        if not all(isinstance(r, dict) for r in records):
            return problems + [f"{key}: a record is not a JSON object"]
        stage = key.split(":")[0]
        if stage == "run":
            problems += self._check_run(key.split(":", 1)[1], names, records)
        elif stage == "machine":
            problems += self._check_machine(names, records)
        else:
            problems += self._check_cycles(names, records)
        if self.reference is not None:
            want = self.reference.get(key)
            got = [record_hash(line) for line in lines]
            if want is None:
                problems.append(f"{key}: no reference recorded")
            elif got != want:
                bad = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                           min(len(got), len(want)))
                problems.append(f"{key}: record {bad} differs from the reference")
        return problems

    def _check_run(self, model, names, records):
        problems = []
        if sorted(r.get("test") for r in records) != sorted(names):
            return [f"run:{model}: records do not cover the inputs"]
        for r in records:
            where = f"run:{model}:{r['test']}"
            if set(r) != RUN_KEYS or r["model"] != model:
                problems.append(f"{where}: bad record schema")
                continue
            if r["verdict"] not in ("allowed", "forbidden") or r["ok"] is False:
                problems.append(f"{where}: verdict {r['verdict']} ok {r['ok']}")
            inp = self.inputs[r["test"]]
            expected = expect_block(inp.text).get(model)
            if r["expected"] != expected or (expected and r["verdict"] != expected):
                problems.append(f"{where}: expect block says {expected}")
            if inp.generated:
                if r["candidates"] != inp.candidates:
                    problems.append(f"{where}: {r['candidates']} candidates, "
                                    f"generator counted {inp.candidates}")
                if model in ("sc", "tso"):
                    want = self._oracle(inp, model)
                    got = (r["verdict"], r["passing"], r["states"])
                    if got != want:
                        problems.append(f"{where}: oracle gives {want[:2]}, got {got[:2]}")
            else:
                golden = self.golden.get(model, {}).get(r["test"])
                if golden is not None and r["verdict"] != golden:
                    problems.append(f"{where}: golden verdict is {golden}")
        return problems

    def _check_machine(self, names, records):
        if sorted(r.get("test") for r in records) != sorted(names):
            return ["machine: records do not cover the inputs"]
        problems = []
        for r in records:
            if (set(r) != MACHINE_KEYS or r["skipped"] is not False or r["equal"] is not True
                    or r["machine_states"] != r["axiomatic_states"]):
                problems.append(f"machine:{r['test']}: not checked or not equal")
            elif self.inputs[r["test"]].generated and r["events"] != self.inputs[r["test"]].events:
                problems.append(f"machine:{r['test']}: {r['events']} events")
        return problems

    def _check_cycles(self, names, records):
        allowed = set(names)
        return [f"cycles:{r.get('input')}: bad record" for r in records
                if set(r) != CYCLE_KEYS or r["input"] not in allowed]

    def _oracle(self, inp: Input, model: str):
        """(verdict, passing, states) of an exists-final test under the oracle."""
        key = (inp.name, model)
        if key not in self._oracle_cache:
            sys.path.insert(0, str(ROOT / "tests"))
            try:
                import oracles
            finally:
                sys.path.remove(str(ROOT / "tests"))
            from memcat.executions import enumerate_candidates, evaluate_final, observed_state
            from memcat.litmus import parse_litmus, project

            t = project(parse_litmus(inp.text))
            passing, satisfied, states = 0, False, set()
            for cand in enumerate_candidates(t):
                if model == "sc":
                    ok = oracles.sc_allowed(cand)
                else:
                    mfence = cand.fences.get("mfence")
                    ok = oracles.tso_allowed(cand, mfence.pairs() if mfence else [])
                if ok:
                    passing += 1
                    states.add("; ".join(observed_state(cand)))
                    satisfied = satisfied or evaluate_final(cand)
            verdict = "allowed" if satisfied else "forbidden"
            self._oracle_cache[key] = (verdict, passing, sorted(states))
        return self._oracle_cache[key]
