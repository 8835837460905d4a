"""Self-tests of the benchmark: python3 -m pytest perfbench/selftest.py

They cover the generator, the output checker and a minimal run of each
workload.  The file is not named test_*.py, so the repository's own test
run does not collect it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calib  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from checker import Checker, Input, record_hash  # noqa: E402
from click.testing import CliRunner  # noqa: E402
from memcat.cli import main as memcat_main  # noqa: E402
from memcat.executions import enumerate_candidates  # noqa: E402
from memcat.litmus import parse_litmus, project  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = HERE / "_work" / "selftest"


@pytest.fixture(scope="module")
def work():
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    return WORK


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_deterministic(workload):
    assert gen.generate(workload, 7) == gen.generate(workload, 7)
    assert gen.generate(workload, 7) != gen.generate(workload, 8)


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_count_matches_memcat(workload):
    for _, text, candidates, events in gen.generate(workload, 3):
        t = project(parse_litmus(text))
        assert len(t.events) == events
        assert sum(1 for _ in enumerate_candidates(t)) == candidates


def test_generator_mine_only_programs_are_distinct_and_deterministic():
    extra = gen.generate("wide", 7, mine_only=True)
    assert extra == gen.generate("wide", 7, mine_only=True)
    assert len(extra) == len(gen.WORKLOADS["wide"].mine_slots)
    assert not {f for f, *_ in extra} & {f for f, *_ in gen.generate("wide", 7)}


def test_calibration_kernel_is_fixed_work():
    assert calib.kernel() == calib.kernel() == 7567
    assert calib.measure(1) > 0


@pytest.mark.parametrize("workload", sorted(run.STAGES))
def test_plan_splits_each_stage_over_its_calls(workload, work):
    calls, everything, _, _ = run.plan(workload, 5, work)
    keys = [key for key, _, _ in calls]
    assert len(keys) == len(set(keys)) == len(run.MODELS) + sum(run.CHUNKS.values())
    for stage, chunks in run.CHUNKS.items():
        paths = [a for key, argv, _ in calls if key.split(":")[0] == stage
                 for a in argv if a.endswith((".litmus", ".thr"))]
        assert len(paths) == len(set(paths))
        assert len([k for k in keys if k.startswith(stage + ":")]) == chunks
    assert all(n in everything for _, _, ns in calls for n in ns)


def _inputs(work, workload, seed):
    out = {}
    for fname, text, cands, events in gen.generate(workload, seed):
        path = work / fname
        path.write_text(text)
        out[path.stem] = Input(path.stem, path, text, True, cands, events)
    return out


def _cli(args):
    result = CliRunner().invoke(memcat_main, args)
    return result.exit_code, result.output


def test_checker_passes_real_output_and_flags_altered_copies(work):
    inputs = dict(list(_inputs(work, "xcheck", 1).items())[:3])
    names = list(inputs)
    paths = [str(i.path) for i in inputs.values()]
    code, out = _cli(["run", "-m", "sc", "--format", "jsonl", *paths])
    checker = Checker(inputs)
    assert checker.check("run:sc", names, code, out) == []

    records = [json.loads(line) for line in out.splitlines()]

    def altered(i, **change):
        copy = [dict(r) for r in records]
        copy[i].update(change)
        return "\n".join(json.dumps(r, sort_keys=True) for r in copy) + "\n"

    flip = {"allowed": "forbidden", "forbidden": "allowed"}[records[0]["verdict"]]
    assert checker.check("run:sc", names, code, altered(0, verdict=flip))
    assert checker.check("run:sc", names, code, altered(1, states=[]))
    assert checker.check("run:sc", names, code, altered(2, candidates=1))
    assert checker.check("run:sc", names, 1, out)
    assert checker.check("run:sc", names[:-1], code, out)

    # only the reference catches a field the other checks do not read
    reference = {"run:sc": [record_hash(line) for line in out.splitlines()]}
    subtle = altered(0, satisfying=records[0]["satisfying"] + 1)
    assert checker.check("run:sc", names, code, subtle) == []
    assert Checker(inputs, reference).check("run:sc", names, code, out) == []
    assert Checker(inputs, reference).check("run:sc", names, code, subtle)

    code, out = _cli(["machine", "--bound", "10", "--format", "jsonl", *paths])
    assert checker.check("machine", names, code, out) == []
    machine = [json.loads(line) for line in out.splitlines()]
    machine[0]["equal"] = False
    bad = "\n".join(json.dumps(r, sort_keys=True) for r in machine) + "\n"
    assert checker.check("machine", names, code, bad)


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload,trace", [("suite", 0), ("suite", 1), ("wide", 0), ("xcheck", 0)])
def test_smoke_run(workload, trace):
    proc = _bench(["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 9
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_refuses_a_directory_without_memcat(work):
    bare = work / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _bench(["--workload", "suite", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
