"""End-to-end checks of the command-line driver."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import memcat.cli
from memcat import cat, models, suite
from memcat.cli import main
from memcat.executions import enumerate_candidates
from memcat.models import models_dir

from test_litmus import COMPUTED_HUGE_INTEGERS, CORR_READER, HUGE_INTEGERS, REJECTED


def invoke(*args, env=None):
    try:
        runner = CliRunner(mix_stderr=False)
    except TypeError:  # removed in click 8.2; streams separate by default
        runner = CliRunner()
    return runner.invoke(main, list(args), env=env)


def stdout(result):
    try:
        return result.stdout
    except (AttributeError, ValueError):
        return result.output


def jsonl(result):
    return [json.loads(ln) for ln in stdout(result).splitlines() if ln.strip()]


def test_help_lists_subcommands():
    res = invoke("--help")
    assert res.exit_code == 0
    for sub in ("run", "compare", "machine", "cycles"):
        assert sub in res.output


@pytest.mark.parametrize(
    "args, code",
    [
        (("run", "mp", "-m", "sc", "--format", "jsonl", "sb"), 0),
        (("machine", "--bound", "0", "mp"), 2),
        (("run", "-m", "sc", "--max-candidates", "0", "mp"), 2),
        (("run", "-m", "sc", "--format", "xml", "mp"), 2),
        (("nonesuch", "mp"), 2),
        ((), 2),
        (("run", "--help"), 0),
    ],
    ids=["options-after-tests", "bound-0", "max-candidates-0", "format-xml",
         "unknown-subcommand", "bare", "run-help"],
)
def test_parsing(args, code):
    res = invoke(*args)
    assert res.exit_code == code, res.output
    assert "Traceback" not in res.output
    if "--help" in args:
        for option in ("-m", "--model", "--prune-sc-per-location", "--static-ppo",
                       "--max-candidates", "--format"):
            assert option in res.output
    elif code == 0:
        first = invoke("run", "-m", "sc", "--format", "jsonl", "mp", "sb")
        assert [r["test"] for r in jsonl(res)] == ["mp", "sb"]
        assert jsonl(res) == jsonl(first)


# the suite's records pass stdout's buffer, so printing them fails; mp's
# stay in it until memcat flushes
@pytest.mark.parametrize("inputs", [suite.names(), ["mp"]], ids=["suite", "mp"])
def test_closed_stdout_exits_1_without_traceback(inputs):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # a pipe's default
    env["PYTHONPATH"] = str(Path(memcat.cli.__file__).parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "memcat.cli", "cycles", "--format", "jsonl", *inputs],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # before the first write
    err = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode == 1, err
    assert "Traceback" not in err


def test_interrupt_exits_1_with_aborted(monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(memcat.cli, "_load_tests", interrupted)
    res = invoke("run", "-m", "sc", "mp")
    assert res.exit_code == 1
    assert "Aborted!" in (getattr(res, "stderr", "") or res.output)


def test_run_power_table_cites_failing_check():
    res = invoke("run", "-m", "power", "mp+lwsync+addr", "w+rwc+eieio+addr+sync")
    assert res.exit_code == 0, res.output
    assert "forbidden" in res.output
    assert "allowed" in res.output
    # the forbidden mp variant fails the observation check
    assert "observation" in res.output


def test_run_jsonl_schema_and_states():
    res = invoke(
        "run", "-m", "power", "--format", "jsonl", "mp+lwsync+addr", "mp"
    )
    assert res.exit_code == 0, res.output
    recs = jsonl(res)
    assert [r["test"] for r in recs] == ["mp", "mp+lwsync+addr"]  # sorted
    by = {r["test"]: r for r in recs}
    for r in recs:
        assert set(r) >= {
            "test",
            "model",
            "verdict",
            "expected",
            "ok",
            "candidates",
            "passing",
            "satisfying",
            "states",
            "checks",
        }
        assert r["model"] == "power"
    assert by["mp"]["verdict"] == "allowed"
    assert "T1:r2=1; T1:r3=0" in by["mp"]["states"]
    assert by["mp+lwsync+addr"]["verdict"] == "forbidden"
    assert "T1:r2=1; T1:r3=0" not in by["mp+lwsync+addr"]["states"]
    assert by["mp+lwsync+addr"]["checks"].get("observation", 0) > 0


def test_run_embedded_expect_gates_exit_code(tmp_path):
    src = (
        "{name} power\n\n"
        "init {{ x=0; y=0; rx=&x; ry=&y; r1=1; }}\n\n"
        "thread T0 {{\n  st [rx], r1\n  st [ry], r1\n}}\n\n"
        "thread T1 {{\n  ld r2, [ry]\n  ld r3, [rx]\n}}\n\n"
        "final exists (T1:r2=1 /\\ T1:r3=0)\n\n"
        "expect {{ power = {want}; }}\n"
    )
    good = tmp_path / "good.litmus"
    good.write_text(src.format(name="mp-good", want="allowed"))
    bad = tmp_path / "bad.litmus"
    bad.write_text(src.format(name="mp-bad", want="forbidden"))

    res = invoke("run", "-m", "power", "--format", "jsonl", str(good))
    assert res.exit_code == 0, res.output
    assert jsonl(res)[0]["ok"] is True

    res = invoke("run", "-m", "power", "--format", "jsonl", str(good), str(bad))
    assert res.exit_code == 1
    by = {r["test"]: r for r in jsonl(res)}
    assert by["mp-bad"]["ok"] is False
    assert by["mp-good"]["ok"] is True


def test_run_without_expectation_reports_null_ok():
    res = invoke("run", "-m", "power", "--format", "jsonl", "sb")
    assert res.exit_code == 0
    rec = jsonl(res)[0]
    assert rec["expected"] is None
    assert rec["ok"] is None


def test_run_unknown_model_is_usage_error():
    res = invoke("run", "-m", "nonesuch", "mp")
    assert res.exit_code == 2
    err = getattr(res, "stderr", "") or res.output
    assert "nonesuch" in err


def test_run_unknown_test_is_usage_error():
    res = invoke("run", "-m", "power", "no-such-test")
    assert res.exit_code == 2


def test_run_malformed_litmus_is_parse_error(tmp_path):
    f = tmp_path / "broken.litmus"
    f.write_text("broken power\n\nthread T0 {\n  st [zz\n}\n\nfinal exists (x=1)\n")
    res = invoke("run", "-m", "power", str(f))
    assert res.exit_code == 2
    err = getattr(res, "stderr", "") or res.output
    assert "broken" in err


def test_run_flag_variants_keep_verdict():
    base = invoke("run", "-m", "power", "--format", "jsonl", "mp+lwsync+addr")
    pruned = invoke(
        "run", "-m", "power", "--format", "jsonl",
        "--prune-sc-per-location", "mp+lwsync+addr",
    )
    static = invoke(
        "run", "-m", "power", "--format", "jsonl", "--static-ppo",
        "mp+lwsync+addr",
    )
    b, p, s = jsonl(base)[0], jsonl(pruned)[0], jsonl(static)[0]
    assert b["verdict"] == p["verdict"] == s["verdict"] == "forbidden"
    assert b["candidates"] == p["candidates"]
    assert b["passing"] == p["passing"]


@pytest.mark.parametrize("src, line", REJECTED)
def test_text_outside_any_litmus_section_is_usage_error(tmp_path, src, line):
    f = tmp_path / "bad.litmus"
    f.write_text(src)
    res = invoke("run", "-m", "sc", str(f))
    assert res.exit_code == 2
    err = getattr(res, "stderr", "") or res.output
    assert f"line {line}: " in err
    assert "Traceback" not in err


def test_integer_past_the_digit_limit_is_usage_error(tmp_path):
    f = tmp_path / "big.litmus"
    f.write_text(HUGE_INTEGERS[0].values[0])
    res = invoke("run", "-m", "sc", str(f))
    assert res.exit_code == 2
    err = getattr(res, "stderr", "") or res.output
    assert "line 3: integer of 5000 characters is too long" in err
    assert "Traceback" not in err


def test_value_computed_past_the_digit_limit_is_usage_error(tmp_path):
    f = tmp_path / "big.litmus"
    f.write_text(COMPUTED_HUGE_INTEGERS[0].values[0])
    res = invoke("run", "-m", "sc", str(f))
    assert res.exit_code == 2
    err = getattr(res, "stderr", "") or res.output
    assert "line 4: T0: value of r2 is too long" in err
    assert "Traceback" not in err


def test_machine_refuses_a_thread_named_init(tmp_path):
    # the machine takes thread init's events for initial writes, so coRR with
    # its reader renamed once parted the machine (2 behaviors) from Power (3)
    f = tmp_path / "corr-init.litmus"
    f.write_text(CORR_READER)
    res = invoke("machine", "--format", "jsonl", str(f))
    assert res.exit_code == 2
    err = getattr(res, "stderr", "") or res.output
    assert "line 5: a thread may not be named init" in err
    assert "Traceback" not in err


def test_prune_follows_the_models_own_sc_per_location_check():
    # arm-llh's sc-per-location drops read-read pairs, so coRR passes it
    base = invoke("run", "-m", "arm-llh", "--format", "jsonl", "coRR")
    pruned = invoke(
        "run", "-m", "arm-llh", "--format", "jsonl", "--prune-sc-per-location", "coRR"
    )
    assert jsonl(pruned) == jsonl(base)
    assert jsonl(base)[0]["verdict"] == "allowed"


def test_prune_without_sc_per_location_check_is_usage_error(tmp_path):
    f = tmp_path / "coherence.cat"
    f.write_text("(* coherence *)\nacyclic po-loc | rf | co | fr\n")
    res = invoke("run", "-m", str(f), "--prune-sc-per-location", "mp")
    assert res.exit_code == 2
    err = getattr(res, "stderr", "") or res.output
    assert "no check named 'sc-per-location'" in err
    assert "Traceback" not in err


def test_run_model_from_file_and_models_dir_override(tmp_path):
    (tmp_path / "mypower.cat").write_text(
        (models_dir() / "power.cat").read_text()
    )
    res = invoke(
        "run", "-m", str(tmp_path / "mypower.cat"), "--format", "jsonl", "mp"
    )
    assert res.exit_code == 0, res.output
    rec = jsonl(res)[0]
    assert rec["model"] == "mypower"
    assert rec["verdict"] == "allowed"

    env = {"MEMCAT_MODELS_DIR": str(tmp_path)}
    res = invoke("run", "-m", "mypower", "--format", "jsonl", "mp", env=env)
    assert res.exit_code == 0, res.output
    assert jsonl(res)[0]["verdict"] == "allowed"
    res = invoke("run", "-m", "power", "mp", env=env)
    assert res.exit_code == 2  # override dir has no power.cat
    res = invoke("machine", "mp", env=env)
    assert res.exit_code == 2
    err = getattr(res, "stderr", "") or res.output
    assert "no model 'power'" in err
    # a power.cat that fails to evaluate, or lacks what the machine reads
    for body, want in (
        ("let x = pox\nacyclic x\n", "power.cat:1:1: unbound name 'pox'"),
        ("acyclic po\n", "power model binds no ppo, fence, prop, hb\n"),
    ):
        (tmp_path / "power.cat").write_text(body)
        res = invoke("machine", "mp", env=env)
        assert res.exit_code == 2, body
        err = getattr(res, "stderr", "") or res.output
        assert want in err
        assert "Traceback" not in err


def test_run_fragment_name_is_not_a_model():
    res = invoke("run", "-m", "_axioms", "mp")
    assert res.exit_code == 2
    err = getattr(res, "stderr", "") or res.output
    assert "_axioms" not in err.split("available:")[1]


@pytest.mark.parametrize(
    "files, want",
    [
        ({"top.cat": 'include "nope.cat"\n'}, "top.cat:1:9: cannot find include"),
        (
            {"top.cat": 'include "a.cat"\n', "a.cat": 'include "top.cat"\n'},
            "a.cat:1:9: include cycle",
        ),
        (
            {"top.cat": 'include "a.cat"\n', "a.cat": "acyclic po |\n"},
            "a.cat:2:1: unexpected end of input",
        ),
    ],
    ids=["missing", "cycle", "parse-error-inside"],
)
def test_include_errors_are_usage_errors(tmp_path, files, want):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    res = invoke("run", "-m", str(tmp_path / "top.cat"), "mp")
    assert res.exit_code == 2
    err = getattr(res, "stderr", "") or res.output
    assert want in err


def test_compare_reports_divergence():
    res = invoke(
        "compare", "-a", "power-as-arm", "-b", "arm", "--format", "jsonl",
        "mp+dmb+fri-rfi-ctrlisb",
    )
    assert res.exit_code == 1
    rec = jsonl(res)[0]
    assert rec["diverges"] is True
    assert rec["verdict_a"] == "forbidden"
    assert rec["verdict_b"] == "allowed"
    assert rec["checks_a"]  # the stricter side cites its failing checks


def test_compare_same_model_is_empty():
    res = invoke("compare", "-a", "power", "-b", "power", "mp", "sb")
    assert res.exit_code == 0, res.output
    assert "no divergences" in res.output
    res = invoke(
        "compare", "-a", "power", "-b", "power", "--format", "jsonl", "mp", "sb"
    )
    assert res.exit_code == 0
    assert all(r["diverges"] is False for r in jsonl(res))


def test_compare_read_read_coherence_split():
    res = invoke("compare", "-a", "arm", "-b", "arm-llh", "--format", "jsonl", "coRR")
    assert res.exit_code == 1
    recs = [r for r in jsonl(res) if r["diverges"]]
    assert len(recs) == 1
    assert recs[0]["verdict_a"] == "forbidden"
    assert recs[0]["verdict_b"] == "allowed"


def test_machine_equivalence_pass_and_bound_skip():
    res = invoke("machine", "--bound", "8", "--format", "jsonl", "sb", "isa2")
    assert res.exit_code == 0, res.output
    by = {r["test"]: r for r in jsonl(res)}
    assert by["sb"]["skipped"] is False
    assert by["sb"]["equal"] is True
    # the relaxed outcome shows up on both sides
    assert "T0:r2=0; T1:r3=0" in by["sb"]["machine_states"]
    assert "T0:r2=0; T1:r3=0" in by["sb"]["axiomatic_states"]
    assert by["isa2"]["skipped"] is True
    err = getattr(res, "stderr", "") or res.output
    assert "isa2" in err


def test_machine_matches_power_on_a_test_of_several_chunks():
    # 600 candidates: the only input whose candidates span several chunks
    res = invoke("machine", "--format", "jsonl", str(Path(__file__).parent / "chunked.litmus"))
    assert res.exit_code == 0, res.output
    (rec,) = jsonl(res)
    assert rec["skipped"] is False and rec["equal"] is True


def test_machine_bound_flag_shrinks_budget():
    res = invoke("machine", "--bound", "5", "--format", "jsonl", "mp")
    assert res.exit_code == 0
    rec = jsonl(res)[0]
    assert rec["skipped"] is True
    assert rec["events"] == 6


def test_machine_trace_dump():
    res = invoke("machine", "--trace", "mp")
    assert res.exit_code == 0, res.output
    assert "trace mp" in res.output
    lines = [ln for ln in res.output.splitlines() if "accepted" in ln]
    assert len(lines) == 8  # two labels per program event
    assert any("s(" in ln for ln in lines)
    assert "blocked" not in res.output


def test_cycles_bundled_name_table():
    res = invoke("cycles", "mp")
    assert res.exit_code == 0, res.output
    assert "observation" in res.output
    assert "frequency" in res.output


def test_cycles_jsonl_records():
    res = invoke("cycles", "--format", "jsonl", "mp", "ww+rw+r")
    assert res.exit_code == 0, res.output
    recs = jsonl(res)
    mp = [r for r in recs if r["input"] == "mp"]
    assert len(mp) == 1
    assert mp[0]["name"] == "mp"
    assert mp[0]["axiom"] == "observation"
    named = {r["name"] for r in recs if r["input"] == "ww+rw+r"}
    assert named == {"s"}


def test_cycles_litmus_fallback_for_coherence_shape():
    res = invoke("cycles", "--format", "jsonl", "coWW")
    assert res.exit_code == 0, res.output
    recs = jsonl(res)
    assert recs[0]["name"] == "coWW"
    assert recs[0]["axiom"] == "sc-per-location"


def test_cycles_parse_error_continues_but_exits_nonzero(tmp_path):
    bad = tmp_path / "bad.thr"
    bad.write_text("T0 Wx\n")
    res = invoke("cycles", str(bad), "mp")
    assert res.exit_code == 2
    assert "observation" in res.output  # the good input still mined
    err = getattr(res, "stderr", "") or res.output
    assert "bad.thr" in err


def test_cycles_straight_line_has_none(tmp_path):
    f = tmp_path / "line.thr"
    f.write_text("T0: Wx Wy\n")
    res = invoke("cycles", str(f))
    assert res.exit_code == 0
    assert "no cycles" in res.output
    res = invoke("cycles", "--format", "jsonl", str(f))
    assert jsonl(res) == []


@pytest.mark.parametrize(
    "name, args",
    [
        ("bad.litmus", ("run", "-m", "power", "{}")),
        ("bad.thr", ("cycles", "{}")),
        ("bad.cat", ("run", "-m", "{}", "mp")),
    ],
)
def test_unreadable_input_is_usage_error(tmp_path, name, args):
    f = tmp_path / name
    f.write_bytes(b"\xff")
    res = invoke(*(a.format(f) for a in args))
    assert res.exit_code == 2
    err = getattr(res, "stderr", "") or res.output
    assert name in err


@pytest.mark.parametrize(
    "body, where",
    [
        ("let x = pox\n", "broken.cat:1:1: unbound name 'pox'"),
        ("let x = po\nlet x = rf\n", "broken.cat:2:1: name 'x' is already bound"),
        # one fragment reached through two others binds x twice
        ('include "_a.cat"\ninclude "_b.cat"\n', "_x.cat:2:1: name 'x' is already bound"),
    ],
    ids=["unbound", "rebound", "fragment-included-twice"],
)
def test_model_evaluation_error_is_usage_error(tmp_path, body, where):
    (tmp_path / "_a.cat").write_text('include "_x.cat"\n')
    (tmp_path / "_b.cat").write_text('include "_x.cat"\n')
    (tmp_path / "_x.cat").write_text("(* x *)\nlet x = po\n")
    f = tmp_path / "broken.cat"
    f.write_text(body + "acyclic x\n")
    for args in (
        ("run", "-m", str(f), "mp"),
        ("compare", "-a", "power", "-b", str(f), "mp"),
    ):
        res = invoke(*args)
        assert res.exit_code == 2, args
        err = getattr(res, "stderr", "") or res.output
        assert where in err


@pytest.mark.parametrize(
    "check",
    ["(" * 400 + "po" + ")" * 400, " | ".join(["po"] * 3000)],
    ids=["nested-parentheses", "long-union"],
)
def test_deeply_nested_model_is_usage_error(tmp_path, check):
    # the first overflows the parser, the second the evaluator
    f = tmp_path / "deep.cat"
    f.write_text(f"acyclic {check}\n")
    res = invoke("run", "-m", str(f), "mp")
    assert res.exit_code == 2
    err = getattr(res, "stderr", "") or res.output
    assert "deep.cat" in err
    assert "nested too deeply" in err


def test_machine_matches_power_on_whole_suite_at_bound_10():
    res = invoke("machine", "--bound", "10", "--format", "jsonl", *suite.names())
    assert res.exit_code == 0, res.output
    recs = jsonl(res)
    assert len(recs) == len(suite.names())
    for r in recs:
        assert r["skipped"] is False and r["equal"] is True, r["test"]
    # the default budget is 10 events, so it cross-checks the whole suite too
    default = invoke("machine", "--format", "jsonl", *suite.names())
    assert default.exit_code == 0, default.output
    assert jsonl(default) == recs


@pytest.mark.parametrize("bound", ["10", "8"])
def test_machine_trace_records_match_snapshot(bound):
    # recorded before the machine's label search became a topological
    # sort; frozen, it pins verdicts, behavior sets, skips and witness order
    snapshot = json.loads(
        Path(__file__).with_name("machine_snapshot.json").read_text()
    )
    res = invoke(
        "machine", "--bound", bound, "--trace", "--format", "jsonl", *suite.names()
    )
    assert res.exit_code == 0, res.output
    assert jsonl(res) == snapshot[bound]


def test_cycles_records_match_snapshot():
    # every bundled test and both .thr shapes; the name mp is the .thr shape,
    # so the litmus mp goes by its path.  Frozen: the projection and the
    # miner are the only inputs of these records
    snapshot = json.loads(Path(__file__).with_name("cycles_snapshot.json").read_text())
    res = invoke(
        "cycles", "--format", "jsonl", *suite.names(), "ww+rw+r",
        str(suite.suite_dir() / "mp.litmus"),
    )
    assert res.exit_code == 0, res.output
    assert jsonl(res) == snapshot


def test_machine_evaluates_power_once_per_candidate(monkeypatch):
    calls = {"run_model": 0, "parse_cat": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cat, "run_model", counted("run_model", cat.run_model))
    monkeypatch.setattr(models, "parse_cat", counted("parse_cat", models.parse_cat))
    res = invoke("machine", "--format", "jsonl", "mp")
    assert res.exit_code == 0, res.output
    assert calls == {
        "run_model": sum(1 for _ in enumerate_candidates(suite.load("mp"))),
        "parse_cat": 1,
    }


# four threads each writing x and y and reading x: (4!)^2 orders of the
# program writes times 5^4 rf choices is 360,000 candidates
WIDE_WRITES = "\n".join(
    ["wide power", "init { x=0; y=0; rx=&x; ry=&y; r1=1; }"]
    + [f"thread T{i} {{\n  st [rx], r1\n  st [ry], r1\n  ld r2, [rx]\n}}" for i in range(4)]
    + ["final exists (T0:r2=0)"]
)


def test_max_candidates_bounds_run_and_compare(tmp_path):
    chunked = str(Path(__file__).parent / "chunked.litmus")
    for args in (("run", "-m", "sc"), ("compare", "-a", "sc", "-b", "tso")):
        res = invoke(*args, "--max-candidates", "599", chunked)
        assert res.exit_code == 2, res.output
        err = getattr(res, "stderr", "") or res.output
        assert "chunked: 600 candidates exceed --max-candidates 599" in err
        assert stdout(res) == ""
        assert invoke(*args, "--max-candidates", "600", "--format", "jsonl", chunked).exit_code == 0
    # counted, not enumerated: the default bound turns this down at once
    path = tmp_path / "wide.litmus"
    path.write_text(WIDE_WRITES)
    res = invoke("run", "-m", "sc", str(path))
    assert res.exit_code == 2
    assert "wide: 360000 candidates exceed --max-candidates 100000" in (
        getattr(res, "stderr", "") or res.output)
