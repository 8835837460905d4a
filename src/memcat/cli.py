"""Batch driver tying the library together.

Four subcommands: run a model over litmus tests, compare two models,
cross-check the operational machine, and mine static critical cycles.
Reports come out as a table or as json-lines; the table is rendered
from the same records the jsonl mode prints, so the two views never
disagree.  Exit codes are a CI contract: 0 all pass, 1 a verdict
mismatch or divergence, 2 usage, parse, unreadable-file or model
evaluation errors.

The front end is argparse: one parser per subcommand, built once at
import, whose options may also follow the test names.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from pathlib import Path

from . import suite
from .cat import CatError
from .cycles import ThrError, frequency, mine, parse_thr, program_from_litmus
# enumerate_* and model_behaviors are unused: perfbench/spans.py wraps them here
from .executions import MAX_CANDIDATES, count_candidates, enumerate_candidates  # noqa: F401
from .litmus import LitmusError, parse_litmus, project
from .machine import (  # noqa: F401
    DEFAULT_BOUND,
    BoundError,
    WitnessCycleError,
    cross_check,
    enumerate_accepted,
    model_behaviors,
    trace_lines,
    witness_path,
)
from .models import evaluate_test, load_model


class UsageError(Exception):
    """A usage, parse, unreadable-file or model evaluation error: exit 2,
    reported by the subcommand's parser."""


def _model_label(spec: str) -> str:
    return Path(spec).stem if spec.endswith(".cat") else spec


def _load_model(spec: str, static_ppo: bool = False):
    try:
        return load_model(spec, static_ppo)
    except (OSError, CatError) as exc:
        raise UsageError(str(exc))
    except UnicodeDecodeError as exc:
        raise UsageError(f"{spec}: {exc}")


def _expand(args):
    out = []
    for arg in args:
        hits = sorted(glob.glob(arg))
        out.extend(hits if hits else [arg])
    return out


def _load_tests(args):
    tests = []
    for arg in _expand(args):
        path = Path(arg)
        try:
            if path.is_file():
                tests.append(project(parse_litmus(path.read_text())))
            elif arg in suite.names():
                tests.append(suite.load(arg))
            else:
                raise UsageError(f"{arg}: not a file or bundled test")
        except (LitmusError, OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"{arg}: {exc}")
    return tests


def _bounded(tests, limit):
    for t in tests:
        if (count := count_candidates(t)) > limit:
            raise UsageError(f"{t.name}: {count} candidates exceed --max-candidates {limit}")
    return tests


def _evaluate(t, model, spec, **kw):
    try:
        return evaluate_test(t, model, _model_label(spec), **kw)
    except CatError as exc:  # names the failing statement's file:line:col
        raise UsageError(str(exc))


def _table(headers, rows) -> str:
    cells = [list(headers)] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(cells[0], widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


_JSON = json.JSONEncoder(sort_keys=True)


def _emit_jsonl(records):
    if records:
        print("\n".join(map(_JSON.encode, records)))


def _checks_cell(checks: dict) -> str:
    return " ".join(f"{k}:{v}" for k, v in sorted(checks.items())) or "-"


def _at_least_1(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a valid integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not in the range x>=1")
    return value


_PARSER = argparse.ArgumentParser(
    prog="memcat", description="Weak-memory workbench: axiomatic models over litmus executions."
)
_SUBPARSERS = _PARSER.add_subparsers(title="commands", metavar="COMMAND", required=True)
_COMMANDS = {}  # subcommand name -> its parser


def _option(*flags, **kw):
    return flags, kw


_FORMAT = _option(
    "--format", dest="fmt", choices=("table", "jsonl"), default="table",
    help="report style (default: %(default)s)",
)
_MAX_CANDIDATES = _option(
    "--max-candidates", type=_at_least_1, default=MAX_CANDIDATES,
    help="max candidate executions per test; a test with more is a usage error "
    "(default: %(default)s)",
)


def _command(*options, inputs="tests"):
    """Make the decorated function the subcommand of its name, taking
    options, each an _option, then one or more inputs."""

    def register(fn):
        sub = _SUBPARSERS.add_parser(
            fn.__name__, help=fn.__doc__.partition("\n")[0], description=fn.__doc__,
            allow_abbrev=False,
        )
        for flags, kw in options:
            sub.add_argument(*flags, **kw)
        sub.add_argument(inputs, nargs="+", metavar=inputs[:-1].upper())
        sub.set_defaults(command=fn)
        # parse_intermixed_args formats the usage on every call unless it is set
        sub.usage = sub.format_usage().removeprefix("usage: ")
        _COMMANDS[fn.__name__] = sub
        return fn

    return register


@_command(
    _option("-m", "--model", dest="model_spec", metavar="MODEL", required=True,
            help="builtin model name or .cat file"),
    _option("--prune-sc-per-location", dest="prune", action="store_true",
            help="skip candidates that fail the model's own sc-per-location check"),
    _option("--static-ppo", action="store_true",
            help="drop execution-dependent ppo ingredients (rdw, detour)"),
    _MAX_CANDIDATES,
    _FORMAT,
)
def run(model_spec, prune, static_ppo, max_candidates, fmt, tests):
    """Evaluate one model over litmus tests."""
    model = _load_model(model_spec, static_ppo)
    label = _model_label(model_spec)
    loaded = _bounded(_load_tests(tests), max_candidates)

    def work(t):
        r = _evaluate(t, model, model_spec, prune=prune)
        expected = t.expect.get(label)
        return {
            "test": r.name,
            "model": label,
            "verdict": r.verdict,
            "expected": expected,
            "ok": None if expected is None else r.verdict == expected,
            "candidates": r.candidates,
            "passing": r.passing,
            "satisfying": r.satisfying,
            "states": list(r.states),
            "checks": r.check_failures,
        }

    records = sorted(map(work, loaded), key=lambda r: r["test"])
    if fmt == "jsonl":
        _emit_jsonl(records)
    else:
        ok_cell = {True: "yes", False: "NO", None: "-"}
        rows = [[r["test"], r["verdict"], r["expected"] or "-", ok_cell[r["ok"]], r["candidates"],
                 r["passing"], r["satisfying"], _checks_cell(r["checks"]),
                 " | ".join(r["states"]) or "-"] for r in records]
        headers = ("test", "verdict", "expected", "ok", "cands", "passing", "satisfying",
                   "failed-checks", "states")
        print(_table(headers, rows))
    if any(r["ok"] is False for r in records):
        sys.exit(1)


@_command(
    _option("-a", dest="spec_a", metavar="MODEL", required=True, help="first model"),
    _option("-b", dest="spec_b", metavar="MODEL", required=True, help="second model"),
    _MAX_CANDIDATES,
    _FORMAT,
)
def compare(spec_a, spec_b, max_candidates, fmt, tests):
    """Diff two models' verdicts and allowed states."""
    model_a = _load_model(spec_a)
    model_b = _load_model(spec_b)
    label_a, label_b = _model_label(spec_a), _model_label(spec_b)
    loaded = _bounded(_load_tests(tests), max_candidates)

    def work(t):
        ra = _evaluate(t, model_a, spec_a)
        rb = _evaluate(t, model_b, spec_b)
        return {
            "test": t.name,
            "model_a": label_a,
            "model_b": label_b,
            "verdict_a": ra.verdict,
            "verdict_b": rb.verdict,
            "states_a": list(ra.states),
            "states_b": list(rb.states),
            "checks_a": ra.check_failures,
            "checks_b": rb.check_failures,
            "diverges": ra.verdict != rb.verdict or ra.states != rb.states,
        }

    records = sorted(map(work, loaded), key=lambda r: r["test"])
    if fmt == "jsonl":
        _emit_jsonl(records)
    else:
        divergent = [r for r in records if r["diverges"]]
        if not divergent:
            print(f"no divergences between {label_a} and {label_b}")
        else:
            print(f"a = {label_a}, b = {label_b}")
            rows = [[r["test"], r["verdict_a"], r["verdict_b"], _checks_cell(r["checks_a"]),
                     _checks_cell(r["checks_b"])] for r in divergent]
            print(_table(("test", "a", "b", "a-failed-checks", "b-failed-checks"), rows))
    if any(r["diverges"] for r in records):
        sys.exit(1)


@_command(
    _option("--bound", type=_at_least_1, default=DEFAULT_BOUND,
            help="max memory events (incl. init) for exhaustive machine runs "
            "(default: %(default)s)"),
    _option("--trace", action="store_true", help="dump one annotated machine replay per test"),
    _FORMAT,
)
def machine(bound, trace, fmt, tests):
    """Cross-check the operational machine against axiomatic Power."""
    power = _load_model("power")
    loaded = _load_tests(tests)

    def work(t):
        base = {"test": t.name, "events": len(t.events)}
        try:
            accepted, axiomatic, first = cross_check(t, power, bound)
        except BoundError as exc:
            return {**base, "skipped": True, "warning": str(exc)}
        except CatError as exc:  # an unbound name, or no ppo/fence/prop/hb
            raise UsageError(str(exc))
        rec = {
            **base,
            "skipped": False,
            "equal": accepted == axiomatic,
            "machine_behaviors": len(accepted),
            "axiomatic_behaviors": len(axiomatic),
            "machine_states": sorted({s for _, s in accepted}),
            "axiomatic_states": sorted({s for _, s in axiomatic}),
        }
        if trace:
            try:
                rec["trace"] = trace_lines(first, witness_path(first)) if first else []
            except WitnessCycleError as exc:
                rec["trace"] = [f"no single-path witness: {exc}"]
        return rec

    records = sorted(map(work, loaded), key=lambda r: r["test"])
    for rec in records:
        if rec.get("warning"):
            print(f"warning: skipped {rec['warning']}", file=sys.stderr)
    if fmt == "jsonl":
        _emit_jsonl(records)
    else:
        rows = [[r["test"], r["events"], "skipped", "-", "-"] if r["skipped"] else
                [r["test"], r["events"], "PASS" if r["equal"] else "FAIL",
                 r["machine_behaviors"], r["axiomatic_behaviors"]] for r in records]
        print(_table(("test", "events", "status", "machine", "axiomatic"), rows))
        for r in records:
            if r.get("trace") is not None:
                print()
                print(f"trace {r['test']}")
                for line in r["trace"]:
                    print(f"  {line}")
    if any(r.get("equal") is False for r in records):
        sys.exit(1)


def _load_program(arg: str):
    path = Path(arg)
    if path.is_file():
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(str(exc))
        if path.suffix == ".litmus":
            return program_from_litmus(project(parse_litmus(text)))
        return parse_thr(text, name=path.stem)
    if arg in suite.thr_names():
        return parse_thr(suite.thr_source(arg), name=arg)
    if arg in suite.names():
        return program_from_litmus(suite.load(arg))
    raise UsageError(f"{arg}: not a file or bundled program")


@_command(_FORMAT, inputs="inputs")
def cycles(fmt, inputs):
    """Mine critical cycles and coherence shapes from thread programs.

    Each input is a file (.litmus, else .thr), else a bundled .thr shape,
    else a bundled test: `cycles mp` mines mp.thr, so the bundled
    mp.litmus has to be given by its path."""
    records = []
    errors = 0
    for arg in _expand(inputs):
        try:
            program = _load_program(arg)
        except (ThrError, LitmusError, OSError, UsageError) as exc:
            print(f"error: {arg}: {exc}", file=sys.stderr)
            errors += 1
            continue
        records.extend(mine(program))
    records.sort(key=lambda r: r["input"])
    if fmt == "jsonl":
        _emit_jsonl(records)
    elif records:
        rows = [
            [r["input"], r["name"], r["systematic"], r["classic"] or "-", r["axiom"]]
            for r in records
        ]
        print(_table(("input", "name", "systematic", "classic", "axiom"), rows))
        print()
        print("frequency")
        print(_table(("name", "count"), frequency(records)))
    else:
        print("no cycles")
    if errors:
        sys.exit(2)


def _call(argv):
    sub = _COMMANDS.get(argv[0]) if argv else None
    opts = vars(sub.parse_intermixed_args(argv[1:]) if sub else _PARSER.parse_args(argv))
    command = opts.pop("command")
    try:
        command(**opts)
    except UsageError as exc:
        _COMMANDS[command.__name__].error(str(exc))


def main(args=None, prog_name=None):
    """Run `memcat <args>`, sys.argv[1:] by default; any exit code but 0
    ends it in SystemExit.  prog_name is taken for click's calling
    convention and unused: usage always names memcat."""
    try:
        try:
            _call(sys.argv[1:] if args is None else list(args))
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader is gone: exit 1, and give the flush at exit nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        sys.exit(1)


# the entry forms of click's callers: CliRunner reads main.name and calls
# main.main(args=..., prog_name=...), as the benchmark's fork server does
main.name, main.main = "memcat", main


if __name__ == "__main__":
    main()
