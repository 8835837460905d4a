"""Batch driver tying the library together.

Four subcommands: run a model over litmus tests, compare two models,
cross-check the operational machine, and mine static critical cycles.
Reports come out as a table or as json-lines; the table is rendered
from the same records the jsonl mode prints, so the two views never
disagree.  Exit codes are a CI contract: 0 all pass, 1 a verdict
mismatch or divergence, 2 usage, parse, unreadable-file or model
evaluation errors.
"""

from __future__ import annotations

import glob
import json
import sys
from pathlib import Path

import click

from . import suite
from .cat import CatError
from .cycles import ThrError, frequency, mine, parse_thr, program_from_litmus
# enumerate_* and model_behaviors are unused: perfbench/spans.py wraps them here
from .executions import enumerate_candidates  # noqa: F401
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


def _format_option(f):
    return click.option(
        "--format",
        "fmt",
        type=click.Choice(["table", "jsonl"]),
        default="table",
        show_default=True,
        help="report style",
    )(f)


def _model_label(spec: str) -> str:
    return Path(spec).stem if spec.endswith(".cat") else spec


def _load_model(spec: str, static_ppo: bool = False):
    try:
        return load_model(spec, static_ppo)
    except (OSError, CatError) as exc:
        raise click.UsageError(str(exc))
    except UnicodeDecodeError as exc:
        raise click.UsageError(f"{spec}: {exc}")


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
                raise click.UsageError(f"{arg}: not a file or bundled test")
        except (LitmusError, OSError, UnicodeDecodeError) as exc:
            raise click.UsageError(f"{arg}: {exc}")
    return tests


def _evaluate(t, model, spec, **kw):
    try:
        return evaluate_test(t, model, _model_label(spec), **kw)
    except CatError as exc:  # names the failing statement's file:line:col
        raise click.UsageError(str(exc))


def _table(headers, rows) -> str:
    cells = [list(headers)] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(cells[0], widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _emit_jsonl(records):
    for rec in records:
        click.echo(json.dumps(rec, sort_keys=True))


def _checks_cell(checks: dict) -> str:
    return " ".join(f"{k}:{v}" for k, v in sorted(checks.items())) or "-"


@click.group()
def main():
    """Weak-memory workbench: axiomatic models over litmus executions."""


@main.command()
@click.option(
    "-m",
    "--model",
    "model_spec",
    required=True,
    help="builtin model name or .cat file",
)
@click.option(
    "--prune-sc-per-location",
    "prune",
    is_flag=True,
    help="skip candidates that fail the model's own sc-per-location check",
)
@click.option(
    "--static-ppo",
    is_flag=True,
    help="drop execution-dependent ppo ingredients (rdw, detour)",
)
@_format_option
@click.argument("tests", nargs=-1, required=True)
def run(model_spec, prune, static_ppo, fmt, tests):
    """Evaluate one model over litmus tests."""
    model = _load_model(model_spec, static_ppo)
    label = _model_label(model_spec)
    loaded = _load_tests(tests)

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
        rows = [
            [
                r["test"],
                r["verdict"],
                r["expected"] or "-",
                ok_cell[r["ok"]],
                r["candidates"],
                r["passing"],
                r["satisfying"],
                _checks_cell(r["checks"]),
                " | ".join(r["states"]) or "-",
            ]
            for r in records
        ]
        click.echo(
            _table(
                (
                    "test",
                    "verdict",
                    "expected",
                    "ok",
                    "cands",
                    "passing",
                    "satisfying",
                    "failed-checks",
                    "states",
                ),
                rows,
            )
        )
    if any(r["ok"] is False for r in records):
        sys.exit(1)


@main.command()
@click.option("-a", "spec_a", required=True, help="first model")
@click.option("-b", "spec_b", required=True, help="second model")
@_format_option
@click.argument("tests", nargs=-1, required=True)
def compare(spec_a, spec_b, fmt, tests):
    """Diff two models' verdicts and allowed states."""
    model_a = _load_model(spec_a)
    model_b = _load_model(spec_b)
    label_a, label_b = _model_label(spec_a), _model_label(spec_b)
    loaded = _load_tests(tests)

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
            click.echo(f"no divergences between {label_a} and {label_b}")
        else:
            click.echo(f"a = {label_a}, b = {label_b}")
            rows = [
                [
                    r["test"],
                    r["verdict_a"],
                    r["verdict_b"],
                    _checks_cell(r["checks_a"]),
                    _checks_cell(r["checks_b"]),
                ]
                for r in divergent
            ]
            click.echo(
                _table(("test", "a", "b", "a-failed-checks", "b-failed-checks"), rows)
            )
    if any(r["diverges"] for r in records):
        sys.exit(1)


@main.command()
@click.option(
    "--bound",
    default=DEFAULT_BOUND,
    show_default=True,
    type=click.IntRange(min=1),
    help="max memory events (incl. init) for exhaustive machine runs",
)
@click.option(
    "--trace", is_flag=True, help="dump one annotated machine replay per test"
)
@_format_option
@click.argument("tests", nargs=-1, required=True)
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
            raise click.UsageError(str(exc))
        rec = {
            **base,
            "skipped": False,
            "equal": accepted == axiomatic,
            "machine_behaviors": len(accepted),
            "axiomatic_behaviors": len(axiomatic),
            "machine_states": sorted({"; ".join(s) for _, s in accepted}),
            "axiomatic_states": sorted({"; ".join(s) for _, s in axiomatic}),
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
            click.echo(f"warning: skipped {rec['warning']}", err=True)
    if fmt == "jsonl":
        _emit_jsonl(records)
    else:
        rows = []
        for r in records:
            if r["skipped"]:
                rows.append([r["test"], r["events"], "skipped", "-", "-"])
            else:
                rows.append(
                    [
                        r["test"],
                        r["events"],
                        "PASS" if r["equal"] else "FAIL",
                        r["machine_behaviors"],
                        r["axiomatic_behaviors"],
                    ]
                )
        click.echo(
            _table(("test", "events", "status", "machine", "axiomatic"), rows)
        )
        for r in records:
            if r.get("trace") is not None:
                click.echo("")
                click.echo(f"trace {r['test']}")
                for line in r["trace"]:
                    click.echo(f"  {line}")
    if any(r.get("equal") is False for r in records):
        sys.exit(1)


def _load_program(arg: str):
    path = Path(arg)
    if path.is_file():
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise click.UsageError(str(exc))
        if path.suffix == ".litmus":
            return program_from_litmus(project(parse_litmus(text)))
        return parse_thr(text, name=path.stem)
    if arg in suite.thr_names():
        return parse_thr(suite.thr_source(arg), name=arg)
    if arg in suite.names():
        return program_from_litmus(suite.load(arg))
    raise click.UsageError(f"{arg}: not a file or bundled program")


@main.command()
@_format_option
@click.argument("inputs", nargs=-1, required=True)
def cycles(fmt, inputs):
    """Mine critical cycles and coherence shapes from thread programs."""
    records = []
    errors = 0
    for arg in _expand(inputs):
        try:
            program = _load_program(arg)
        except (ThrError, LitmusError, OSError, click.UsageError) as exc:
            click.echo(f"error: {arg}: {exc}", err=True)
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
        click.echo(
            _table(("input", "name", "systematic", "classic", "axiom"), rows)
        )
        click.echo("")
        click.echo("frequency")
        click.echo(_table(("name", "count"), frequency(records)))
    else:
        click.echo("no cycles")
    if errors:
        sys.exit(2)


if __name__ == "__main__":
    main()
