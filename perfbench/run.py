"""memcat's benchmark: end-to-end CLI throughput, set-up time and a traced run.

    python3 perfbench/run.py --workload suite|wide|xcheck --seed N --seconds S --trace 0|1

One client issues the documented CLI calls back to back (closed loop, one
call in flight): `run -m <model> --format jsonl <tests>` for each of the
7 bundled models, `machine --bound <B> --format jsonl <tests>` over 4
calls and `cycles --format jsonl <inputs>` over 2.  A pass is one round
of these calls; passes repeat until --seconds is spent.  Every call runs
in a fresh child forked from one of 4 servers (server.py), which have
imported memcat.cli and computed nothing, and is timed inside that
child, so no cache outlives a call and import cost shows only in setup_s.

The benchmark and every process it starts run on one CPU; the servers
have fixed hash seeds, visited in turn; every time is scaled to a
reference host speed by the calibration kernel in calib.py, timed before
and after each call and set-up probe.  The raw wall times are printed
beside the scaled ones.

Workloads (each runs every stage, so every metric exists on each):
- suite:  the 35 bundled tests through run x 7 and machine --bound 10,
          plus the 2 bundled .thr shapes through cycles.  Many tiny inputs:
          fixed costs per call and per candidate dominate.
- wide:   seeded generated Power/ARM tests of 3-4 threads and 10-12
          events through run x 7 and cycles; cycles also mines 50 more
          programs of the same kind.  Enumeration and per-candidate
          evaluation dominate.  Its machine stage covers the bundled suite,
          because the machine cannot finish tests this size within a run.
- xcheck: seeded generated tests of 8-9 events through machine and
          cycles, where the machine's label search dominates; cycles also
          mines 40 more programs of the same kind.  Its run stage covers
          the bundled suite.

The last stdout line is the JSON result: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1.  A table of every metric with
its unit, sample count and quartiles comes before it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import gen  # noqa: E402
import spans as spanlib  # noqa: E402

MODELS = ("sc", "tso", "cpp-ra", "power", "power-as-arm", "arm", "arm-llh")
SETUP_PROBES = 7
# Python's string hashing is salted per process, and the salt changes the
# order memcat visits its sets and dicts in: one call's time moved by up to
# a third between salts.  Every run uses the same fixed salts, one fork
# server each, and spreads each kind of call evenly over them, so a run's
# figures are neither one salt's luck nor different from run to run.
HASH_SEEDS = (1, 2, 3, 4)
# The machine and cycles stages split their inputs over this many calls, so
# that each pass times them on several hash seeds and host moments, as it
# does the 7 run calls.
CHUNKS = {"machine": 4, "cycles": 2}
SUITE_BOUND = 10
REFERENCE = HERE / "reference.json"
# stage -> inputs it reads: the workload's own tests ("own") or the bundled suite
STAGES = {
    "suite": {"run": "own", "machine": "own", "cycles": "own"},
    "wide": {"run": "own", "machine": "suite", "cycles": "own"},
    "xcheck": {"run": "suite", "machine": "own", "cycles": "own"},
}
END_TO_END = ("setup_s", "run_verdicts_per_s", "machine_tests_per_s", "cycles_programs_per_s",
              "pass_s", "peak_rss_mb")
REQUIRED = ("src/memcat/cli.py", "src/memcat/models/golden.json", "tests/oracles.py")


def fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ------------------------------------------------------------------ inputs


def bundled_inputs():
    from checker import Input

    suite_dir = ROOT / "src/memcat/suite"
    tests = [Input(p.stem, p, p.read_text(), False) for p in sorted(suite_dir.glob("*.litmus"))]
    shapes = [Input(p.stem, p, p.read_text(), False) for p in sorted(suite_dir.glob("*.thr"))]
    return tests, shapes


def generated_inputs(workload: str, seed: int, work: Path, mine_only: bool = False):
    from checker import Input

    out = []
    for fname, text, cands, events in gen.generate(workload, seed, mine_only):
        path = work / fname
        path.write_text(text)
        out.append(Input(path.stem, path, text, True, cands, events))
    return out


def plan(workload: str, seed: int, work: Path):
    """(calls of one pass, every input by name, primary tests, set-up inputs)."""
    suite_tests, shapes = bundled_inputs()
    own = suite_tests if workload == "suite" else generated_inputs(workload, seed, work)
    mined = shapes if workload == "suite" else generated_inputs(workload, seed, work, True)
    rng = random.Random(f"plan:{workload}:{seed}")

    def pick(which):
        items = list(own if which == "own" else suite_tests)
        rng.shuffle(items)
        return items

    def split(stage, items):
        """The inputs of a stage's calls: which call gets an input does not
        hang on the seed, so the bundled suite's reference fits every seed;
        the order within a call does."""
        ordered = sorted(items, key=lambda i: str(i.path))
        parts = [ordered[c::CHUNKS[stage]] for c in range(CHUNKS[stage])]
        for part in parts:
            rng.shuffle(part)
        return parts

    stages = STAGES[workload]
    calls = []
    run_in = pick(stages["run"])
    for model in MODELS:
        calls.append(("run:" + model, ["run", "-m", model, "--format", "jsonl"], run_in))
    mach_in = own if stages["machine"] == "own" else suite_tests
    bound = max([SUITE_BOUND] + [i.events for i in mach_in])
    for c, part in enumerate(split("machine", mach_in)):
        calls.append((f"machine:{c}", ["machine", "--bound", str(bound), "--format", "jsonl"],
                      part))
    cyc_in = list(own if stages["cycles"] == "own" else suite_tests) + list(mined)
    for c, part in enumerate(split("cycles", cyc_in)):
        calls.append((f"cycles:{c}", ["cycles", "--format", "jsonl"], part))
    rng.shuffle(calls)
    calls = [(key, argv + [str(i.path) for i in ins], [i.name for i in ins])
             for key, argv, ins in calls]
    # a .thr shape may share its name with a test (mp); the test's entry wins,
    # since only run and machine records are checked against their input
    everything = {i.name: i for i in shapes + mined + suite_tests + own}
    setup_inputs = sorted({arg for _, argv, _ in calls for arg in argv
                           if arg.endswith((".litmus", ".thr"))})
    return calls, everything, own, setup_inputs


# ------------------------------------------------------------------ running


def pin_to_one_cpu():
    """Run this process and all it starts on one CPU, the highest allowed.

    memcat's CLI runs up to 8 threads that take turns holding the
    interpreter lock; spread over several CPUs, each hand-over of the lock
    waits on the scheduler, which made calls about 40% slower and their
    times far less steady.  CPU 0 usually takes more of the machine's
    interrupts, hence the highest.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def hash_env(hash_seed: int) -> dict:
    return os.environ | {"PYTHONHASHSEED": str(hash_seed)}


def setup_probe(inputs: list, hash_seed: int) -> dict:
    """One fresh-process set-up, timed by phase and scaled by calibrations around it."""
    before = calib.measure()
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), *inputs],
                          capture_output=True, text=True, cwd=ROOT, timeout=120,
                          env=hash_env(hash_seed))
    if proc.returncode != 0:
        fail(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    raw = json.loads(proc.stdout.splitlines()[-1])
    scale = 2 * calib.REFERENCE_S / (before + calib.measure())
    scaled = {k: v * scale for k, v in raw.items()}
    return scaled | {"wall_setup_s": raw["setup_s"]}


class Server:
    """A fork server process with a fixed hash seed; one CLI call in flight at a time."""

    def __init__(self, hash_seed: int):
        import server as proto

        self.proto = proto
        self.proc = subprocess.Popen([sys.executable, str(HERE / "server.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
                                     env=hash_env(hash_seed))
        if proto.receive(self.proc.stdout) != "ready":
            self.close()
            fail("fork server did not start")

    def call(self, argv: list, trace: bool, call_id: int) -> dict:
        self.proto.send(self.proc.stdin, {"argv": argv, "call_id": call_id, "trace": trace})
        reply = self.proto.receive(self.proc.stdout)
        if reply is None:
            fail("fork server exited")
        return reply

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run_passes(calls, setup_inputs, seconds: float, trace: bool):
    """Passes until `seconds` are spent, with a set-up probe after each.

    Interleaving the probes spreads them over the run, so their median
    does not hang on one moment's machine load.  Traced runs alternate
    untraced and traced passes.  Each call gets the factor that scales
    its times to the reference host speed: REFERENCE_S over the mean of
    the calibration times just before and after it.

    The k-th pass of a kind (traced or not) sends the call with key
    index i to server (k + i) mod len(HASH_SEEDS), so each kind of call
    visits the hash seeds in turn, in the same order on every run.
    """
    calib.measure()  # warm-up
    nseeds = len(HASH_SEEDS)
    probes = [setup_probe(setup_inputs, HASH_SEEDS[i]) for i in range(2)]
    keys = sorted(key for key, _, _ in calls)
    call_ids = itertools.count(1)
    servers = []
    passes = []
    try:
        for h in HASH_SEEDS:
            servers.append(Server(h))
        start = time.perf_counter()
        longest = 0.0
        while (not passes or (trace and len(passes) < 2)
               or time.perf_counter() - start + longest <= seconds):
            traced = trace and len(passes) % 2 == 1
            k = sum(p["traced"] == traced for p in passes)
            t0 = time.perf_counter()
            results = [(key, names, servers[(k + keys.index(key)) % nseeds].call(
                argv, traced, next(call_ids))) for key, argv, names in calls]
            for _, _, res in results:
                res["scale"] = 2 * calib.REFERENCE_S / sum(res["calib_s"])
            passes.append({"traced": traced, "calls": results})
            probes.append(setup_probe(setup_inputs, HASH_SEEDS[len(probes) % nseeds]))
            longest = max(longest, time.perf_counter() - t0)
    finally:
        for server in servers:
            server.close()
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(setup_inputs, HASH_SEEDS[len(probes) % nseeds]))
    return passes, {k: [p[k] for p in probes] for k in probes[0]}


# ------------------------------------------------------------------ statistics


def quartiles(values: list):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def tail(values: list):
    """(percentile, value): the highest percentile with at least 10 samples above it."""
    if len(values) < 11:
        return None, None
    ordered = sorted(values)
    k = len(ordered) - 11
    return round(100 * (k + 1) / len(ordered)), ordered[k]


class Table:
    def __init__(self):
        self.rows = {}

    def add(self, name, samples, unit, value=None):
        q1, med, q3 = quartiles(samples)
        self.rows[name] = (med if value is None else value, unit, len(samples), q1, q3)

    def show(self, names):
        print(f"{'metric':40} {'value':>14} {'unit':8} {'n':>6} {'q1':>12} {'q3':>12}")
        for name in names:
            v, unit, n, q1, q3 = self.rows[name]
            print(f"{name:40} {v:14.6g} {unit:8} {n:6d} {q1:12.6g} {q3:12.6g}")

    def metrics(self, names):
        return {n: {"value": self.rows[n][0], "unit": self.rows[n][1]} for n in names}


def call_time(result):
    return result["end"] - result["start"]


def scaled_time(result):
    """A call's time scaled to the reference host speed."""
    return call_time(result) * result["scale"]


def pass_time(p):
    """The calls' time in pass p, scaled to the reference host speed."""
    return sum(scaled_time(r) for _, _, r in p["calls"])


def stage_rate(passes, stage):
    """Inputs handled per (scaled) second by one stage's calls, one sample per pass.

    For run, each input of each of the 7 calls is one (test, model) verdict.
    """
    rates = []
    for p in passes:
        items = secs = 0
        for key, names, res in p["calls"]:
            if key.split(":")[0] == stage:
                items += len(names)
                secs += scaled_time(res)
        rates.append(items / secs if secs > 0 else 0.0)  # 0 only when every call crashed
    return rates


def end_to_end(table, passes, setup):
    plain = [p for p in passes if not p["traced"]]
    table.add("setup_s", setup["setup_s"], "s")
    table.add("run_verdicts_per_s", stage_rate(plain, "run"), "1/s")
    table.add("machine_tests_per_s", stage_rate(plain, "machine"), "1/s")
    table.add("cycles_programs_per_s", stage_rate(plain, "cycles"), "1/s")
    pass_s = [pass_time(p) for p in plain]
    table.add("pass_s", pass_s, "s")
    rss = [r["maxrss_kb"] / 1024 for p in passes for _, _, r in p["calls"]]
    table.add("peak_rss_mb", rss, "MB", value=max(rss))
    table.add("wall.setup_s", setup["wall_setup_s"], "s")
    table.add("wall.pass_s", [sum(call_time(r) for _, _, r in p["calls"]) for p in plain], "s")
    table.add("host.calib_ms", [c * 1e3 for p in passes for _, _, r in p["calls"]
                                for c in r["calib_s"]], "ms")
    return pass_s


def per_layer(table, passes, setup, primary_stats, work: Path):
    """Per-layer metrics from the traced passes; sums are per traced pass.

    Layer times are per-thread CPU self times.  cli.self_s is the calls'
    wall time not covered by any outermost span: argument handling, the
    thread pool, record building and json.  All are scaled by their
    call's factor, as the end-to-end times are.

    Shares read from run records describe the run stage's inputs, which
    on xcheck are the bundled suite; coherent_share and the workload.*
    sizes describe the workload's own tests.
    """
    traced = [p for p in passes if p["traced"]]
    n = len(traced)
    self_s, count, info = {}, {}, {}
    run_model_us = {m: [0.0, 0] for m in MODELS}
    eval_ms, cli_self = [], 0.0
    with open(work / "spans.jsonl", "w") as out:
        for p in traced:
            for key, _, res in p["calls"]:
                sp = res["spans"]
                own_cpu = {k: v * res["scale"] for k, v in spanlib.self_cpu(sp).items()}
                top = [(s[4], s[5]) for s in sp if s[1] == 0]
                cli_self += (call_time(res) - spanlib.covered(top)) * res["scale"]
                for s in sp:
                    name = s[3]
                    out.write(json.dumps(s) + "\n")
                    self_s[name] = self_s.get(name, 0.0) + own_cpu[s[0]]
                    count[name] = count.get(name, 0) + 1
                    info[name] = info.get(name, 0) + (s[8] or 0)
                    if name == "cat.run_model" and key.startswith("run:"):
                        acc = run_model_us[key[4:]]
                        acc[0] += own_cpu[s[0]]
                        acc[1] += 1
                    elif name == "models.evaluate_test":
                        eval_ms.append((s[7] - s[6]) * 1e3 * res["scale"])

    def per_pass(d, name):
        return d.get(name, 0) / n

    def add(name, value, unit):
        table.rows[name] = (value, unit, n, value, value)

    add("litmus.parse_s", per_pass(self_s, "litmus.parse"), "s")
    add("litmus.project_s", per_pass(self_s, "litmus.project"), "s")
    add("litmus.parse_calls", per_pass(count, "litmus.parse"), "count")
    add("executions.enumerate_s", per_pass(self_s, "executions.enumerate"), "s")
    add("executions.candidates", per_pass(info, "executions.enumerate"), "count")
    add("executions.coherent_share", primary_stats["coherent_share"], "share")
    add("cat.parse_s", per_pass(self_s, "cat.parse"), "s")
    add("cat.parse_calls", per_pass(count, "cat.parse"), "count")
    add("cat.run_model_s", per_pass(self_s, "cat.run_model"), "s")
    add("cat.run_model_calls", per_pass(count, "cat.run_model"), "count")
    for m, (secs, calls) in run_model_us.items():
        add(f"cat.us_per_cand.{m}", secs / calls * 1e6, "us")
    table.add("models.evaluate_test_p50_ms", eval_ms, "ms")
    pct, tail_ms = tail(eval_ms)
    table.add("models.evaluate_test_tail_ms", eval_ms, "ms", value=tail_ms)
    print(f"models.evaluate_test_tail_ms is p{pct} of {len(eval_ms)} calls")
    runs = [json.loads(line) for key, _, res in traced[0]["calls"] if key.startswith("run:")
            for line in res["stdout"].splitlines()]
    add("models.passing_share", sum(r["passing"] for r in runs) / sum(r["candidates"] for r in runs),
        "share")
    for m in MODELS:
        mine = [r for r in runs if r["model"] == m]
        add(f"models.passing_share.{m}",
            sum(r["passing"] for r in mine) / sum(r["candidates"] for r in mine), "share")
    add("machine.context_s", per_pass(self_s, "machine.context"), "s")
    add("machine.search_s", per_pass(self_s, "machine.search"), "s")
    add("machine.search_calls", per_pass(count, "machine.search"), "count")
    add("machine.accept_share", info.get("machine.search", 0) / count["machine.search"], "share")
    add("cycles.find_s", per_pass(self_s, "cycles.find"), "s")
    add("cycles.mine_s", per_pass(self_s, "cycles.mine"), "s")
    add("cycles.found", per_pass(info, "cycles.mine"), "count")
    layers = {}
    for name, secs in self_s.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + secs / n
    for layer in ("litmus", "executions", "cat", "models", "machine", "cycles"):
        add(f"{layer}.self_s", layers.get(layer, 0.0), "s")
    add("cli.self_s", cli_self / n, "s")
    table.add("setup.import_s", setup["import_s"], "s")
    table.add("setup.models_load_s", setup["models_load_s"], "s")
    plain = [pass_time(p) for p in passes if not p["traced"]]
    with_trace = [pass_time(p) for p in traced]
    add("trace.overhead", statistics.median(with_trace) / statistics.median(plain) - 1, "share")
    for prop in ("candidates", "events"):
        values = primary_stats[prop]
        add(f"workload.{prop}_min", min(values), "count")
        add(f"workload.{prop}_p50", statistics.median(values), "count")
        add(f"workload.{prop}_max", max(values), "count")


def primary_properties(own: list) -> dict:
    """Candidates and events per test, and the coherent share, by the oracles."""
    sys.path.insert(0, str(ROOT / "tests"))
    import oracles
    from memcat.executions import enumerate_candidates
    from memcat.litmus import parse_litmus, project

    cands, events, coherent = [], [], 0
    for inp in own:
        t = project(parse_litmus(inp.text))
        events.append(len(t.events))
        k = 0
        for cand in enumerate_candidates(t):
            k += 1
            p = oracles.candidate_pairs(cand)
            coherent += oracles.is_acyclic_pairs(p["po_loc"] | p["com"], p["nodes"])
        cands.append(k)
    return {"candidates": cands, "events": events, "coherent_share": coherent / sum(cands)}


# ------------------------------------------------------------------ checking


def check_outputs(passes, everything, reference):
    """(calls attempted, calls failed, problems); each distinct output is checked once."""
    from checker import Checker

    checker = Checker(everything, reference)
    seen = {}
    attempted = failed = 0
    problems = []
    for p in passes:
        for key, names, res in p["calls"]:
            attempted += 1
            sig = (key, res["code"], res["stdout"])
            if sig not in seen:
                seen[sig] = checker.check(key, names, res["code"], res["stdout"])
                if res["code"] != 0 and res["stderr"]:
                    seen[sig].append(res["stderr"].strip()[-300:])
                problems += seen[sig]
            failed += bool(seen[sig])
    return attempted, failed, problems


def load_reference(workload: str, seed: int):
    if not REFERENCE.is_file():
        return None
    data = json.loads(REFERENCE.read_text()).get(workload, {})
    return data.get(str(seed), data.get("*"))


def record_reference(seeds):
    """Write reference.json from one checked pass per workload and seed."""
    from checker import record_hash

    data = {}
    for workload in STAGES:
        for seed in (["*"] if workload == "suite" else seeds):
            work = prepare_work(workload, 0 if seed == "*" else seed)
            calls, everything, _, setup_inputs = plan(workload, 0 if seed == "*" else seed, work)
            passes, _ = run_passes(calls, setup_inputs, 0, trace=False)
            _, failed, problems = check_outputs(passes, everything, None)
            if failed:
                fail(f"{workload} seed {seed}: {problems[:5]}")
            data.setdefault(workload, {})[str(seed)] = {
                key: [record_hash(line) for line in res["stdout"].splitlines()]
                for key, _, res in passes[0]["calls"]
            }
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def prepare_work(workload: str, seed: int) -> Path:
    work = HERE / "_work" / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


# ------------------------------------------------------------------ main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(STAGES))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", metavar="SEEDS",
                    help="record reference.json for seeds lo-hi, then exit")
    args = ap.parse_args()

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        fail(f"not a memcat checkout: missing {', '.join(missing)}")
    sys.path.insert(0, str(ROOT / "src"))
    pin_to_one_cpu()
    if args.record_reference:
        lo, hi = map(int, args.record_reference.split("-"))
        record_reference(list(range(lo, hi + 1)))
        return
    if args.workload is None:
        ap.error("--workload is required")

    work = prepare_work(args.workload, args.seed)
    calls, everything, own, setup_inputs = plan(args.workload, args.seed, work)
    passes, setup = run_passes(calls, setup_inputs, args.seconds, bool(args.trace))
    attempted, failed, problems = check_outputs(passes, everything,
                                                load_reference(args.workload, args.seed))
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    table = Table()
    pass_s = end_to_end(table, passes, setup)
    if args.trace:
        per_layer(table, passes, setup, primary_properties(own), work)
        names = [n for n in table.rows if n not in END_TO_END]
    else:
        names = list(END_TO_END)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} calls, error_rate {failed / attempted:.4g} ({failed}/{attempted})")
    pct, value = tail(pass_s)
    if pct is not None:
        print(f"pass_s p{pct}: {value:.6g} s over {len(pass_s)} passes")
    print(f"pass_s samples: {json.dumps(pass_s)}")
    table.show(names if args.trace else list(table.rows))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": table.metrics(names)}))


if __name__ == "__main__":
    main()
