"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workload suite --seeds 1-10 [--trace 0|1] [--seconds 35]
                               [--out summary.json]

For every metric it gives the median, quartiles, sample count and the
spread (interquartile distance over the median) across the seeds and,
untraced, the tail percentile of pass_s over the passes of all seeds.  Use it to record a baseline and
to compare two commits with identical settings.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import HERE, quartiles, tail

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def summarise(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else None, "values": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="lo-hi, inclusive")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    lo, hi = map(int, args.seeds.split("-"))
    values, units, runs, pass_samples = {}, {}, [], []
    for seed in range(lo, hi + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=HERE.parent, timeout=600)
        if proc.returncode != 0:
            sys.exit(f"seed {seed} failed:\n{proc.stderr}")
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        pass_samples += next((json.loads(line.split(":", 1)[1]) for line in lines
                              if line.startswith("pass_s samples:")), [])
        runs.append({k: result[k] for k in ("correct", "attempted", "failed")} | {"seed": seed})
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: correct {result['correct']} "
              f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)
    summary = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
               "runs": runs,
               "metrics": {n: {"unit": units[n]} | summarise(v) for n, v in values.items()}}
    pct, value = tail(pass_samples)
    if pct is not None:
        summary["pass_s_tail"] = {"percentile": pct, "value": value, "n": len(pass_samples)}
        print(f"pass_s p{pct} over {len(pass_samples)} pooled passes: {value:.6g} s")
    for name, s in summary["metrics"].items():
        spread = "-" if s["spread"] is None else f"{s['spread']:.3f}"
        print(f"{name:36} {s['median']:12.6g} {s['unit']:6} n={s['n']:<3} "
              f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={spread}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
