#!/usr/bin/env python3
"""Measure how steady the benchmark is, from the root of the repository.

    python3 perfbench/stability.py [--workloads a,b] [--seeds 1-10] [--traced 3] [--repeats 2]

For each workload:

* untraced runs, one per seed: for every end-to-end metric, the median and
  the spread (Q3 - Q1) / median over the seeds, with quartiles from
  ``statistics.quantiles(values, n=4)``, against the metric's bound in
  ``BENCHMARK.json`` (the target is a spread under a third of the bound);
* I/O repeatability: the first seed is run ``--repeats`` more times and
  ``io_blocks_per_query`` is compared exactly, together with each run's
  within-run I/O note;
* tracing overhead: on the first ``--traced`` seeds a traced run follows the
  untraced one; the median over those pairs of ``trace.query_p50_ms`` over
  ``query_p50_ms``, minus one.

Prints Markdown tables and writes every raw result to
``.perfbench-out/stability.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds, trace):
    args = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed "
                         f"({proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect answers\n{proc.stdout}")
    notes = [l[2:] for l in lines[:-1] if l.startswith("# io repeat")]
    shown = {k: round(v["value"], 4) for k, v in result["metrics"].items() if v["value"]}
    print(f"{workload} seed {seed} trace {trace} {wall:.1f}s {shown}", file=sys.stderr)
    return {"seed": seed, "trace": trace, "wall_s": wall, "result": result, "io_notes": notes}


def value(r, name):
    return r["result"]["metrics"][name]["value"]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--traced", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=2)
    opts = parser.parse_args()
    seeds = parse_seeds(opts.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    raw = {}
    print(f"| workload | metric | median | spread | bound | spread < bound/3 |")
    print(f"|---|---|---|---|---|---|")
    summary = []
    for workload in opts.workloads.split(","):
        # Each traced run follows the untraced run of its seed directly, so the
        # overhead compares runs made under the same host conditions.
        untraced, traced = [], []
        for i, s in enumerate(seeds):
            untraced.append(run(workload, s, opts.seconds, 0))
            if i < opts.traced:
                traced.append(run(workload, s, opts.seconds, 1))
        repeats = [run(workload, seeds[0], opts.seconds, 0) for _ in range(opts.repeats)]
        raw[workload] = {"untraced": untraced, "repeats": repeats, "traced": traced}
        for name, bound in bounds.items():
            med, sp = spread([value(r, name) for r in untraced])
            ok = "n/a (set-up)" if name == "setup_s" else ("yes" if sp < bound / 3 else "NO")
            print(f"| {workload} | {name} | {med:.4g} | {sp:.3f} | {bound} | {ok} |")
        io_first = value(untraced[0], "io_blocks_per_query")
        io_again = [value(r, "io_blocks_per_query") for r in repeats]
        exact = bool(io_again) and all(v == io_first for v in io_again)
        overhead = statistics.median(
            [value(t, "trace.query_p50_ms") / value(u, "query_p50_ms") - 1
             for u, t in zip(untraced, traced)] or [float("nan")])
        summary.append((workload, seeds[0], io_first, io_again, exact,
                        sorted({n for r in untraced + repeats for n in r["io_notes"]}),
                        overhead, max(r["wall_s"] for r in untraced + repeats + traced)))

    print()
    print("| workload | seed | io_blocks_per_query, first run | repeated runs | exact | "
          "trace overhead on p50 | slowest run s |")
    print("|---|---|---|---|---|---|---|")
    for w, seed, first, again, exact, _, overhead, slowest in summary:
        print(f"| {w} | {seed} | {first:.10g} | {', '.join(f'{v:.10g}' for v in again)} | "
              f"{'yes' if exact else 'no'} | {100 * overhead:+.1f}% | {slowest:.1f} |")
    print()
    for w, *_, notes, _, _ in summary:
        for note in notes:
            print(f"- {w}: {note}")

    out = ROOT / ".perfbench-out" / "stability.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))


if __name__ == "__main__":
    main()
