"""Every workload, end to end and by layer, in one command.

    python3 perfbench/report.py [--seed N] [--seconds S] [--save FILE]
    python3 perfbench/report.py --compare BEFORE.json AFTER.json

Run from the root of a slet checkout. For each workload this runs the
untraced benchmark, then the traced one twice with the same seed, and
prints:

- every end-to-end metric by name with its unit, the tail percentile and
  the sample count behind it;
- each layer's share of cli.main time (self time; the jets layer has no
  span of its own and sits inside expr.evaluate and potentials.eval_jet);
- the tracing overhead, traced against untraced levels_per_s;
- whether the counters repeat exactly across the two traced runs;
- the spans the workload was designed to load, as shares of cli.main.

--save writes all records as one JSON file. --compare prints two saved
reports side by side, and refuses when their Sturm backends differ.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run

EXACT_COUNTERS = ("engine.scan_points", "engine.root_evals",
                  "oracle.grid_points", "kernels.sturm_row_steps")

# span whose total time should dominate cli.main on each workload
DESIGN = {"spectrum": ("engine.solve_r0.ms", 0.90),
          "sweep": ("engine.solve_r0.ms", 0.90),
          "solve": ("expr.evaluate.ms", 0.60),
          "validate": ("oracle.eigenvalue.ms", 0.95)}


def _value(record, name):
    return record["metrics"][name]["value"]


def report(root: Path, seed: int, seconds: float) -> list:
    records = []
    for workload in run.WORKLOADS:
        e2e = run.run_e2e(root, workload, seed, seconds)
        traces = [run.run_trace(root, workload, seed, seconds) for _ in range(2)]
        records += [e2e] + traces
        print(f"\n== {workload} (seed {seed}) ==")
        for line in run.describe(e2e) + run.describe(traces[0])[1:]:
            print(line)
        print(f"correct {e2e['correct']}  attempted {e2e['attempted']}  "
              f"failed {e2e['failed']}")
        for name, m in e2e["metrics"].items():
            print(f"  {name:<14} {m['value']:>14.6g} {m['unit']}")
        t = traces[0]
        overhead = _value(t, "trace.levels_per_s") / _value(e2e, "levels_per_s")
        print(f"  tracing: traced/untraced levels_per_s = {overhead:.3f}")
        same = all(_value(traces[0], c) == _value(traces[1], c)
                   for c in EXACT_COUNTERS)
        counts = ", ".join(f"{c} {_value(t, c)}" for c in EXACT_COUNTERS)
        print(f"  counts {'repeat exactly' if same else 'DIFFER'} across two "
              f"traced runs: {counts}")
        span, floor = DESIGN[workload]
        share = _value(t, span) / _value(t, "cli.main.ms")
        print(f"  design: {span} is {share:.1%} of cli.main.ms "
              f"({'meets' if share >= floor else 'BELOW'} {floor:.0%})")
    return records


def compare(before_path: str, after_path: str) -> int:
    sides = [json.loads(Path(p).read_text(encoding="utf-8"))
             for p in (before_path, after_path)]
    backends = [{r["environment"]["sturm_backend"] for r in side}
                for side in sides]
    if backends[0] != backends[1] or len(backends[0]) != 1:
        print(f"error: Sturm backends differ ({sorted(backends[0])} vs "
              f"{sorted(backends[1])}); the two sides are not comparable",
              file=sys.stderr)
        return 2
    after = {(r["workload"], r["trace"]): r for r in sides[1]}
    print(f"{'workload':<9} {'metric':<28} {'before':>12} {'after':>12} ratio")
    for rec in sides[0]:
        other = after.get((rec["workload"], rec["trace"]))
        if other is None:
            continue
        for name, m in rec["metrics"].items():
            if name not in other["metrics"]:
                continue
            a, b = m["value"], other["metrics"][name]["value"]
            ratio = f"{b / a:.3f}" if a else "-"
            print(f"{rec['workload']:<9} {name:<28} {a:>12.6g} {b:>12.6g} {ratio}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=run.DEFAULT_SEED,
                    help=f"workload seed (held-out seed: {run.HELDOUT_SEED})")
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--save", help="write every record to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    run.one_cpu()
    try:
        seconds = run.run_seconds() if args.seconds is None else args.seconds
        records = report(Path.cwd(), args.seed, seconds)
    except run.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.save:
        Path(args.save).write_text(json.dumps(records, indent=2) + "\n",
                                   encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
