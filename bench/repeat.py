"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/repeat.py --seeds 10 --out bench/out/set1.json
    python3 bench/repeat.py --seeds 10 --compare bench/out/set1.json
    python3 bench/repeat.py --workloads patch-pipeline --seeds 5 --trace 1

Runs the command of BENCHMARK.json once per workload and seed, in order,
with `run_seconds` from the same file.  For each metric it reports the
median, the quartiles from statistics.quantiles(n=4), and the spread
(q3 - q1) / median next to the metric's bound.  With --compare it also
reports how far each median moved against an earlier summary, as a share of
the earlier median, positive when worse, and which seeds produced artifacts
(patch text, SVG, atlas text, verdicts) whose digests differ from it.

The exit code is 1 when a run failed or was incorrect, when a seed's
artifacts changed against the earlier summary, or when a bounded median got
worse by more than its bound; otherwise 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, default=10,
                    help="run seeds 1..N (default 10)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the summary here as JSON")
    ap.add_argument("--compare", help="an earlier summary to compare against")
    args = ap.parse_args(argv)

    metrics = {m["name"]: m for m in
               spec["per_layer" if args.trace else "end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "trace": args.trace,
               "workloads": {}}
    failed = False
    for w in args.workloads:
        values = {name: [] for name in metrics}
        runs = []
        for seed in range(1, args.seeds + 1):
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            line = json.loads(proc.stdout.splitlines()[-1])
            result = json.loads((ROOT / "bench" / "out" /
                                 f"{w}-seed{seed}-trace{args.trace}.json")
                                .read_text())
            runs.append({"seed": seed, "exit": proc.returncode,
                         "correct": line["correct"],
                         "attempted": line["attempted"],
                         "failed": line["failed"],
                         "digests": result["digests"]})
            failed |= proc.returncode != 0 or not line["correct"]
            for name in metrics:
                values[name].append(line["metrics"][name]["value"])
            print(f"{w} seed {seed}: exit {proc.returncode}, "
                  f"{line['failed']}/{line['attempted']} failed", flush=True)
        summary["workloads"][w] = {
            "runs": runs,
            "metrics": {n: summarise(v) for n, v in values.items()}}

    old = json.loads(Path(args.compare).read_text()) if args.compare else None
    print(f"{'workload':<16} {'metric':<28} {'median':>12} {'spread':>7} "
          f"{'bound':>6}" + (f" {'moved':>7}" if old else ""))
    for w, ws in summary["workloads"].items():
        for name, s in ws["metrics"].items():
            bound = metrics[name].get("bound")
            row = (f"{w:<16} {name:<28} {s['median']:12.6g} {s['spread']:7.3f} "
                   f"{'' if bound is None else bound:>6}")
            if old:
                prev = old["workloads"][w]["metrics"][name]["median"]
                sign = 1 if metrics[name]["better"] == "lower" else -1
                moved = sign * (s["median"] - prev) / prev if prev else 0.0
                row += f" {moved:+7.3f}"
                if bound is not None and moved > bound:
                    row += "  WORSE THAN BOUND"
                    failed = True
            print(row)
        if old:
            before = {r["seed"]: r["digests"]
                      for r in old["workloads"][w]["runs"]}
            changed = [r["seed"] for r in ws["runs"]
                       if r["seed"] in before and r["digests"] != before[r["seed"]]]
            print(f"{w:<16} seeds with changed artifacts: {changed or 'none'}")
            failed |= bool(changed)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
