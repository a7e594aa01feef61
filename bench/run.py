"""tileatlas benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload patch-pipeline --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload patch-pipeline --seed 1 --seconds 24 --trace 1
    python3 bench/run.py --self-test

Run from the root of a checkout; the library is imported from its `src/`.
One process, one client, closed loop: each op starts when the last one has
finished.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics, or
with --trace 1 the per-layer ones); the lines before it give every metric
for a reader.  A result file with everything measured (machine facts, raw op
and calibration times, probes, digests) goes to bench/out/, and a traced run
also writes its spans there.  The exit code is 0 when every op was correct,
1 when one was not, and 2 when the library cannot be imported.

See README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

DEFAULT_SEED = 1
# Median seconds of one calibration sample on the box the benchmark was
# written on; setup_s is quoted in seconds of that box (see setup_child).
CAL_NOMINAL_S = 0.006

# Seconds one op took at the seed commit (2-core x86_64, Python 3.11).  The
# op count of a run is fixed from --seconds and these, never from a
# measurement, so that every run of a workload does the same ops.
NOMINAL_OP_S = {"torus-exhaust": 2.0, "atlas-derive": 0.5,
                "patch-pipeline": 1.4}
MIN_PAIRS = 2
SETUP_SAMPLES = 7  # at most; one fresh-process set-up before each of them

# The metrics of the JSON line.  Raw seconds are not among them: on a shared
# 2-core box the same code runs up to 1.7x slower for seconds at a time, so
# run medians of raw seconds differ by 30-40 % between runs.  Times measured
# against a calibration loop run beside the work repeat within a few %.
END_TO_END = {
    "wall_ref": "cal", "op_p50_ref": "cal", "setup_s": "s", "peak_rss_mb": "MB",
}
# Printed and written to the result file, but not in the JSON line.
REPORTED = {"wall_s": "s", "op_p50_s": "s", "setup_raw_s": "s",
            "fail_rate": "ratio"}
PER_LAYER = {
    "solver.search_s": "s", "solver.nodes": "count", "solver.nodes_per_s": "1/s",
    "solver.useful_ratio": "ratio", "solver.calls": "count",
    "atlas.derive_s": "s", "atlas.coronas": "count", "atlas.coronas_per_s": "1/s",
    "atlas.lookup_s": "s", "atlas.implicit_s": "s", "atlas.text_s": "s",
    "atlas.calls": "count",
    "tileset.patch_valid_s": "s", "tileset.cells_checked_per_s": "1/s",
    "tileset.text_s": "s", "tileset.calls": "count",
    "reduction.reduce_s": "s", "reduction.codec_s": "s",
    "reduction.calls": "count",
    "render.svg_s": "s", "render.svg_bytes": "count", "render.calls": "count",
    "cli.main_s": "s", "cli.calls": "count",
    "bench.self_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
}
# Span names (module.function) whose self time makes up each time metric;
# solver.search_s and render.svg_s take every span of their layer.
SPAN_METRICS = {
    "atlas.derive_s": ("atlas.derive_atlas", "atlas.enumerate_source_coronas"),
    "atlas.lookup_s": ("atlas.corona_of", "atlas.__contains__",
                       "atlas.corona_in_atlas"),
    "atlas.implicit_s": ("atlas.corona_in_atlas_implicit",),
    "atlas.text_s": ("atlas.serialize_atlas", "atlas.parse_atlas"),
    "tileset.patch_valid_s": ("tileset.patch_valid",),
    "tileset.text_s": ("tileset.load_bundled", "tileset.parse_tileset",
                       "tileset.serialize_tileset", "tileset.parse_patch",
                       "tileset.serialize_patch"),
    "reduction.reduce_s": ("reduction.reduce_set",
                           "reduction.reduced_cardinality"),
    "reduction.codec_s": ("reduction.encode_patch", "reduction.decode_patch"),
    "bench.self_s": ("bench.setup", "bench.op"),
    "cli.main_s": ("cli.main",),
}
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _import_library():
    """Import tileatlas from this checkout's src/, or exit 2."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import tileatlas
    except ImportError as e:
        print(f"error: cannot import tileatlas from {ROOT / 'src'}: {e}",
              file=sys.stderr)
        sys.exit(2)
    if Path(tileatlas.__file__).resolve().parent.parent != ROOT / "src":
        print(f"error: tileatlas came from {tileatlas.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)


def calibration_loop():
    """Fixed pure-Python work: the unit of the "cal" metrics.

    Dict, tuple and comparison traffic, like the search's inner loop; 3-6 ms
    on the seed commit's box.
    """
    seen = {}
    acc = 0
    for i in range(15_000):
        key = (i & 63, i % 7)
        seen[key] = seen.get(key, 0) + 1
        if key[0] < key[1]:
            acc += 1
    return acc


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def calibrate():
    """Seconds of one calibration loop: the median of three, so that one
    interrupted loop does not count."""
    return statistics.median(_timed(calibration_loop) for _ in range(3))


class Stopwatch:
    """Times ops in segments, with a calibration sample between segments.

    The box's speed changes within seconds, so one calibration sample on
    each side of a 2 s op says little about the speed the op ran at.  The
    api functions are wrapped so that, after a call that ends a segment of
    at least CAL_EVERY_S, a calibration sample is taken.  Each segment is
    divided by the mean of the samples on its two sides, and the op's time
    in calibration units is the sum.  Calibration time is not op time.
    """

    CAL_EVERY_S = 0.3

    def __init__(self, calibrate_fn):
        self.calibrate = calibrate_fn
        self.samples = []
        self.t0 = None

    def _sample(self):
        self.samples.append(self.calibrate())

    def start(self):
        self._sample()
        self.raw = self.ref = 0.0
        self.t0 = time.perf_counter()

    def lap(self, force=False):
        if self.t0 is None:
            return
        dt = time.perf_counter() - self.t0
        if force or dt >= self.CAL_EVERY_S:
            before = self.samples[-1]
            self._sample()
            self.raw += dt
            self.ref += dt / ((before + self.samples[-1]) / 2)
            self.t0 = time.perf_counter()

    def stop(self):
        """End the op; return its (seconds, calibration units)."""
        self.lap(force=True)
        self.t0 = None
        return self.raw, self.ref

    def wrap_api(self, api):
        def timed(fn):
            def call(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.lap()
            return call
        return type(api)(**{k: timed(fn) for k, fn in vars(api).items()})


def quartile_spread(values):
    """(q3 - q1) / median, with statistics.quantiles(n=4)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def _percentiles(values):
    """Median, plus p90/p99 where ten samples lie beyond them."""
    out = {"n": len(values), "p50": statistics.median(values)}
    for p in (90, 99):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
    return out


def machine_facts():
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "system": platform.system(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_at_start": os.getloadavg()}


# ---------------------------------------------------------------------------
# setup_s: import and set-up in a fresh process
# ---------------------------------------------------------------------------

def setup_child(workload, op_input=None, small=False):
    """Child mode: time import + set-up of one workload, print it as JSON.

    With calibration samples on either side, the time is also given in
    seconds of the box the benchmark was written on: set-up time divided by
    the calibration sample, times CAL_NOMINAL_S.  Raw set-up seconds moved
    by 22 % between two sets of ten runs; this moved by at most 4 %.

    With op_input, the child then runs one untimed op on that input and
    adds its artifact digest, for the cross-process repeatability check.
    """
    cal_before = calibrate()
    t0 = time.perf_counter()
    _import_library()
    import tracing
    import workloads
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    setup_fn, op_fn = workloads.WORKLOADS[workload]
    api = tracing.plain_api()
    try:
        ctx, _ = setup_fn(api, str(workdir))
        dt = time.perf_counter() - t0
        cal = (cal_before + calibrate()) / 2
        out = {"raw_s": dt, "nominal_s": dt / cal * CAL_NOMINAL_S}
        if op_input is not None:
            sizes = workloads.SMALL if small else workloads.FULL
            try:
                out["digest"] = op_fn(api, ctx, op_input, sizes)[1]
            except Exception as e:  # the parent counts it as a failure
                out.update(digest=None, error=f"{type(e).__name__}: {e}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def measure_setup(workload, op_input=None, small=False):
    """Set-up time of a fresh process; with op_input, also the digest of one
    op on that input, under a string-hash seed of its own
    (PYTHONHASHSEED), so that output whose order depends on the process
    does not repeat."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--setup-child", workload]
    env = None
    if op_input is not None:
        cmd += ["--op-input", str(op_input)] + (["--small"] if small else [])
        hash_seed = op_input % 4_294_967_295 + 1
        if os.environ.get("PYTHONHASHSEED") == str(hash_seed):
            hash_seed = hash_seed % 4_294_967_295 + 1
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"setup child failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def span_cost_s(calls=20_000):
    """Seconds one span adds to a call: a no-op wrapped by Tracer.wrap,
    less the same no-op called directly, per call; the median of three."""
    import tracing

    def noop():
        return None

    wrapped = tracing.Tracer().wrap("bench.noop", noop)

    def per_call(fn):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - t0) / calls

    return statistics.median(per_call(wrapped) - per_call(noop)
                             for _ in range(3))


def layer_metrics(tracer, counts, overhead_s):
    """The per-layer metrics from the traced spans and the ops' counts."""
    self_s = tracer.self_times()
    calls = tracer.call_counts()

    def layer(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix + "."))

    m = {k: sum(self_s.get(n, 0.0) for n in names)
         for k, names in SPAN_METRICS.items()}
    m["solver.search_s"] = layer("solver", self_s)
    m["render.svg_s"] = layer("render", self_s)
    for name in ("solver", "atlas", "tileset", "reduction", "render", "cli"):
        m[f"{name}.calls"] = layer(name, calls)

    def rate(num, den):
        return num / den if den else 0.0

    nodes = counts.get("solver.nodes", 0)
    m["solver.nodes"] = nodes
    m["solver.nodes_per_s"] = rate(nodes, m["solver.search_s"])
    m["solver.useful_ratio"] = rate(counts.get("solver.found_cells", 0), nodes)
    m["atlas.coronas"] = counts.get("atlas.coronas", 0)
    m["atlas.coronas_per_s"] = rate(m["atlas.coronas"], m["atlas.derive_s"])
    m["tileset.cells_checked_per_s"] = rate(
        counts.get("tileset.cells_checked", 0), m["tileset.patch_valid_s"])
    m["render.svg_bytes"] = counts.get("render.svg_bytes", 0)
    m["trace.overhead_s"] = overhead_s
    m["trace.spans"] = len(tracer.spans)
    return {k: m[k] for k in PER_LAYER}


def _add(total, counts):
    for k, v in counts.items():
        total[k] = total.get(k, 0) + v


def run(workload, seed, seconds, trace, small=False, probes=True):
    """Run one workload; return (result record, tracer)."""
    import tracing
    import workloads

    facts = machine_facts()
    setup_fn, op_fn = workloads.WORKLOADS[workload]
    sizes = workloads.SMALL if small else workloads.FULL
    pairs = max(MIN_PAIRS, round(seconds / (2 * NOMINAL_OP_S[workload])))
    rng = random.Random(f"{workload}:{seed}")
    inputs = [rng.getrandbits(32) for _ in range(pairs)]

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    tracer = tracing.Tracer()
    watch = Stopwatch(tracer.wrap("bench.calibrate", calibrate) if trace
                      else calibrate)
    plain = watch.wrap_api(tracing.plain_api())
    traced = watch.wrap_api(tracer.api()) if trace else None
    counts = {}
    setups = []
    op_s, op_ref, failures, digests = [], [], [], []
    is_traced = []
    try:
        with tracer.root("bench.setup", -1) if trace else nullcontext():
            ctx, setup_counts = setup_fn(traced or plain, str(workdir))
        if trace:
            _add(counts, setup_counts)

        # Ops come in pairs on the same input: the second must reproduce the
        # first one's digest.  In the traced run one op of each pair is
        # traced, alternating which goes first, and the pairs give the
        # tracing overhead.  Fresh-process set-ups are timed between pairs,
        # so that their samples spread over the run like the ops do.
        # The first fresh-process set-up also runs one op on the first input,
        # whose digest the run's own op 0 must reproduce.
        n_setups = min(pairs, SETUP_SAMPLES)
        setup_before = {k * pairs // n_setups for k in range(n_setups)}
        for i in range(2 * pairs):
            pair, second = divmod(i, 2)
            if not second and pair in setup_before:
                setups.append(measure_setup(
                    workload, inputs[0] if not setups else None, small))
            traced_op = trace and (second != pair % 2)
            watch.start()
            try:
                with tracer.root("bench.op", i) if traced_op else nullcontext():
                    op_counts, digest = op_fn(traced if traced_op else plain,
                                              ctx, inputs[pair], sizes)
                dt, ref = watch.stop()
                if second:
                    workloads.check(digest == digests[-1],
                                    f"artifacts differ from op {i - 1}, which "
                                    f"had the same input")
                else:
                    digests.append(digest)
                if traced_op:
                    _add(counts, op_counts)
            except Exception as e:  # record, count, and go on to the next op
                dt, ref = watch.stop()
                if not second:
                    digests.append(None)
                failures.append({"op": i, "input": inputs[pair],
                                 "error": f"{type(e).__name__}: {e}"})
            op_s.append(dt)
            op_ref.append(ref)
            is_traced.append(traced_op)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    fresh = setups[0]
    if digests[0] is not None and fresh["digest"] != digests[0]:
        failures.append({"op": 0, "input": inputs[0], "error": fresh.get(
            "error", "CheckFailed: artifacts differ from those of the same "
                     "op in a fresh process")})
    cal_s = watch.samples
    plain_s = [t for t, tr in zip(op_s, is_traced) if not tr]
    plain_ref = [r for r, tr in zip(op_ref, is_traced) if not tr]
    n_failed = len(failures)
    result = {
        "workload": workload, "seed": seed, "default_seed": DEFAULT_SEED,
        "seconds": seconds, "trace": int(trace), "small": small,
        "machine": facts, "ops": len(op_s), "inputs": inputs,
        "op_s": op_s, "op_ref": op_ref, "traced": is_traced,
        "op_percentiles_s": _percentiles(plain_s),
        "calibration": {"median_s": statistics.median(cal_s),
                        "spread": quartile_spread(cal_s), "samples_s": cal_s},
        "setup_samples": setups,
        "failures": failures, "digests": digests,
        "end_to_end": {
            "wall_ref": sum(plain_ref),
            "op_p50_ref": statistics.median(plain_ref),
            "setup_s": statistics.median(s["nominal_s"] for s in setups),
            "peak_rss_mb": peak_rss_mb,
            "wall_s": sum(plain_s),
            "op_p50_s": statistics.median(plain_s),
            "setup_raw_s": statistics.median(s["raw_s"] for s in setups),
            "fail_rate": n_failed / len(op_s),
        },
    }
    if trace:
        # A pair's traced-minus-untraced difference is noise next to the
        # spans' cost, so the overhead is estimated from the cost of one
        # span.  The median pair difference is kept for reference, in
        # seconds of the run's median calibration loop.
        cost = span_cost_s()
        pair_diff = statistics.median(
            (second - first) * (1 if traced_second else -1)
            for first, second, traced_second
            in zip(op_ref[0::2], op_ref[1::2], is_traced[1::2]))
        result["trace_overhead"] = {
            "span_cost_s": cost, "spans": len(tracer.spans),
            "estimate_s": cost * len(tracer.spans),
            "pair_diff_median_s": pair_diff * result["calibration"]["median_s"]}
        result["per_layer"] = layer_metrics(
            tracer, counts, result["trace_overhead"]["estimate_s"])
        result["counts"] = counts
    if probes:
        result["probes"] = run_probes(plain, workloads.PROBES)
    result.update(correct=n_failed == 0, attempted=len(op_s), failed=n_failed)
    return result, tracer


def run_probes(api, probes):
    out = {}
    for name, (what, expected, fn) in probes.items():
        t0 = time.perf_counter()
        try:
            outcome = fn(api)
        except Exception as e:  # a probe's crash is its outcome
            outcome = type(e).__name__
        out[name] = {"runs": what, "outcome": outcome,
                     "outcome_at_seed_commit": expected,
                     "seconds": time.perf_counter() - t0}
    return out


def final_line(result):
    if result["trace"]:
        values, units = result["per_layer"], PER_LAYER
    else:
        values, units = result["end_to_end"], END_TO_END
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": values[k], "unit": u}
                        for k, u in units.items()}}


def report(result):
    """Lines for a reader; the JSON line comes after them."""
    r = result
    m = r["machine"]
    print(f"workload {r['workload']}  seed {r['seed']}  trace {r['trace']}  "
          f"ops {r['ops']}  python {m['python']}  nproc {m['nproc']}  "
          f"load {m['loadavg_at_start'][0]:.2f}")
    for k, u in {**END_TO_END, **REPORTED}.items():
        print(f"  {k:<28} {r['end_to_end'][k]:14.6g} {u}")
    pct = ", ".join(f"{k} {v:.4g}" for k, v in r["op_percentiles_s"].items())
    cal = r["calibration"]
    print(f"  untraced op seconds: {pct}; calibration median "
          f"{cal['median_s']:.4g} s, spread {cal['spread']:.3f}")
    for k, v in r.get("per_layer", {}).items():
        print(f"  {k:<28} {v:14.6g} {PER_LAYER[k]}")
    for name, p in r.get("probes", {}).items():
        print(f"  probe {name}: {p['outcome']} (seed commit: "
              f"{p['outcome_at_seed_commit']}) in {p['seconds']:.2f} s")
    for f in r["failures"]:
        print(f"  FAILED op {f['op']} (input {f['input']}): {f['error']}")


# ---------------------------------------------------------------------------
# Self-test
# ---------------------------------------------------------------------------

def self_test():
    """Each workload once at the smallest sizes, untraced and traced.  Every
    metric must be present with a finite value, a legal name and a legal
    unit, and the tables here must match BENCHMARK.json."""
    import workloads
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        got = {m["name"]: m["unit"] for m in spec[key]}
        if got != table:
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result, _ = run(name, DEFAULT_SEED, 0, trace, small=True,
                            probes=False)
            line = final_line(result)
            if not line["correct"]:
                problems.append(f"{name} trace={trace}: {result['failures']}")
            shown = {**END_TO_END, **REPORTED} if not trace else PER_LAYER
            values = result["per_layer" if trace else "end_to_end"]
            if set(values) != set(shown):
                problems.append(f"{name} trace={trace}: metric names differ")
            for m, u in shown.items():
                v = values.get(m)
                if not NAME_RE.fullmatch(m) or not UNIT_RE.fullmatch(u):
                    problems.append(f"illegal metric name or unit: {m} {u}")
                if not (isinstance(v, (int, float)) and math.isfinite(v)):
                    problems.append(f"{name}: {m} = {v!r} is not a number")
            print(f"self-test {name} trace={trace}: {len(shown)} metrics, "
                  f"{line['attempted']} ops, {line['failed']} failed")
    for p in problems:
        print(f"self-test: {p}")
    print("self-test ok" if not problems else "self-test FAILED")
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(NOMINAL_OP_S))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--setup-child", choices=sorted(NOMINAL_OP_S),
                    help=argparse.SUPPRESS)
    ap.add_argument("--op-input", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_child:
        return setup_child(args.setup_child, args.op_input, args.small)
    _import_library()
    if args.self_test:
        return self_test()
    if not args.workload:
        ap.error("--workload is required")
    result, tracer = run(args.workload, args.seed, args.seconds, bool(args.trace))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        tracer.write(OUT / f"{stem}-spans.json")
    report(result)
    print(f"  result file bench/out/{stem}.json")
    print(json.dumps(final_line(result)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
