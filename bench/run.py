"""rquiver benchmark: time to an exact verdict on three verification workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; rquiver is imported from its src/.

A set-up imports rquiver afresh and generates every input from the seed.  The
run is a closed loop in one thread: each case starts when the previous
verdict returned.  --trace 0 sets up SETUPS times and times one pass over the
cases of the last set-up.  Oracle checks run untimed.

On a shared machine the speed of one thread can move by a third within
seconds (as on the 2-vCPU VM the benchmark was defined on).  So every time is
scaled to a reference speed: a fixed Fraction loop is timed (calibration)
before and after each timed step -- a case, the import, a step of input
generation -- and the step's time is multiplied by REFERENCE_S over the mean
of those two calibrations.  setup_s
is the median of the set-ups; the percentiles are Harrell-Davis estimates,
which average the order statistics near the quantile instead of picking one.
The line before the result gives the same metrics unscaled, and the
percentiles as plain order statistics, so that the need for both can be
checked (bench/record.py keeps their spreads).

A run measures a fixed number of whole input blocks (BLOCKS), sized so that
the pass takes about run_seconds of BENCHMARK.json on the machine where the
benchmark was defined, and holds at least 110 cases, so that the 90th
percentile has ten beyond it.  Fixed work keeps the mix of cases, and with it
the percentiles, the same from run to run; faster code finishes sooner.
--seconds is accepted and does not size the run.

--trace 1 sets up twice and runs TRACED_BLOCKS blocks of both set-ups
alternately, block by block, the first untraced and the second traced, so
that trace_overhead_ratio compares the two at the same machine speed.  A
third set-up is traced again; the run fails if the two traced passes
disagree on any count.  It reports the first traced pass per layer, in
unscaled seconds, and writes its spans to bench/out/.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
import types
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import spans as tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS = 3
REFERENCE_S = 1e-3         # calibration time that defines the reference speed
BLOCKS = {"unipotent_newton": 30, "hc_roundtrip": 49, "hom_descent": 60}
TRACED_BLOCKS = {"unipotent_newton": 6, "hc_roundtrip": 7, "hom_descent": 15}
IMPORTED = ("exact", "gsets", "quiver", "species", "reps", "unipotent", "hc",
            "serialize", "cli", "randomgen")
COUNT_METRICS = ("calls", "count", "iterations")


def calibration():
    """Seconds a fixed Fraction loop takes right now, best of three."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        total = Fraction(0)
        for k in range(1, 400):
            total += Fraction(1, k)
        best = min(best, time.perf_counter() - t0)
    return best


class Clock:
    """Times steps in wall seconds and in seconds at the reference speed."""

    def __init__(self):
        self.cal = calibration()

    def measure(self, fn, *args):
        """(fn(*args), seconds, scaled seconds); calibrates afterwards."""
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        before, self.cal = self.cal, calibration()
        return out, dt, dt * 2 * REFERENCE_S / (before + self.cal)


def import_rquiver():
    """Fresh import of every rquiver module from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "rquiver" / "__init__.py").is_file():
        raise SystemExit(f"no rquiver sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in loaded_rquiver():
        del sys.modules[name]
    mods = {m: importlib.import_module(f"rquiver.{m}") for m in IMPORTED}
    origin = Path(mods["exact"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"rquiver was imported from {origin}, not from {src}")
    return types.SimpleNamespace(**mods)


def loaded_rquiver():
    """The rquiver entries of sys.modules, which lazy imports inside it use."""
    return {n: m for n, m in sys.modules.items() if n == "rquiver" or n.startswith("rquiver.")}


def setup(workload, seed, n_blocks):
    """Import and input generation, timed step by step.
    Returns (seconds, scaled seconds, rquiver, blocks)."""
    clock = Clock()
    rq, raw, scaled = clock.measure(import_rquiver)
    generate = workloads.WORKLOADS[workload](rq, seed, n_blocks)
    blocks = []
    while True:
        block, dt, sc = clock.measure(next, generate, None)
        raw, scaled = raw + dt, scaled + sc
        if block is None:
            break
        if block:
            blocks.append(block)
    gc.collect()
    return raw, scaled, rq, blocks


def attempt(case, tracer=None, case_id=0):
    """A case's verdict: (output or None, error text)."""
    try:
        if tracer is None:
            return case.run(), ""
        tracer.case = case_id
        return tracer.span(tracing.CASE, case.run), ""
    except Exception:  # a failing case is a wrong verdict, not a crash
        return None, traceback.format_exc(limit=4)


def verify(case, out, err):
    """Untimed oracle; returns the failure reason or an empty string."""
    if err:
        return err
    try:
        return case.check(out)
    except Exception:
        return traceback.format_exc(limit=4)


def hd_quantile(values, q):
    """Harrell-Davis estimate of the q-quantile (Biometrika 69, 1982): the
    order statistics weighted by the Beta((n+1)q, (n+1)(1-q)) density,
    integrated over [i/n, (i+1)/n] by Simpson's rule."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        if not 0 < x < 1:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    steps = 8
    weights = [sum(density((i + k / steps) / n) * (1 if k in (0, steps) else 2 + 2 * (k % 2))
                   for k in range(steps + 1)) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def summary(times, setups, ok, quantile=hd_quantile):
    return {"cases_per_s": ok / sum(times),
            "verdict_p50_ms": 1e3 * quantile(times, 0.5),
            "verdict_p90_ms": 1e3 * quantile(times, 0.9),
            "setup_s": statistics.median(setups)}


def plain_quantile(values, q):
    return statistics.quantiles(values, n=10)[round(10 * q) - 1]


def run_timed(workload, seed, n_blocks=None):
    n_blocks = n_blocks or BLOCKS[workload]
    setups, raw_setups = [], []
    for _ in range(SETUPS):
        raw, scaled, rq, blocks = setup(workload, seed, n_blocks)
        raw_setups.append(raw)
        setups.append(scaled)
    cases = [case for block in blocks for case in block]
    times, raw_times, outs = [], [], []
    clock = Clock()
    for case in cases:
        out, dt, scaled = clock.measure(attempt, case)
        outs.append(out)
        raw_times.append(dt)
        times.append(scaled)
    failures = {}
    for i, (case, (out, err)) in enumerate(zip(cases, outs)):
        reason = verify(case, out, err)
        if reason:
            failures[i] = reason
    for i in sorted(failures)[:3]:
        print(f"[{workload}] case {i} failed: {failures[i]}", file=sys.stderr)
    attempted, failed = len(times), len(failures)

    metrics = summary(times, setups, attempted - failed)
    metrics["pass_ratio"] = (attempted - failed) / attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    beyond = sum(t > metrics["verdict_p90_ms"] / 1e3 for t in times)
    print(f"{workload} seed={seed}: {attempted} cases, {failed} failed "
          f"(fail_ratio {failed / attempted:.4f}), {beyond} beyond p90; "
          + ", ".join(f"{k} {v:.6g}" for k, v in metrics.items()))
    checks = {"unscaled": summary(raw_times, raw_setups, attempted - failed),
              "plain_quantiles": summary(times, setups, attempted - failed, plain_quantile)}
    print("variants " + json.dumps(checks))
    return attempted, failed, metrics


def coeff_bits(rq, obj):
    """Largest numerator or denominator bit-length of any field element in obj."""
    QuadElement, QuadMatrix = rq.exact.QuadElement, rq.exact.QuadMatrix
    best, stack, seen = 0, [obj], set()
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, QuadMatrix):
            stack.extend(x.entries)
        elif isinstance(x, QuadElement):
            best = max(best, x.a.numerator.bit_length(), x.a.denominator.bit_length(),
                       x.b.numerator.bit_length(), x.b.denominator.bit_length())
        elif isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
        elif type(x).__module__.startswith("rquiver.") and hasattr(x, "__dict__"):
            stack.extend(vars(x).values())
    return best


def check_outputs(workload, rq, cases, outs):
    """Oracle over a pass: (failures, largest output bit-length)."""
    failed, bits = 0, 0
    for i, (case, (out, err)) in enumerate(zip(cases, outs)):
        reason = verify(case, out, err)
        if reason:
            if not failed:
                print(f"[{workload}] case {i} failed: {reason}", file=sys.stderr)
            failed += 1
        bits = max(bits, coeff_bits(rq, out))
    return failed, bits


def layer_metrics(tracer, bits):
    stats, modules = tracer.summary()
    out = {}
    for name in list(tracing.SPANS) + [tracing.CASE]:
        calls, incl, self_s = stats.get(name, (0, 0.0, 0.0))
        out.update({f"{name}.calls": calls, f"{name}.incl_s": incl,
                    f"{name}.self_s": self_s})
    for mod, self_s in modules.items():
        out[f"{mod}.self_s"] = self_s
    counters = tracer.counters
    out["exact.elem_new.count"] = counters["exact.elem_new.count"]
    out["unipotent.stabilize.iterations"] = counters["unipotent.stabilize.iterations"]
    attempted = counters["hc.roundtrip.attempted"]
    out["hc.roundtrip.constructive_ratio"] = (
        counters["hc.roundtrip.constructive"] / attempted if attempted else 0.0)
    out["exact.out_coeff_bits_max"] = bits
    return out


def is_count(name):
    return name.rsplit(".", 1)[-1] in COUNT_METRICS or name in (
        "exact.out_coeff_bits_max", "hc.roundtrip.constructive_ratio")


def traced_pass(workload, seed, n_blocks, with_untraced=False):
    """A traced pass over a fresh set-up: (tracer, layer metrics, failures,
    untraced and traced scaled seconds).  With with_untraced, the cases of
    another, untraced set-up run alternately with it, block by block; each
    runs with its own modules in sys.modules."""
    rq_u, untraced_blocks, modules_u = None, [], {}
    if with_untraced:
        *_, rq_u, untraced_blocks = setup(workload, seed, n_blocks)
        modules_u = loaded_rquiver()
    *_, rq, blocks = setup(workload, seed, n_blocks)
    modules = loaded_rquiver()
    tracer = tracing.Tracer()
    clock = Clock()
    untraced_cases, cases, untraced_outs, outs = [], [], [], []
    untraced_s = traced_s = 0.0
    tracer.install(rq)
    try:
        for i, block in enumerate(blocks):
            sys.modules.update(modules_u)
            for case in untraced_blocks[i] if untraced_blocks else ():
                out, _, scaled = clock.measure(attempt, case)
                untraced_cases.append(case)
                untraced_outs.append(out)
                untraced_s += scaled
            sys.modules.update(modules)
            for case in block:
                out, _, scaled = clock.measure(attempt, case, tracer, len(cases))
                cases.append(case)
                outs.append(out)
                traced_s += scaled
    finally:
        tracer.uninstall()
    failed, bits = check_outputs(workload, rq, cases, outs)
    sys.modules.update(modules_u)
    failed += check_outputs(workload, rq_u, untraced_cases, untraced_outs)[0]
    return tracer, layer_metrics(tracer, bits), failed, untraced_s, traced_s


def run_traced(workload, seed, n_blocks=None):
    n_blocks = n_blocks or TRACED_BLOCKS[workload]
    tracer, layers, failed, untraced_s, traced_s = traced_pass(workload, seed, n_blocks, True)
    _, again, failed_again, _, _ = traced_pass(workload, seed, n_blocks)
    failed += failed_again
    drift = [k for k in layers if is_count(k) and layers[k] != again[k]]
    if drift:
        raise SystemExit("traced counts differ between two passes with one seed: "
                         + ", ".join(f"{k} {layers[k]} != {again[k]}" for k in drift))
    layers["trace_overhead_ratio"] = untraced_s / traced_s
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload}-seed{seed}.tsv.gz")
    n_cases = layers[f"{tracing.CASE}.calls"]
    print(f"{workload} seed={seed}: {n_cases} cases x 3 passes, {failed} failed; "
          f"scaled untraced {untraced_s:.3f} s, traced {traced_s:.3f} s")
    return 3 * n_cases, failed, layers


def measure(workload, seed, trace, n_blocks=None):
    """The result object: end-to-end metrics untraced, per-layer traced.
    n_blocks overrides the run's size (the smoke test runs one block)."""
    if trace:
        attempted, failed, values = run_traced(workload, seed, n_blocks)
    else:
        attempted, failed, values = run_timed(workload, seed, n_blocks)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared["per_layer" if trace else "end_to_end"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="accepted; the run's size is fixed (BLOCKS)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(measure(args.workload, args.seed, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
