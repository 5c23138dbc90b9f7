"""Repeat the benchmark over seeds and summarize each metric's spread.

    python3 bench/record.py --workloads hom_descent --seeds 1-5
    python3 bench/record.py --seeds 1-10 --trace --write bench/BASELINE.json

Runs ``bench/run.py`` once per (workload, seed), one run at a time, and
prints per metric the median, the quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median next to the metric's bound from BENCHMARK.json,
flagged WIDE above a third of the bound.  It also gives the spreads of the
same metrics unscaled and with plain order-statistic percentiles (the
"variants" line of run.py), which show what the calibration and the
Harrell-Davis estimates buy.  With --trace each seed also gets a traced run.
--write stores all of it as the baseline, with each workload's traced time
shares beside the profile figures in bench/design.json; workloads not run
keep their earlier entry.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    print("   ", lines[0], flush=True)
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("variants "):
            result["variants"] = json.loads(line.split(" ", 1)[1])
    return result


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def summarize(results):
    """metric -> {median, q1, q3, spread, unit} over a list of run results."""
    return {name: {**quartiles([r["metrics"][name]["value"] for r in results]),
                   "unit": results[0]["metrics"][name]["unit"]}
            for name in results[0]["metrics"]}


def variant_spreads(results):
    """variant -> metric -> spread, from the runs' variants lines."""
    return {variant: {name: quartiles([r["variants"][variant][name] for r in results])["spread"]
                      for name in metrics}
            for variant, metrics in results[0]["variants"].items()}


def shares(layers, figures):
    """Traced time shares of a workload, beside the profile figures; a share
    disagrees when it is off its figure by more than tolerance x figure."""
    total = layers["case.incl_s"]["median"]
    rows = {f"{m}.self": layers[f"{m}.self_s"]["median"] / total
            for m in ("exact", "gsets", "quiver", "species", "reps", "unipotent",
                      "hc", "serialize", "cli")}
    for key, fig in figures.items():
        share = layers[fig["metric"]]["median"] / total
        rows[key] = {"traced": share, "profile": fig["share"],
                     "disagrees": abs(share - fig["share"]) > fig["tolerance"] * fig["share"]}
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="unipotent_newton,hc_roundtrip,hom_descent")
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--write", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    design = json.loads((BENCH_DIR / "design.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    baseline = {}
    for workload in args.workloads.split(","):
        timed = [run_once(workload, s, seconds, 0) for s in args.seeds]
        entry = {"end_to_end": summarize(timed),
                 "variant_spreads": variant_spreads(timed),
                 "failed": sum(r["failed"] for r in timed),
                 "attempted": sum(r["attempted"] for r in timed)}
        print(f"{workload}: {entry['attempted']} cases over {len(args.seeds)} seeds, "
              f"{entry['failed']} failed")
        for name, st in entry["end_to_end"].items():
            flag = "" if st["spread"] <= bounds[name] / 3 else "  WIDE"
            print(f"  {name:16s} median {st['median']:10.5g} {st['unit']:5s} "
                  f"q1 {st['q1']:10.5g} q3 {st['q3']:10.5g} "
                  f"spread {st['spread']:.4f} / bound {bounds[name]}{flag}")
        for variant, spreads in entry["variant_spreads"].items():
            print(f"  {variant} spreads: "
                  + ", ".join(f"{k} {v:.4f}" for k, v in spreads.items()))
        if args.trace:
            traced = [run_once(workload, s, seconds, 1) for s in args.seeds]
            entry["per_layer"] = summarize(traced)
            entry["shares"] = shares(entry["per_layer"], design["profile_figures"][workload])
            print(f"  shares: {json.dumps(entry['shares'])}")
        baseline[workload] = entry
    if args.write:
        doc = json.loads(args.write.read_text()) if args.write.exists() else {}
        doc.update(seeds=args.seeds, run_seconds=seconds)
        doc.setdefault("workloads", {}).update(baseline)
        args.write.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
