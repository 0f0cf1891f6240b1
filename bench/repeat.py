#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises the spread.

    python3 bench/repeat.py --seeds 1-10 [--workloads query ...] \
        [--seconds S] [--trace 0|1] [--out bench/BENCH_x.json]

For every workload, runs ``bench/run.py`` once per seed, each in a fresh
interpreter, and reports per metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  End-to-end
spreads are compared with a third of the bounds in BENCHMARK.json.  The
workload-specific figures of each run's record (bench/out/), and the
scaled median time of each kind of operation (``scaled.<kind>``), are
summarised the same way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "loadavg_at_start": os.getloadavg(), "seconds": args.seconds,
               "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        metrics, named, units = {}, {}, {}
        attempted = failed = 0
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{args.trace}.json").read_text())
            for name, m in record["named"].items():
                named.setdefault(name, []).append(m["value"])
                units.setdefault(name, m["unit"])
            for name, seconds in record["kinds_scaled_s"].items():
                named.setdefault(f"scaled.{name}", []).append(seconds)
                units.setdefault(f"scaled.{name}", "s")
            print(f"{workload} seed {seed}: {wall:.1f} s wall, correct={result['correct']}", file=sys.stderr)
        out = {"attempted": attempted, "failed": failed, "end_to_end": {}, "named": {}}
        for name, values in metrics.items():
            out["end_to_end"][name] = dict(summarise(values), unit=units[name])
            bound = bounds.get(name)
            if bound is not None:
                out["end_to_end"][name]["bound"] = bound
                if name != "setup_s" and out["end_to_end"][name]["spread"] > bound / 3:
                    steady = False
        for name, values in named.items():
            out["named"][name] = dict(summarise(values), unit=units[name])
        summary["workloads"][workload] = out
        for name, s in out["end_to_end"].items():
            print(f"{workload:14s} {name:30s} median {s['median']:12.6g} {s['unit']:8s}"
                  f" spread {s['spread']:.4f}  bound {s.get('bound', '-')}")
    summary["steady"] = steady
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps({"steady": steady}))


if __name__ == "__main__":
    main()
