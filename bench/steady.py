"""Steadiness check: do two sets of seeded runs of the same code agree?

usage: python3 bench/steady.py [--baseline FILE]

Run from the root of a qcreg checkout. For each workload, set s (0 or 1)
makes RUNS untraced runs of bench/run.py with seeds s*RUNS+1 .. (s+1)*RUNS
and the run length from BENCHMARK.json. Per end-to-end metric it prints each
set's median and spread, (q3 - q1) / median with quartiles from
``statistics.quantiles(values, n=4)``, and whether the sets agree:

* both sets' spreads are within the metric's bound, and
* the second set's median is not worse than the first's by more than the bound.

Every run must also print ``"correct": true``. The exit code is 0 when all
of it holds. With --baseline the medians and quartiles of every set are
written to FILE as JSON.
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

RUN = Path(__file__).resolve().parent / "run.py"
#: sets of runs compared, and runs per set
SETS = 2
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def worse_by(first: float, later: float, better: str) -> float:
    """Relative amount by which `later` is worse than `first`."""
    return (later - first) / first if better == "lower" else (first - later) / first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline")
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    ok = True
    baseline = {
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": spec["run_seconds"],
        "runs_per_set": RUNS,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for s in range(SETS):
            results = []
            for seed in range(s * RUNS + 1, (s + 1) * RUNS + 1):
                t0 = time.perf_counter()
                res = one_run(workload, seed, spec["run_seconds"])
                results.append(res)
                print(f"{workload} set {s + 1} seed {seed} ({time.perf_counter() - t0:.1f} s): "
                      f"correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} "
                      + " ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items()),
                      flush=True)
                ok &= res["correct"] is True
            sets.append(results)
        baseline["workloads"][workload] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in results]) for results in sets]
            spreads_ok = all(st["spread"] <= bound for st in stats)
            drift = worse_by(stats[0]["median"], stats[1]["median"], metric["better"])
            agree = spreads_ok and drift <= bound
            ok &= agree
            print(f"{workload:14s} {name:12s} bound {bound:.2f}  "
                  + "  ".join(f"set{i + 1} median {st['median']:.4g} spread {st['spread']:.3f}"
                              for i, st in enumerate(stats))
                  + f"  worse by {drift:+.3f}  {'agree' if agree else 'DISAGREE'}", flush=True)
            baseline["workloads"][workload][name] = {
                "unit": metric["unit"], "sets": stats}
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(baseline, indent=1) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
