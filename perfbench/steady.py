#!/usr/bin/env python3
"""Steadiness check: run the benchmark in two sets on the same code and
compare each end-to-end metric against its bound in BENCHMARK.json.

    python3 perfbench/steady.py

It runs every workload of BENCHMARK.json ten times per set at its
run_seconds, with the seeds 101..110 (set 1) and 201..210 (set 2).  The
sets are interleaved: seed 100+i of set 1, then seed 200+i of set 2, each
running every workload, so that a slow stretch of the host hits both
sets alike.  For each workload and metric it prints, per set, the median
and the spread (distance between the first and third quartile as a
share of the median).  It fails when a spread exceeds the metric's
bound, when the two sets' medians differ by more than the bound in
either direction, or when the share of failed operations differs
between the sets.  The runs are written to perfbench/out/steady-<time>.json.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10


def run_once(name, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{name} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["elapsed_s"] = time.perf_counter() - t
    return res


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    runs = {}  # (set, workload) -> [result]
    for i in range(1, RUNS + 1):
        for k in range(1, SETS + 1):
            seed = 100 * k + i
            for name in names:
                res = run_once(name, seed, bench["run_seconds"])
                runs.setdefault((k, name), []).append(res)
                vals = " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.4g}" for m in metrics)
                print(f"set {k} seed {seed} {name}: {vals} "
                      f"failed {res['failed']}/{res['attempted']} ({res['elapsed_s']:.1f} s)", flush=True)

    ok = True
    print(f"\n{'workload':<10} {'metric':<16} {'bound':>6} " + " ".join(
        f"{'median' + str(k):>12} {'spread' + str(k):>8}" for k in range(1, SETS + 1)
    ) + f" {'worse':>7}  verdict")
    for name in names:
        shares = {k: sum(r["failed"] for r in runs[(k, name)]) / sum(r["attempted"] for r in runs[(k, name)])
                  for k in range(1, SETS + 1)}
        if len(set(shares.values())) > 1:
            ok = False
            print(f"{name}: failed share differs between sets: {shares}")
        for m in metrics:
            cols, meds, bad = [], [], []
            for k in range(1, SETS + 1):
                vals = [r["metrics"][m["name"]]["value"] for r in runs[(k, name)]]
                med, spr = statistics.median(vals), spread(vals)
                meds.append(med)
                cols.append(f"{med:>12.5g} {spr:>8.3f}")
                if spr > m["bound"]:
                    bad.append("spread")
            # how much worse set 2 is than set 1; better by as much also fails
            worse = (meds[1] - meds[0]) / meds[0] * (1 if m["better"] == "lower" else -1)
            if abs(worse) > m["bound"]:
                bad.append("shift")
            ok = ok and not bad
            print(f"{name:<10} {m['name']:<16} {m['bound']:>6} {' '.join(cols)} {worse:>+7.3f}  "
                  f"{'FAIL ' + ','.join(bad) if bad else 'ok'}")

    (HERE / "out").mkdir(exist_ok=True)
    path = HERE / "out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({f"set{k}/{n}": v for (k, n), v in runs.items()}, indent=1))
    print(f"\nruns written to {path.relative_to(ROOT)}; {'steady' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
