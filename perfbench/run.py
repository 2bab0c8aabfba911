#!/usr/bin/env python3
"""Run one domsplit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the root of a checkout: it imports domsplit from ./src.

--trace 0 sets the workload up, then runs its round of calls in a closed
loop with one client (the next call starts when the previous returns)
until --seconds have passed, finishing the round it is in, and prints
the end-to-end metrics.  --seconds defaults to run_seconds of
BENCHMARK.json.  --trace 1 runs one traced round of every
workload, so each per-layer metric comes from the workload where its
layer works most, and prints the per-layer metrics.  --workload all runs
each workload in a fresh process, one after another.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Outputs of every call are
checked against independent computations (see workloads.py): a call
that raises or whose output fails a check counts as failed, and a
failed check also makes `correct` false.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS/OpenMP thread per process: the scan's jobs=2 pool already
# fills the 2 cores, and threaded BLAS would oversubscribe them.  Set
# before numpy loads; pool workers inherit it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
NAMES = ("scan", "perturb", "resolvent")
BENCHMARK = HERE.parent / "BENCHMARK.json"
# setup_s is the median of this many set-ups: this process plus fresh ones
SETUP_REPEATS = 5
SUBPROCESS_TIMEOUT_S = 170


def load_program():
    """Import domsplit from the checkout's src/ and the workload module."""
    if not (SRC / "domsplit" / "__init__.py").is_file():
        raise SystemExit(f"no domsplit sources under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import domsplit

    if Path(domsplit.__file__).resolve().parent != (SRC / "domsplit").resolve():
        raise SystemExit(f"domsplit loaded from {domsplit.__file__}, not from {SRC}")
    import workloads

    return workloads


def set_up(name, seed):
    """Import, input generation and one untimed warm-up: (workload, seconds)."""
    t0 = time.perf_counter()
    workloads = load_program()
    wl = workloads.WORKLOADS[name](seed)
    wl.build()
    wl.warm_up()
    return wl, time.perf_counter() - t0


def environment():
    import numpy
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, AttributeError):
            return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy),
        "scipy_openblas": blas(scipy),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_round(calls, tracer=None, latencies=None):
    """Call each operation once; returns [(output or None, error or None)]."""
    results = []
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.call = i
        t = time.perf_counter()
        try:
            results.append((call.fn(), None))
        except Exception:
            results.append((None, traceback.format_exc()))
        if latencies is not None:
            latencies.append(time.perf_counter() - t)
    return results


class Tally:
    """Attempted and failed operations, plus whether any output was wrong."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = self.failed = 0
        self.correct = True
        self.first = {}  # call index -> fingerprint of an output that passed

    def add(self, i, out, error, also_wrong=()):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"{self.wl.name}: call {i} raised\n{error}", file=sys.stderr)
            return
        fp = self.wl.fingerprint(out)
        # the first output that passes is checked in full; every repeat
        # of the same call must reproduce it bit for bit
        first = self.first.get(i)
        if first is None:
            errs = self.wl.check(i, out)
        elif first != fp:
            errs = [f"call {i}: output differs from its first passing output, not reproducible"]
        else:
            errs = []
        errs += list(also_wrong)
        if errs:
            self.failed += 1
            self.correct = False
            for e in errs[:5]:
                print(f"{self.wl.name}: check failed: {e}", file=sys.stderr)
        else:
            self.first.setdefault(i, fp)

    def compare(self, label, untraced, traced):
        """One operation whose traced and untraced outputs must be equal."""
        self.attempted += 1
        if untraced != traced:
            self.failed += 1
            self.correct = False
            print(f"{self.wl.name}: {label} differs when traced", file=sys.stderr)


def measure(wl, seconds):
    calls = wl.round_calls()
    latencies, results = [], []
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    while True:
        results += run_round(calls, latencies=latencies)
        if time.perf_counter() - t0 >= seconds:
            break
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    rounds = len(results) // len(calls)
    units = rounds * sum(c.units for c in calls)
    return {
        "calls": calls, "results": results, "latencies": latencies,
        "wall": wall, "cpu": cpu, "rounds": rounds, "units": units,
    }


def peak_rss_mib():
    # Linux reports ru_maxrss in KiB; the children figure is the largest
    # single reaped child (a pool worker)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def fresh_setup_s(name, seed):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(args):
    wl, setup_s = set_up(args.workload, args.seed)
    m = measure(wl, args.seconds)
    rss = peak_rss_mib()
    setups = [setup_s] + [fresh_setup_s(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
    tally = Tally(wl)
    n_calls = len(m["calls"])
    for k, (out, err) in enumerate(m["results"]):
        tally.add(k % n_calls, out, err)
    lat_ms = sorted(x * 1e3 for x in m["latencies"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "work_per_s": (m["units"] / m["wall"], "units/s"),
        "call_p50_ms": (statistics.median(lat_ms), "ms"),
        "cpu_ms_per_unit": (m["cpu"] * 1e3 / m["units"], "ms"),
        "peak_rss_mib": (rss, "MiB"),
    }
    print(f"{wl.name}: {len(lat_ms)} calls in {m['rounds']} rounds, {m['units']} {wl.unit} units, "
          f"{m['wall']:.2f} s timed, {tally.attempted} attempted, {tally.failed} failed")
    print(f"  set-ups (s): {', '.join(f'{s:.3f}' for s in setups)}")
    if len(lat_ms) >= 100:
        p90 = statistics.quantiles(lat_ms, n=10)[-1]
        print(f"  call_p90_ms {p90:.3f} ms (from {len(lat_ms)} calls)")
    return tally, metrics


def traced(args):
    """One traced round of every workload, plus the untraced rounds the
    overhead and the parallel efficiency are measured against."""
    workloads = load_program()
    import tracing

    wls = {}
    for name in NAMES:
        wls[name] = workloads.WORKLOADS[name](args.seed)
        wls[name].build()
        wls[name].warm_up()
    # the inputs built again under the tracer: realize.ms, and base
    # certificates that must match the untraced ones
    tracer = tracing.Tracer()
    tracer.phase = "setup"
    tracer.install()
    try:
        rebuilt = workloads.WORKLOADS["perturb"](args.seed)
        rebuilt.build()
        workloads.WORKLOADS["scan"](args.seed).build()
    finally:
        tracer.uninstall()

    probe = {}
    tallies = []
    for name in NAMES:
        wl = wls[name]
        tally = Tally(wl)
        if name == "perturb":
            for label, a, b in zip([w[0] for w in wl.windows], wl.certificates, rebuilt.certificates):
                tally.compare(f"{label}: base certificate JSON", a, b)
        calls = wl.round_calls(serial=True)
        reference = {}
        if name == "scan":
            t = time.perf_counter()
            reference["jobs=2"] = run_round(wl.round_calls())
            probe["jobs2_wall_s"] = time.perf_counter() - t
        if name == args.workload:
            t = time.perf_counter()
            reference["untraced"] = run_round(calls)
            probe["untraced_s"] = time.perf_counter() - t
        tracer.phase = name
        tracer.install()
        t = time.perf_counter()
        try:
            results = run_round(calls, tracer=tracer)
        finally:
            tracer.uninstall()
        if name == args.workload:
            probe["traced_s"] = time.perf_counter() - t
        for i, (out, err) in enumerate(results):
            differ = [
                f"call {i}: traced output differs from the {key} run"
                for key, ref in reference.items()
                if err is None and ref[i][1] is None and wl.fingerprint(ref[i][0]) != wl.fingerprint(out)
            ]
            tally.add(i, out, err, differ)
        print(f"{name}: traced round of {len(calls)} calls, {tally.failed} failed")
        tallies.append(tally)

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(path)
    print(f"  {len(tracer.spans)} spans written to {path.relative_to(HERE.parent)}")
    return tallies, tracing.per_layer_metrics(tracer, probe)


def report(tallies, metrics):
    width = max(len(k) for k in metrics)
    for k, (v, unit) in metrics.items():
        print(f"  {k:<{width}} {v:>14.6g} {unit}")
    result = {
        "correct": all(t.correct for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own fresh process; a combined result last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"{name} exited with {proc.returncode}")
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of the timed loop (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this process and print it")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads(BENCHMARK.read_text())["run_seconds"]
    if args.setup_only and args.workload != "all":
        _, setup_s = set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.workload == "all":
        if args.trace:
            raise SystemExit("every traced run covers all workloads; pick one to name it")
        run_all(args)
        return 0
    if args.trace:
        tallies, metrics = traced(args)
    else:
        tally, metrics = end_to_end(args)
        tallies = [tally]
    print("env " + json.dumps(environment()))
    report(tallies, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
