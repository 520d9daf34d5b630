#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs alternating sets of one workload (set A run 1, set B run 1, set A
run 2, ...), each run with its own seed, and prints for every metric
each set's median and quartiles, its spread (interquartile distance as
a share of the median), and whether the sets agree within the bound
BENCHMARK.json fixes for that metric. Each run's line also shows the
share of the machine's CPU time the hypervisor stole during it, to tell
a noisy host from a noisy program.

    python3 e2ebench/steady.py --workload simulate --runs 5
    python3 e2ebench/steady.py --workload campaign --runs 10 --sets 2
    python3 e2ebench/steady.py --workload plan --counts --seed 7

--counts instead runs the traced measurement twice at one seed, prints
every per-layer metric of both runs, and checks that every metric
reported as a count is identical in both.
Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed, seconds, trace):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: correct={res['correct']} failed={res['failed']}")
    return res, host_steal(proc.stderr)


def host_steal(stderr):
    """The run's median share of machine CPU time stolen by the hypervisor,
    as its standard error reports it: a diagnostic, never part of a verdict."""
    for line in stderr.splitlines():
        if line.startswith("median steal "):
            return float(line.split()[-1])
    return float("nan")


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def steadiness(bench, args):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    sets = [dict() for _ in range(args.sets)]
    seed = args.seed
    for r in range(args.runs):
        for s in range(args.sets):
            res, steal = run_once(bench, args.workload, seed, args.seconds, 0)
            print(f"run {r + 1} set {chr(65 + s)} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in sorted(res["metrics"].items())) +
                f" (host steal {steal:.3f})", flush=True)
            for k, v in res["metrics"].items():
                sets[s].setdefault(k, []).append(v["value"])
            seed += 1
    ok = True
    print(f"\n{'metric':<18} {'set':<4} {'q1':>11} {'median':>11} {'q3':>11} {'spread':>8} {'bound':>6}  verdict")
    for name, m in bounds.items():
        bound = m["bound"]
        meds = []
        for s, values in enumerate(sets):
            q1, med, q3, sp = spread(values[name])
            meds.append(med)
            steady = sp <= bound
            verdict = "steady" if sp <= bound / 3 else ("within bound" if steady else "TOO WIDE")
            ok = ok and steady
            print(f"{name:<18} {chr(65 + s):<4} {q1:11.5g} {med:11.5g} {q3:11.5g} {sp:8.3f} {bound:6.2f}  {verdict}")
        if len(meds) > 1:
            worse = [(b - meds[0]) / meds[0] * (1 if m["better"] == "lower" else -1) for b in meds[1:]]
            agree = all(w <= bound for w in worse)
            ok = ok and agree
            print(f"{'':<18} sets agree within {bound:.2f}: {'yes' if agree else 'NO'} "
                  f"(worst drift {max(worse):+.3f})")
    return ok


def counts(bench, args):
    runs = [run_once(bench, args.workload, args.seed, args.seconds, 1)[0] for _ in range(2)]
    ok = True
    for name, m in sorted(runs[0]["metrics"].items()):
        other = runs[1]["metrics"][name]["value"]
        # Eviction totals grow with the ops a window completes; every
        # other count is per run, per campaign or per shard.
        exact = m["unit"].startswith("count") and name != "serve.cache_evictions"
        verdict = "-"
        if exact:
            verdict = "identical" if m["value"] == other else "DIFFERS"
            ok = ok and m["value"] == other
        print(f"{name:<36} {m['value']:<14.8g} {other:<14.8g} {m['unit']:<12} {verdict}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5, help="runs per set")
    ap.add_argument("--sets", type=int, default=2, help="alternating sets")
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    ap.add_argument("--seconds", type=int, help="window length (default: run_seconds)")
    ap.add_argument("--counts", action="store_true", help="check traced counts repeat at one seed")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    ok = counts(bench, args) if args.counts else steadiness(bench, args)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
