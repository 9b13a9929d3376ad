#!/usr/bin/env python3
"""Checks on the benchmark itself.

    python3 perfbench/check.py names
        Run every workload once untraced and once traced (short runs, the
        default seed) and require that the metrics each prints are exactly
        the names, with the units, that BENCHMARK.json lists, and that
        every run is correct.

    python3 perfbench/check.py spread --workload W
        Run W on ten consecutive seeds from 1 and print, for every
        end-to-end metric, the median, the quartiles and the interquartile
        spread as a share of the median, next to the metric's bound. Exits
        non-zero when a spread is not below a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPREAD_RUNS = 10
SPREAD_FIRST_SEED = 1


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def names(_args):
    b = spec()
    ok = True
    for w in b["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in b[key]}
            result = run(w["name"], 20160816, 1, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
            good = result["correct"] and not (missing or extra or units)
            ok &= good
            print(f"{w['name']:>13} trace {trace}: {len(got)} metrics, correct={result['correct']}"
                  f"{' missing ' + str(missing) if missing else ''}"
                  f"{' extra ' + str(extra) if extra else ''}"
                  f"{' unit mismatch ' + str(units) if units else ''}")
    print("names: ok" if ok else "names: FAILED")
    return 0 if ok else 1


def spread(args):
    b = spec()
    bounds = {m["name"]: m["bound"] for m in b["end_to_end"]}
    values = {m: [] for m in bounds}
    for i in range(SPREAD_RUNS):
        seed = SPREAD_FIRST_SEED + i
        result = run(args.workload, seed, b["run_seconds"], 0)
        for m in bounds:
            values[m].append(result["metrics"][m]["value"])
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{m}={result['metrics'][m]['value']:.6g}" for m in bounds), flush=True)
    ok = True
    for m, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        share = (q3 - q1) / med
        steady = share < bounds[m] / 3
        ok &= steady
        print(f"{m:>12}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {share:.4f}"
              f" bound {bounds[m]} {'ok' if steady else 'WIDE'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("names").set_defaults(func=names)
    sp = sub.add_parser("spread")
    sp.add_argument("--workload", required=True)
    sp.set_defaults(func=spread)
    args = ap.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
