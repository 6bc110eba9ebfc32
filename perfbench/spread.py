#!/usr/bin/env python3
"""Run one workload over several seeds and report the spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload eco-b12 --seeds 1-10
    python3 perfbench/spread.py --workload paper-b20 --seeds 2019,7 --record

For every end-to-end metric it prints the ten (or however many) values,
their median and the distance between the first and third quartile as
a share of the median (``statistics.quantiles(values, n=4)``), which is
the steadiness figure each metric's ``bound`` in BENCHMARK.json is set
against. Runs are sequential, one process at a time.

``--record`` stores each correct run's fingerprints, work counters and
quality outputs in ``perfbench/reference.json`` under ``<seed>/<seconds>``;
later runs of that seed are then checked against them. Record only from
a commit whose results are known good.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"seed {seed}: no result (exit {done.returncode})\n"
                         f"{done.stderr}")
    return done.returncode, json.loads(lines[-2])["detail"], \
        json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", type=parse_seeds)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--log", help="append every run's output here "
                                      "as JSON lines")
    args = parser.parse_args(argv)

    values = {}
    bad = 0
    recorded = {}
    for seed in args.seeds:
        code, detail, result = run_once(args.workload, seed, args.seconds,
                                        args.trace)
        if args.log:
            with open(args.log, "a") as handle:
                handle.write(json.dumps({"detail": detail,
                                         "result": result}) + "\n")
        ok = code == 0 and result["correct"]
        bad += not ok
        print(f"seed {seed:>6}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              f"reference={detail['reference']} "
              f"counters_match={detail['counters_match_reference']} "
              f"work={json.dumps(detail['work_counters'])}")
        for failure in detail["failures"]:
            print(f"    ! {failure}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        if ok and args.record:
            recorded[f"{seed}/{args.seconds}"] = {
                "fingerprints": detail["fingerprints"],
                "counters": detail["work_counters"],
                "quality": {k: v["value"]
                            for k, v in detail["quality"].items()
                            if not k.endswith("_ms")},
            }

    print(f"{'metric':28s} {'median':>12s} {'iqr/median':>10s}  values")
    for name, series in values.items():
        median = statistics.median(series)
        spread = 0.0
        if len(series) >= 2 and median:
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
        shown = " ".join(f"{v:.4g}" for v in series)
        print(f"{name:28s} {median:12.6g} {spread:10.4f}  {shown}")

    if recorded:
        try:
            with open(REFERENCE) as handle:
                reference = json.load(handle)
        except FileNotFoundError:
            reference = {}
        reference.setdefault(args.workload, {}).update(recorded)
        with open(REFERENCE, "w") as handle:
            json.dump(reference, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"recorded {len(recorded)} seed(s) in {REFERENCE}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
