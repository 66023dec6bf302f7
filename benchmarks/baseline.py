"""Measure the end-to-end baseline: sets of runs over seeds, with spreads.

    python3 benchmarks/baseline.py --seconds 20 --sets 2 --runs 10 [--workload NAME ...]

Runs ``run.py --trace 0`` one run at a time, with seeds
``set * runs + i``, then one ``--trace 1`` run per workload at the
default seed, and writes ``benchmarks/BENCH_baseline.json``: per set,
workload and end-to-end metric, the median, the quartiles, the spread
(q3 - q1) / median and the values of the runs; and the per-layer
metrics of the traced runs.  A run that is not correct stops the
measurement.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run
import workloads

OUT = Path(__file__).with_name("BENCH_baseline.json")


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict | None, dict | None]:
    """The result line and the record of one run, or (None, None) if it is not correct."""
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
    if not result or not result["correct"]:
        print(f"{workload} seed {seed} trace {trace}: not correct\n{proc.stdout}{proc.stderr}", file=sys.stderr)
        return None, None
    return result, json.loads((run.RUNS / f"BENCH_{workload}_seed{seed}_trace{trace}.json").read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    chosen = args.workload or workloads.WORKLOADS
    sets: dict[str, dict] = {}
    environment = None
    for k in range(args.sets):
        name = chr(ord("A") + k)
        sets[name] = {}
        for workload in chosen:
            values: dict[str, list[float]] = {}
            for seed in range(k * args.runs, (k + 1) * args.runs):
                result, record = _run(workload, seed, args.seconds, 0)
                if not result:
                    return 1
                environment = record["environment"]
                for metric, m in result["metrics"].items():
                    values.setdefault(metric, []).append(m["value"])
                print(f"set {name} {workload} seed {seed}: "
                      + " ".join(f"{m}={v[-1]:.5g}" for m, v in values.items()), flush=True)
            sets[name][workload] = {metric: _summary(v) for metric, v in values.items()}
            for metric, s in sets[name][workload].items():
                print(f"set {name} {workload} {metric}: median {s['median']:.5g} spread {s['spread']:.4f}", flush=True)

    traced = {}
    for workload in chosen:
        result, record = _run(workload, workloads.DEFAULT_SEED, args.seconds, 1)
        if not result:
            return 1
        traced[workload] = record["per_layer"]
        print(f"traced {workload}: trace.overhead_s={traced[workload]['trace.overhead_s']:.4g}", flush=True)

    OUT.write_text(json.dumps({
        "description": f"End-to-end baseline of benchmarks/run.py: {args.sets} sets of {args.runs} runs per "
                       f"workload, --seconds {args.seconds}, --trace 0; set k uses seeds "
                       f"{args.runs}k .. {args.runs}k + {args.runs - 1}.  Per metric: median, quartiles, "
                       "spread = (q3 - q1) / median, and the values of the runs.",
        "environment": environment,
        "ref_nominal_s": run.REF_NOMINAL_S,
        "sets": sets,
        "per_layer_seed0": traced,
    }, indent=1) + "\n")
    print(f"wrote {OUT.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
