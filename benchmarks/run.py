"""The dyonstark benchmark: one workload, one seed, one result line.

    python3 benchmarks/run.py --workload stark-tables --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
its ``src`` directory, nothing is installed.  The load is a closed loop
with one client: operations run one after another, each in a fresh
interpreter (a CLI user pays for lazy caches on every call), and never
more than one child process exists at a time.  BLAS threads are pinned
to 1 in every child.

A run first imports the package ``SETUP_PROBES`` times in fresh
interpreters, then repeats whole passes over the workload's operations
until ``--seconds`` have elapsed (at least one pass), checking every
output.  With ``--trace 1`` it then makes one more pass with every layer
wrapped, and reports the per-layer metrics of that pass; the
end-to-end metrics are always measured untraced.

Every end-to-end time is host-normalised: each child times fixed
reference work next to and during what it measures (``reference.py``,
``child.py``), and a timing is reported as
``measured * REF_NOMINAL_S / reference``, that is, in seconds on a host
where the full reference takes ``REF_NOMINAL_S``.  Neighbour load on a
shared host slows the program and the reference alike, so the ratio
holds steady where raw times drift by 20 % or more between runs.  The
raw times and the reference times are kept in the record.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment, seed, generated arguments, every sample, quartiles) goes
to ``.bench_runs/BENCH_<workload>_seed<seed>_trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

SETUP_PROBES = 5
# Unit scale of the host-normalised times: the reference work's wall
# time on a 2-core Xeon VM when no neighbour load slows it.
REF_NOMINAL_S = 0.05
RUN_DEADLINE_S = 170  # a child still running then is killed and its operation fails
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# (metric, unit); medians over the passes of a run (setup_s: over every
# import in the run).  The times are host-normalised.  success_rate is
# 1 - failed / attempted.
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("success_rate", "fraction"),
)


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(versions: dict) -> dict:
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "child_env": CHILD_ENV,  # BLAS threads pinned to 1
        "max_concurrent_children": 1,
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
    }


class Runner:
    """Runs operations, one child process at a time, and checks outputs."""

    def __init__(self, tag: str, digests: dict[str, str]):
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.digests = digests
        self.work = RUNS / tag
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = {**os.environ, **CHILD_ENV, "PYTHONPATH": str(SRC)}
        self.versions: dict = {}

    def _child(self, op: dict | None, entry: str, spans: Path | None) -> tuple[dict, bytes]:
        out, result = self.work / "out", self.work / "result.json"
        for path in (out, result):
            path.unlink(missing_ok=True)
        job = {"op": op, "entry": entry, "src": str(SRC), "out": str(out),
               "result": str(result), "spans": str(spans) if spans else None}
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(job)],
                cwd=ROOT, env=self.env, capture_output=True,
                timeout=max(1.0, self.deadline - time.perf_counter()),
            )
        except subprocess.TimeoutExpired:
            return {"error": f"killed at the run's {RUN_DEADLINE_S} s deadline"}, b""
        if proc.returncode != 0 or not result.is_file():
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
            return {"error": f"child exited {proc.returncode}: {' | '.join(tail)}"}, b""
        res = json.loads(result.read_text())
        self.versions = res["versions"]
        data = out.read_bytes() if out.is_file() else b""
        out.unlink(missing_ok=True)
        return res, data

    def probe(self, entry: str) -> float | None:
        """Host-normalised import time of ``entry`` in a fresh interpreter."""
        res, _ = self._child(None, entry, None)
        return _setup_s(res)

    def execute(self, op: dict, spans: Path | None = None) -> tuple[dict, bytes]:
        """The child's result and the output bytes of one operation."""
        return self._child(op, _entry(op), spans)

    def judge(self, op: dict, res: dict, data: bytes) -> dict:
        """The operation's record; ``failure`` is None only for a right output."""
        failure = res.get("error")
        if failure is None and res["exit_code"] != 0:
            failure = f"exit code {res['exit_code']}"
        if failure is None:
            failure = checks.check_output(op, data, self.digests)
        raw_wall, raw_cpu = res.get("wall_s", 0.0), res.get("cpu_s", 0.0)
        return {
            "id": op["id"],
            "failure": failure,
            "sha256": checks.sha256(data),
            "setup_s": _setup_s(res),
            "wall_s": raw_wall * REF_NOMINAL_S / res["ref_wall_s"] if "ref_wall_s" in res else 0.0,
            "cpu_s": raw_cpu * REF_NOMINAL_S / res["ref_cpu_s"] if "ref_cpu_s" in res else 0.0,
            "raw": {key: res.get(key) for key in ("import_s", "import_ref_s", "wall_s", "cpu_s", "ref_wall_s", "ref_cpu_s", "ref_samples")},
            "maxrss_mib": res.get("maxrss_kib", 0) / 1024.0,
            "counters": res.get("counters"),
        }

    def run_pass(self, ops: list[dict], traced: bool = False) -> dict:
        records = []
        for i, op in enumerate(ops):
            spans = self.work / f"spans-{i}.npz" if traced else None
            records.append(self.judge(op, *self.execute(op, spans)))
        return summarize_pass(records)


def _setup_s(res: dict) -> float | None:
    if "import_s" not in res:
        return None
    return res["import_s"] * REF_NOMINAL_S / res["import_ref_s"]


def _entry(op: dict) -> str:
    return "dyonstark.cli" if op["kind"] == "cli" else "dyonstark.oracle"


def summarize_pass(records: list[dict]) -> dict:
    return {
        "wall_s": sum(r["wall_s"] for r in records),
        "cpu_s": sum(r["cpu_s"] for r in records),
        "peak_rss_mib": max(r["maxrss_mib"] for r in records),
        "failed": sum(1 for r in records if r["failure"]),
        "ops": records,
    }


def _stats(samples: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median": statistics.median(samples), "q1": q1, "q3": q3, "n": len(samples)}


def end_to_end(passes: list[dict], setup: list[float]) -> dict[str, dict]:
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    stats = {key: _stats([p[key] for p in passes]) for key in ("wall_s", "cpu_s", "peak_rss_mib")}
    stats["setup_s"] = _stats(setup)
    stats["success_rate"] = _stats([1.0 - failed / attempted])
    return stats


def _host_ref_s(passes: list[dict]) -> float:
    """Median raw wall time of the full reference over the run's operations."""
    refs = [r["raw"]["ref_wall_s"] for p in passes for r in p["ops"] if r["raw"]["ref_wall_s"]]
    return statistics.median(refs) if refs else 0.0


def per_layer(traced: dict, untraced_wall_s: float, host_ref_s: float, work: Path) -> tuple[dict, list[str]]:
    all_totals, all_counters, errors = [], [], []
    for i, rec in enumerate(traced["ops"]):
        spans = work / f"spans-{i}.npz"
        if not spans.is_file():
            errors.append(f"{rec['id']}: no span file")
            continue
        totals, errs = tracing.analyze(spans)
        all_totals.append(totals)
        all_counters.append(rec["counters"] or {})
        errors += [f"{rec['id']}: {e}" for e in errs]
    run_values = {"trace.overhead_s": traced["wall_s"] - untraced_wall_s, "host.ref_wall_s": host_ref_s}
    return tracing.layer_metrics(all_totals, all_counters, run_values), errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dyonstark" / "__init__.py").is_file():
        print(f"error: no dyonstark package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    ops = workloads.generate(args.workload, args.seed)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    runner = Runner(tag, checks.load_digests().get(str(args.seed), {}))

    setup = [runner.probe(_entry(ops[0])) for _ in range(SETUP_PROBES)]
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < args.seconds:
        passes.append(runner.run_pass(ops))
    setup += [r["setup_s"] for p in passes for r in p["ops"]]
    setup = [s for s in setup if s is not None]
    if not setup:
        print("error: the package could not be imported in a child interpreter", file=sys.stderr)
        return 2
    stats = end_to_end(passes, setup)
    trace_errors: list[str] = []
    layers = None
    if args.trace:
        traced = runner.run_pass(ops, traced=True)
        passes.append(traced)
        layers, trace_errors = per_layer(traced, stats["wall_s"]["median"], _host_ref_s(passes), runner.work)

    attempted = sum(len(p["ops"]) for p in passes)
    failures = [f"{r['id']}: {r['failure']}" for p in passes for r in p["ops"] if r["failure"]]
    correct = not failures and not trace_errors

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "operations": ops,
        "environment": environment(runner.versions),
        "ref_nominal_s": REF_NOMINAL_S,
        "end_to_end": {m: {**stats[m], "unit": u} for m, u in END_TO_END},
        "per_layer": layers,
        "passes": passes,
        "failures": failures,
        "trace_errors": trace_errors,
    }
    result_path = RUNS / f"BENCH_{tag}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    for line in failures + trace_errors:
        print(f"FAILED {line}")
    if args.trace:
        metrics = {m: {"value": layers[m], "unit": u} for m, u, _ in tracing.PER_LAYER}
        for m, u, _ in tracing.PER_LAYER:
            print(f"{m:48s} {layers[m]:>14.6g} {u}")
    else:
        metrics = {m: {"value": stats[m]["median"], "unit": u} for m, u in END_TO_END}
        for m, u in END_TO_END:
            s = stats[m]
            print(f"{m:14s} {s['median']:>12.6g} {u:9s} q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")
    print(f"record: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
