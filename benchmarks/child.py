"""Run one benchmark operation in a fresh interpreter.

Usage: ``python child.py '<job json>'`` with the job keys

* ``op``: the operation (see ``workloads.py``), or null for a set-up
  probe that only imports;
* ``entry``: the module a user imports first (``dyonstark.cli`` for CLI
  operations, ``dyonstark.oracle`` for library operations);
* ``src``: the directory that must provide the ``dyonstark`` package;
* ``out``, ``result``: where to write the output bytes and the result;
* ``spans``: where to write the trace, or null for an untraced run.

The result records the import time, the wall and CPU time from after
import to output written, the process's max RSS, the exit code and the
tracing counters.  Spans are kept in memory and written out only after
the operation has finished.

Host speed on a shared machine drifts by tens of percent within
seconds, so the child also times fixed reference work (``reference.py``)
right after the import, during an untraced operation (one slice every
``reference.SAMPLE_INTERVAL_S``, its time subtracted from the
operation's) and right after the operation.  The runner divides each
timing by the reference time around it (see ``run.py``).
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

def _run_cli(main, args: list[str], out: str) -> int:
    try:
        main.main(args=[*args, "--output", out], prog_name="dyonstark")
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 1)
    return 0


def _run_library(oracle, op: dict, out: str) -> int:
    from dyonstark.stark import FieldConfig
    from dyonstark.states import PhysicalParams

    params = PhysicalParams.atomic(op["s"])
    field = FieldConfig(op["epsilon"])
    if op["call"] == "oracle_shifts":
        sectors = oracle.oracle_shifts(op["n"], op["s"], field, params)
        doc = {"sectors": [[m.twice, [float(v) for v in vals]] for m, vals in sectors]}
    else:
        doc = {"offdiagonal": oracle.offdiagonal_report(op["n"], op["s"], field, params)}
    Path(out).write_text(json.dumps(doc))
    return 0


def main(job: dict) -> dict:
    t0 = time.perf_counter()
    module = importlib.import_module(job["entry"])
    import_s = time.perf_counter() - t0
    import reference  # after the timed import: it imports numpy too

    ref_before = reference.timed()
    src = Path(job["src"]).resolve()
    if src not in Path(module.__file__).resolve().parents:
        raise RuntimeError(f"dyonstark was imported from {module.__file__}, not from {src}")
    result = {"import_s": import_s, "import_ref_s": ref_before[0]}
    op = job["op"]
    if op is not None:
        tracer = None
        if job["spans"]:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        # No samples in a traced operation: they would land in its spans.
        sampler = reference.Sampler()
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            with tracer.span("op") if tracer else sampler:
                if op["kind"] == "cli":
                    code = _run_cli(module.main, op["args"], job["out"])
                else:
                    code = _run_library(module, op, job["out"])
        except Exception:  # the runner reports the traceback as a failed operation
            result["error"] = traceback.format_exc(limit=5)
            code = 1
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        ref_after = reference.timed()
        # The reference time of SLICES slices, as the mean over the samples
        # taken during the operation and the two full references around
        # it, each of which counts as one sample.
        samples = 2 + sampler.count
        result.update(
            wall_s=wall - sampler.wall,
            cpu_s=cpu - sampler.cpu,
            exit_code=code,
            ref_wall_s=(ref_before[0] + ref_after[0] + sampler.wall * reference.SLICES) / samples,
            ref_cpu_s=(ref_before[1] + ref_after[1] + sampler.cpu * reference.SLICES) / samples,
            ref_samples=sampler.count,
        )
        if tracer:
            result["counters"] = tracer.save(job["spans"])
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["versions"] = {name: metadata.version(name) for name in ("numpy", "click")}
    return result


if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    Path(job["result"]).write_text(json.dumps(main(job)))
