"""Self-test of the benchmark's output checks.

    python3 benchmarks/selftest.py

Runs two cheap real operations and flips one byte of each output:

* the digested ``splitting`` operation of the default seed (a JSON
  table), where only the sha256 comparison can catch the flip;
* a small ``shifts`` table with no digest, where the seed-independent
  closed-form checks must catch a flipped digit of an ``e1`` cell.

Each flipped output must be recorded as a failed operation and lower
``success_rate``; each untouched output must pass.  Exits 0 when all of
that holds.
"""

from __future__ import annotations

import sys

import checks
import workloads
from run import Runner, end_to_end, summarize_pass


def _flip_e1_digit(data: bytes) -> bytes:
    """Flip the leading digit of the first non-zero e1 cell of a CSV table."""
    lines = data.split(b"\r\n")
    col = lines[0].split(b",").index(b"e1")
    offset = len(lines[0]) + 2
    for line in lines[1:]:
        cells = line.split(b",")
        if float(cells[col]) != 0.0:
            start = offset + sum(len(c) + 1 for c in cells[:col]) + cells[col].startswith(b"-")
            return data[:start] + bytes([data[start] ^ 1]) + data[start + 1:]
        offset += len(line) + 2
    raise ValueError("no non-zero e1 cell")


def _flip_hbar_digit(data: bytes) -> bytes:
    """Flip the last digit of the JSON "hbar" parameter, which no invariant reads."""
    i = data.index(b'"hbar": ') + len(b'"hbar": 1.0') - 1
    return data[:i] + bytes([data[i] ^ 1]) + data[i + 1:]


def main() -> int:
    seed = workloads.DEFAULT_SEED
    runner = Runner("selftest", checks.load_digests().get(str(seed), {}))
    splitting = next(op for op in workloads.generate("stark-tables", seed) if op["id"].endswith("/splitting"))
    shifts = {"id": "selftest/shifts", "kind": "cli",
              "args": ["shifts", "--n", "9/2", "--s", "1/2", "--format", "csv"]}
    if splitting["id"] not in runner.digests:
        print(f"FAIL: no digest recorded for {splitting['id']}")
        return 1
    ok = True
    for op, flip, reason in ((splitting, _flip_hbar_digit, "sha256"), (shifts, _flip_e1_digit, "e1")):
        res, data = runner.execute(op)
        good = runner.judge(op, res, data)
        bad = runner.judge(op, res, flip(data))
        counted = end_to_end([summarize_pass([good, bad])], [0.0])
        passed = good["failure"] is None and reason in (bad["failure"] or "")
        passed = passed and counted["success_rate"]["median"] == 0.5
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {op['id']}: untouched -> {good['failure']}; flipped -> {bad['failure']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
