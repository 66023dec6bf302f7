"""Record the sha256 of every digested CLI output into digests.json.

    python3 benchmarks/record_digests.py

Covers the default and the held-out seed.  Run it only at a commit
whose outputs are known to be right: every output must also pass the
seed-independent checks, or nothing is written.  ``verify`` output is
not digested (see checks.py).
"""

from __future__ import annotations

import json
import sys

import checks
import workloads
from run import Runner


def main() -> int:
    runner = Runner("record-digests", {})
    digests = {}
    for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
        table = {}
        for workload in workloads.WORKLOADS:
            for op in workloads.generate(workload, seed):
                if op["kind"] != "cli" or op["args"][0] == "verify":
                    continue
                record = runner.judge(op, *runner.execute(op))
                if record["failure"]:
                    print(f"{op['id']} (seed {seed}): {record['failure']}", file=sys.stderr)
                    return 1
                table[op["id"]] = record["sha256"]
        digests[str(seed)] = table
    checks.DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, digests.values()))} digests to {checks.DIGESTS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
