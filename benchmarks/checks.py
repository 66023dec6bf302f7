"""Output checks for benchmark operations.

Every operation's output is checked by invariants that hold for any
seed, computed here without the library (the closed forms are
re-derived from doubled quantum numbers).  CLI outputs of the default
and held-out seeds are also compared byte for byte with the digests in
``digests.json``: a speed-up may not change CLI bytes.  The ``verify``
report is not digested, because ``max_err`` may legitimately move in its
last bits; neither are the oracle's eigenvalues, for the same reason.

``check_output`` returns ``None`` for a correct output and a one-line
reason otherwise; the runner counts every reason as a failed operation.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

from workloads import GRID_POINTS, VERIFY_CHECKS, shell_labels

DIGESTS_PATH = Path(__file__).with_name("digests.json")

REL_TOL = 1e-12          # closed-form columns of the CLI tables
ORACLE_REL_TOL = 1e-6    # the c04 tolerances of ``dyonstark verify``
ORACLE_OFF_TOL = 1e-9    # in units of a |e| eps


def load_digests() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS_PATH.read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _twice(text: str) -> int:
    """Doubled value of an integer or half-integer label such as "7/2"."""
    num, _, den = text.partition("/")
    return 2 * int(num) if not den else int(num) * 2 // int(den)


def _options(args: list[str]) -> dict[str, str]:
    return {args[i].lstrip("-"): args[i + 1] for i in range(1, len(args) - 1, 2)}


def _table(data: bytes, fmt: str) -> list[dict]:
    """Rows of a CLI table with every cell as a float (or None if empty)."""
    text = data.decode("utf-8")
    if fmt == "json":
        raw_rows = json.loads(text)["records"]
    else:
        reader = csv.reader(io.StringIO(text, newline=""))
        header = next(reader)
        raw_rows = [dict(zip(header, cells)) for cells in reader]
    return [
        {k: (None if v in (None, "") else float(v)) for k, v in row.items()}
        for row in raw_rows
    ]


def _close(got: float, want: float, floor: float) -> bool:
    return abs(got - want) <= REL_TOL * max(abs(want), floor)


def _bracket_twelfths(n1: int, n2: int, m2: int, n_twice: int, s2: int) -> int:
    """12 [n (n1 - n2 + (|m-s| - |m+s|)/2) + m s/3] as an exact integer."""
    x2 = 2 * (n1 - n2) + (abs(m2 - s2) - abs(m2 + s2)) // 2
    return 3 * n_twice * x2 + m2 * s2


def _check_stark_table(rows, n_twice, s2, eps) -> str | None:
    want = {lab: _bracket_twelfths(*lab, n_twice, s2) for lab in shell_labels(n_twice, s2)}
    if len(rows) != len(want):
        return f"{len(rows)} rows, want n^2 - s^2 = {len(want)}"
    e0 = -2.0 / n_twice**2
    seen = set()
    for row in rows:
        label = (int(row["n1"]), int(row["n2"]), int(row["m2"]))
        if label not in want or label in seen:
            return f"label {label} is not a shell state or repeats"
        seen.add(label)
        e1 = 1.5 * want[label] / 12.0
        if row["s2"] != s2 or row["n"] != n_twice / 2 or not _close(row["e0"], e0, 0.0):
            return f"row {label}: wrong n, s2 or e0"
        if not _close(row["e1"], e1 * eps, 1.5 / 12.0 * eps):
            return f"row {label}: e1 {row['e1']!r}, want {e1 * eps!r}"
        if not _close(row["dipole_z"], -e1, 1.5 / 12.0):
            return f"row {label}: dipole_z {row['dipole_z']!r}, want {-e1!r}"
    return None


def _check_spectrum(rows, n_twice, s2) -> str | None:
    want = {(j2, m2) for j2 in range(abs(s2), n_twice - 1, 2) for m2 in range(-j2, j2 + 1, 2)}
    got = [(int(r["j2"]), int(r["m2"])) for r in rows]
    if len(got) != len(want) or set(got) != want:
        return f"{len(got)} (j, m) rows, want the n^2 - s^2 = {len(want)} shell labels"
    if any(not _close(r["e0"], -2.0 / n_twice**2, 0.0) for r in rows):
        return "wrong e0"
    return None


def _check_splitting(rows, n_twice, s2, eps) -> str | None:
    want = 3.0 * (n_twice / 2) * ((n_twice - abs(s2)) / 2 - 1) * eps
    if len(rows) != 1 or not _close(rows[0]["delta_e"], want, 0.0):
        return f"splitting rows {rows!r}, want delta_e {want!r}"
    return None


def _check_grid(rows) -> str | None:
    if len(rows) != GRID_POINTS**2:
        return f"{len(rows)} grid rows, want points^2 = {GRID_POINTS**2}"
    for row in rows:
        if not all(v is not None and math.isfinite(v) for v in row.values()):
            return f"non-finite grid row {row!r}"
    return None


def _check_verify(args: list[str], data: bytes) -> str | None:
    lines = data.decode("utf-8").splitlines()
    ids = {line.split()[1] for line in lines if line.startswith("[PASS] ")}
    count = args.count("--check") or len(VERIFY_CHECKS)
    summary = f"{count}/{count} checks passed"
    if len(ids) != count or len(lines) != count + 1 or lines[-1] != summary:
        return f"verify report {lines[-1:]!r} with {len(ids)} distinct passed checks, want {summary!r}"
    return None


def _check_cli(args: list[str], data: bytes) -> str | None:
    cmd, opt = args[0], _options(args)
    if cmd == "verify":
        return _check_verify(args, data)
    rows = _table(data, opt.get("format", "csv"))
    if cmd == "wavefunction":
        return _check_grid(rows)
    n_twice, s2 = _twice(opt["n"]), _twice(opt.get("s", "0"))
    if cmd in ("shifts", "dipole"):
        default_eps = "1.0" if cmd == "shifts" else "0.0"
        return _check_stark_table(rows, n_twice, s2, float(opt.get("epsilon", default_eps)))
    if cmd == "spectrum":
        return _check_spectrum(rows, n_twice, s2)
    if cmd == "splitting":
        return _check_splitting(rows, n_twice, s2, float(opt.get("epsilon", "1.0")))
    return f"no check for command {cmd!r}"


def _check_library(op: dict, data: bytes) -> str | None:
    doc = json.loads(data)
    n_twice, s2, eps = _twice(op["n"]), _twice(op["s"]), op["epsilon"]
    if op["call"] == "offdiagonal_report":
        off = doc["offdiagonal"]
        if not (0.0 <= off <= ORACLE_OFF_TOL * eps):
            return f"largest off-diagonal {off!r} exceeds {ORACLE_OFF_TOL} a|e|eps"
        return None
    sectors: dict[int, list[float]] = {}
    for n1, n2, m2 in shell_labels(n_twice, s2):
        sectors.setdefault(m2, []).append(1.5 * eps * _bracket_twelfths(n1, n2, m2, n_twice, s2) / 12.0)
    scale = max(max(abs(v) for vals in sectors.values() for v in vals), 1.5 * eps)
    got = {int(m2): vals for m2, vals in doc["sectors"]}
    if set(got) != set(sectors):
        return f"sectors {sorted(got)}, want {sorted(sectors)}"
    for m2, want in sectors.items():
        want = sorted(want)
        if len(got[m2]) != len(want):
            return f"sector m2={m2}: {len(got[m2])} eigenvalues, want {len(want)}"
        err = max(abs(g - w) for g, w in zip(sorted(got[m2]), want)) / scale
        if not err <= ORACLE_REL_TOL:
            return f"sector m2={m2}: eigenvalue rel error {err:.2e} > {ORACLE_REL_TOL}"
    return None


def check_output(op: dict, data: bytes, digests: dict[str, str]) -> str | None:
    """Why the output ``data`` of ``op`` is wrong, or None if it is right.

    ``digests`` maps operation ids to the sha256 of their expected
    output bytes (empty for seeds without recorded digests).
    """
    try:
        why = _check_cli(op["args"], data) if op["kind"] == "cli" else _check_library(op, data)
    except (ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
        why = f"unparsable output: {type(exc).__name__}: {exc}"
    if why is None and op["id"] in digests and sha256(data) != digests[op["id"]]:
        why = "output bytes differ from the recorded sha256"
    return why
