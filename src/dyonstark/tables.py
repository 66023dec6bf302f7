"""Deterministic CSV/JSON rendering of result tables.

Half-integer quantum numbers are serialized losslessly as doubled
integers (columns s2, m2, j2).  Energies are rendered with ``repr``,
the shortest decimal string that parses back to the identical float,
so identical configurations produce byte-identical output and JSON
round-trips are exact.  JSON never contains NaN or Inf.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .stark import FieldConfig, StarkShiftRecord
from .states import PhysicalParams, SphericalState

__all__ = [
    "RECORD_COLUMNS",
    "rows_from_stark_records",
    "rows_from_spectrum",
    "render_csv",
    "render_json",
    "parse_json_records",
]

RECORD_COLUMNS = ["n", "s2", "n1", "n2", "m2", "j2", "e0", "e1", "dipole_z"]


def _clean(x) -> float:
    x = float(x)
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("refusing to serialize a non-finite number")
    return x + 0.0 if x == 0.0 else x  # fold -0.0 into 0.0


def _num(x) -> str:
    return repr(_clean(x))


def rows_from_stark_records(records: list[StarkShiftRecord]) -> list[dict]:
    rows = []
    for rec in records:
        st = rec.state
        rows.append(
            {
                "n": st.n.value,
                "s2": st.s.twice,
                "n1": st.n1,
                "n2": st.n2,
                "m2": st.m.twice,
                "j2": None,
                "e0": rec.e0,
                "e1": rec.e1,
                "dipole_z": rec.dipole_z,
            }
        )
    return rows


def rows_from_spectrum(shell: list[SphericalState], e0: float) -> list[dict]:
    rows = []
    for st in sorted(shell, key=lambda x: x.sort_key):
        rows.append(
            {
                "n": st.n.value,
                "s2": st.s.twice,
                "n1": None,
                "n2": None,
                "m2": st.m.twice,
                "j2": st.j.twice,
                "e0": e0,
                "e1": None,
                "dipole_z": None,
            }
        )
    return rows


_INT_KEYS = frozenset(("s2", "n1", "n2", "m2", "j2"))
_DECIMAL_KEYS = frozenset(("e0", "e1"))  # decimal strings in JSON: exact round trip


def _texts(row: dict, keys, num: dict) -> list:
    """The text of each cell, None for an empty one.

    Floats go through the render's ``num`` memo, so each distinct float
    is formatted once per render.
    """
    texts = []
    for key in keys:
        value = row.get(key)
        if value is None:
            texts.append(None)
        elif key in _INT_KEYS:
            texts.append(str(int(value)))
        else:
            text = num.get(value)
            if text is None:
                text = num[value] = _num(value)
            texts.append(text)
    return texts


def render_csv(rows: list[dict], columns: list[str] | None = None) -> str:
    """RFC-4180 text (CRLF line ends, header row first).

    Cells are ints, floats or empty, so none needs quoting and a row is
    one join; a lone empty cell is written "" as ``csv.writer`` does.
    """
    columns = columns or RECORD_COLUMNS
    num: dict = {}
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join([text or "" for text in _texts(row, columns, num)]) or '""')
    lines.append("")
    return "\r\n".join(lines)


def render_json(
    rows: list[dict],
    params: PhysicalParams,
    field: FieldConfig | None = None,
    ratio: float | None = None,
) -> str:
    """The rows as ``json.dumps(doc, indent=2)`` writes them, without its
    pure-Python encoder: only the header goes through ``json.dumps``."""
    head = json.dumps(
        {
            "params": {
                "hbar": params.hbar,
                "mu": params.mu,
                "gamma": params.gamma_c,
                "e_abs": params.e_abs,
                "s2": params.s.twice,
                "a": params.a,
            },
            "field": {
                "epsilon": field.epsilon if field is not None else 0.0,
                "perturbative_ratio": ratio,
            },
            "records": [],
        },
        indent=2,
        allow_nan=False,
    )
    if not rows:
        return head + "\n"
    num: dict = {}
    records = []
    for row in rows:
        items = []
        for key, text in zip(row, _texts(row, row, num)):
            if text is None:
                text = "null"
            elif key in _DECIMAL_KEYS:
                text = f'"{text}"'
            items.append(f"      {encode_basestring_ascii(key)}: {text}")
        records.append("    {\n" + ",\n".join(items) + "\n    }" if items else "    {}")
    return head.removesuffix("[]\n}") + "[\n" + ",\n".join(records) + "\n  ]\n}\n"


def parse_json_records(text: str) -> list[dict]:
    """Inverse of render_json for the records array (strings to floats)."""
    doc = json.loads(text)
    rows = []
    for raw in doc["records"]:
        row = dict(raw)
        for key in ("e0", "e1"):
            if row.get(key) is not None:
                row[key] = float(row[key])
        rows.append(row)
    return rows
