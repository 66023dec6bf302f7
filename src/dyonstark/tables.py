"""Deterministic CSV/JSON rendering of result tables.

A table is a dict of equal-length columns: ``{"e0": [...], "e1": [...]}``,
with ``None`` for an empty cell.  Its keys, in order, are the CSV header
and the JSON record keys.

Half-integer quantum numbers are serialized losslessly as doubled
integers (columns s2, m2, j2).  Energies are rendered with ``repr``,
the shortest decimal string that parses back to the identical float,
so identical configurations produce byte-identical output and JSON
round-trips are exact.  JSON never contains NaN or Inf.

The renderers work one column at a time: a column's distinct values are
formatted once, and every pass over its cells (the lookups, the CSV
joins, the JSON record template) is a ``map`` or ``zip`` that runs in C;
only the quoting of the short e0/e1 columns loops in Python.  A
wavefunction grid is tens of thousands of cells, and a Python-level loop
per cell costs more than computing the grid.
"""

from __future__ import annotations

import json
import math
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import add

from .stark import FieldConfig, StarkShiftRecord, shift_columns
from .states import PhysicalParams, SphericalState, _shell, energy_level, spherical_labels

__all__ = [
    "RECORD_COLUMNS",
    "shifts_table",
    "spectrum_table",
    "rows_from_stark_records",
    "rows_from_spectrum",
    "render_csv",
    "render_json",
    "parse_json_records",
]

RECORD_COLUMNS = ["n", "s2", "n1", "n2", "m2", "j2", "e0", "e1", "dipole_z"]


def shifts_table(n, s, field: FieldConfig, params: PhysicalParams) -> dict[str, list]:
    """The ``shifts``/``dipole`` table of one shell: ``stark.shift_columns``
    with the shell's n and s2 on every row and no j2."""
    n, s = _shell(n, s, params)
    columns = shift_columns(n, s, field, params)
    count = len(columns["e0"])
    return {
        "n": [n.value] * count,
        "s2": [s.twice] * count,
        "n1": columns["n1"],
        "n2": columns["n2"],
        "m2": columns["m2"],
        "j2": [None] * count,
        "e0": columns["e0"],
        "e1": columns["e1"],
        "dipole_z": columns["dipole_z"],
    }


def spectrum_table(n, s, params: PhysicalParams) -> dict[str, list]:
    """The ``spectrum`` table of one shell: its (j, m) labels in
    ``sort_key`` order, each at the shell energy."""
    n, s = _shell(n, s, params)
    labels = spherical_labels(n, s)
    e0 = energy_level(n, params)
    empty = [None] * len(labels)
    return {
        "n": [n.value] * len(labels),
        "s2": [s.twice] * len(labels),
        "n1": empty,
        "n2": empty,
        "m2": [m2 for _, m2 in labels],
        "j2": [j2 for j2, _ in labels],
        "e0": [e0] * len(labels),
        "e1": empty,
        "dipole_z": empty,
    }


def rows_from_stark_records(records: list[StarkShiftRecord]) -> dict[str, list]:
    """The ``shifts_table`` of ``stark_table`` records, read off their states."""
    shell = [rec.state for rec in records]
    return {
        "n": [st.n.value for st in shell],
        "s2": [st.s.twice for st in shell],
        "n1": [st.n1 for st in shell],
        "n2": [st.n2 for st in shell],
        "m2": [st.m.twice for st in shell],
        "j2": [None] * len(shell),
        "e0": [rec.e0 for rec in records],
        "e1": [rec.e1 for rec in records],
        "dipole_z": [rec.dipole_z for rec in records],
    }


def rows_from_spectrum(shell: list[SphericalState], e0: float) -> dict[str, list]:
    """The ``spectrum_table`` of a list of spherical states at energy e0."""
    shell = sorted(shell, key=lambda x: x.sort_key)
    empty = [None] * len(shell)
    return {
        "n": [st.n.value for st in shell],
        "s2": [st.s.twice for st in shell],
        "n1": empty,
        "n2": empty,
        "m2": [st.m.twice for st in shell],
        "j2": [st.j.twice for st in shell],
        "e0": [e0] * len(shell),
        "e1": empty,
        "dipole_z": empty,
    }


_INT_KEYS = frozenset(("s2", "n1", "n2", "m2", "j2"))
_DECIMAL_KEYS = frozenset(("e0", "e1"))  # decimal strings in JSON: exact round trip


def _column(key: str, values: list, empty: str | None = None) -> list:
    """The text of each cell of one column, ``empty`` for an empty one.

    Each distinct value is formatted once.  Values that compare equal
    convert to the same int or float (-0.0 folds into 0.0), so sharing
    one text among them is exact.
    """
    distinct = dict.fromkeys(values)
    distinct.pop(None, None)
    if key in _INT_KEYS:
        texts = list(map(str, map(int, distinct)))
    else:
        floats = list(map(float, distinct))
        if not all(map(math.isfinite, floats)):
            raise ValueError("refusing to serialize a non-finite number")
        texts = list(map(repr, map(add, floats, repeat(0.0))))
    if len(texts) == len(values):
        return texts  # no empty cell and no repeat: already in cell order
    text = dict(zip(distinct, texts))
    text[None] = empty
    return list(map(text.__getitem__, values))


def render_csv(table: dict[str, list]) -> str:
    """RFC-4180 text (CRLF line ends, the table's keys as the header row).

    Cells are ints, floats or empty, so none needs quoting and a row is
    one join; a lone empty cell is written "" as ``csv.writer`` does.
    """
    empty = '""' if len(table) == 1 else ""
    cells = [_column(key, values, empty) for key, values in table.items()]
    return "\r\n".join([",".join(table), *map(",".join, zip(*cells, strict=True)), ""])


def render_json(
    table: dict[str, list],
    params: PhysicalParams,
    field: FieldConfig | None = None,
    ratio: float | None = None,
) -> str:
    """The table as ``json.dumps(doc, indent=2)`` writes its records, one
    dict per row, without its pure-Python encoder: only the header goes
    through ``json.dumps``."""
    head = json.dumps(
        {
            "params": {
                "hbar": 1.0,
                "mu": 1.0,
                "gamma": params.gamma_c,
                "e_abs": 1.0,
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
    cells = [
        ["null" if text is None else f'"{text}"' for text in _column(key, values)]
        if key in _DECIMAL_KEYS
        else _column(key, values, "null")
        for key, values in table.items()
    ]
    template = "    {\n" + ",\n".join(
        f"      {encode_basestring_ascii(key).replace('%', '%%')}: %s" for key in table
    ) + "\n    }"
    records = list(map(template.__mod__, zip(*cells, strict=True)))
    if not records:
        return head + "\n"
    return head.removesuffix("[]\n}") + "[\n" + ",\n".join(records) + "\n  ]\n}\n"


def parse_json_records(text: str) -> dict[str, list]:
    """Inverse of render_json for the records array: a column table,
    with the decimal strings of e0 and e1 parsed back to floats."""
    records = json.loads(text)["records"]
    table = {key: [record[key] for record in records] for key in (records[0] if records else ())}
    for key in _DECIMAL_KEYS & table.keys():
        table[key] = [None if value is None else float(value) for value in table[key]]
    return table
