"""Deterministic CSV/JSON rendering of result tables.

A table is a dict of equal-length columns, its keys in order the CSV
header and the JSON record keys.  A column is a 1-D array of numbers:
int64 for a shell's labels (n1, n2, m2, j2), float for its energies, its
shifts and a wavefunction grid.  A column whose every cell is empty is
``None``; a table of only ``None`` columns has no rows.  Every shell
table (``shifts_table``, ``spectrum_table``) takes ``RECORD_COLUMNS``'s
layout from ``_record_table``, which also adds the shell's n, s2 and e0.

Half-integer quantum numbers are serialized losslessly as doubled
integers (columns s2, m2, j2).  Energies are rendered with ``repr``,
the shortest decimal string that parses back to the identical float,
so identical configurations produce byte-identical output and JSON
round-trips are exact.  JSON never contains NaN or Inf.

A table is rendered in two stages.  First, before any text exists, each
column is checked (numbers, equal lengths, no NaN or Inf) and each of
its distinct values is formatted once: one ``np.unique`` sort finds
them, and its inverse index lays out their texts.  Then the rows are
laid out ``BLOCK_ROWS`` at a time, and ``csv_pieces``/``json_pieces``
yield each block's lines or records as one piece, which the CLI writes
before laying out the next.  Both lay out a block by column: each
column's texts and each fixed separator are slice-assigned into one flat
list, which is joined once.  Every pass over the cells (the lookups, the
layout, the join) is a ``map``, a slice assignment or a numpy index,
which runs in C: a grid is tens of thousands of cells, and a
Python-level loop per cell costs more than computing the grid.  No table
is ever one string on its way to the output, so a 512 x 512 JSON grid
peaks at about 100 MiB of RSS, not 256 MiB.  ``render_csv`` and
``render_json`` join the pieces.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

import numpy as np

from .stark import FieldConfig, StarkShiftRecord, shift_columns
from .states import PhysicalParams, SphericalState, _shell, energy_level, spherical_labels

__all__ = [
    "RECORD_COLUMNS",
    "shifts_table",
    "spectrum_table",
    "rows_from_stark_records",
    "rows_from_spectrum",
    "BLOCK_ROWS",
    "csv_pieces",
    "json_pieces",
    "render_csv",
    "render_json",
]

RECORD_COLUMNS = ["n", "s2", "n1", "n2", "m2", "j2", "e0", "e1", "dipole_z"]


def _record_table(n, s, params: PhysicalParams, **columns: np.ndarray) -> dict[str, np.ndarray | None]:
    """The record table of shell (n, s): ``columns`` in ``RECORD_COLUMNS``
    order, with the shell's n, s2 and e0 on every row and ``None`` for
    every key not given."""
    count = next(iter(columns.values())).size
    columns.update(
        n=np.full(count, n.value), s2=np.full(count, s.twice), e0=np.full(count, energy_level(n, params))
    )
    return {key: columns.get(key) for key in RECORD_COLUMNS}


def shifts_table(n, s, field: FieldConfig, params: PhysicalParams) -> dict[str, np.ndarray | None]:
    """The ``shifts``/``dipole`` table of one shell: ``stark.shift_columns``,
    its arrays as they are, in the record layout with no j2."""
    n, s = _shell(n, s, params)
    return _record_table(n, s, params, **shift_columns(n, s, field, params))


def spectrum_table(n, s, params: PhysicalParams) -> dict[str, np.ndarray | None]:
    """The ``spectrum`` table of one shell: its (j, m) label arrays in
    (2j, 2m) order, in the record layout with no n1, n2, e1 or dipole_z."""
    n, s = _shell(n, s, params)
    j2, m2 = spherical_labels(n, s)
    return _record_table(n, s, params, m2=m2, j2=j2)


def rows_from_stark_records(records: list[StarkShiftRecord]) -> dict[str, list | None]:
    """The ``shifts_table`` of ``stark_table`` records, read off their states."""
    shell = [rec.state for rec in records]
    return {
        "n": [st.n.value for st in shell],
        "s2": [st.s.twice for st in shell],
        "n1": [st.n1 for st in shell],
        "n2": [st.n2 for st in shell],
        "m2": [st.m.twice for st in shell],
        "j2": None,
        "e0": [rec.e0 for rec in records],
        "e1": [rec.e1 for rec in records],
        "dipole_z": [rec.dipole_z for rec in records],
    }


def rows_from_spectrum(shell: list[SphericalState], e0: float) -> dict[str, list | None]:
    """The ``spectrum_table`` of a list of spherical states at energy e0."""
    shell = sorted(shell, key=lambda st: (st.n.twice, st.j.twice, st.m.twice))
    return {
        "n": [st.n.value for st in shell],
        "s2": [st.s.twice for st in shell],
        "n1": None,
        "n2": None,
        "m2": [st.m.twice for st in shell],
        "j2": [st.j.twice for st in shell],
        "e0": [e0] * len(shell),
        "e1": None,
        "dipole_z": None,
    }


_INT_KEYS = frozenset(("s2", "n1", "n2", "m2", "j2"))
_DECIMAL_KEYS = frozenset(("e0", "e1"))  # decimal strings in JSON: exact round trip

BLOCK_ROWS = 4096  # rows laid out and written per piece


def _column(key: str, values: np.ndarray | None, empty: str, quote: bool = False):
    """The texts of one column's cells, as a function of a row range.

    ``None`` is a column of empty cells, each written ``empty``; anything
    else must convert to a 1-D bool, int or float array.  Each distinct
    value is checked and formatted once, here, before any row is laid
    out; ``quote`` wraps each text in double quotes.  Values that compare
    equal convert to the same int or float (-0.0 folds into 0.0), so
    sharing one text among them is exact.
    """
    if values is None:
        return lambda lo, hi: [empty] * (hi - lo)
    values = np.asarray(values)
    if values.ndim != 1 or values.dtype.kind not in "biuf":
        raise ValueError(f"column {key} is not a 1-D array of numbers: {values.dtype} of shape {values.shape}")
    # one sort in C finds the distinct values and each cell's index among them
    if key in _INT_KEYS:
        distinct, inverse = np.unique(values, return_inverse=True)
        texts = list(map(str, map(int, distinct.tolist())))
    else:
        distinct, inverse = np.unique(values + 0.0, return_inverse=True)
        if not np.isfinite(distinct).all():
            raise ValueError("refusing to serialize a non-finite number")
        texts = list(map(repr, distinct.tolist()))
    if quote:
        texts = [f'"{text}"' for text in texts]
    texts = np.array(texts, dtype=object)
    return lambda lo, hi: texts[inverse[lo:hi]].tolist()


def _blocks(table: dict[str, np.ndarray | None], empty: str, quoted=frozenset()):
    """The table's rows, as one list per block of ``BLOCK_ROWS`` rows that
    holds each column's cell texts; the row count is that of the columns
    that are not ``None``.

    Every column is checked and its distinct values formatted before the
    first block is returned, so a refusal comes before any output.
    """
    lengths = {len(values) for values in table.values() if values is not None}
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal length: {sorted(lengths)}")
    rows = lengths.pop() if lengths else 0
    columns = [_column(key, values, empty, key in quoted) for key, values in table.items()]
    return (
        [column(lo, min(lo + BLOCK_ROWS, rows)) for column in columns] for lo in range(0, rows, BLOCK_ROWS)
    )


def _layout(first: str, cells: list[list[str]], after: list[str], last: str) -> str:
    """One block's text: ``first``, then row by row each column's text
    followed by that column's ``after`` text, with ``last`` in place of
    the block's final ``after`` text.

    Each column's texts and each fixed text go into one flat list by one
    slice assignment, and the list is joined once, so no Python code runs
    per cell or per row.  The list starts filled with ``after[0]``, so the
    slots of every ``after`` text equal to it (all of CSV's commas) need no
    assignment.
    """
    rows, width = len(cells[0]), 2 * len(cells)
    flat = [after[0]] * (1 + rows * width)
    flat[0] = first
    for j, (texts, text) in enumerate(zip(cells, after)):
        flat[1 + 2 * j :: width] = texts
        if text != after[0]:
            flat[2 + 2 * j :: width] = [text] * rows
    flat[-1] = last
    return "".join(flat)


def csv_pieces(table: dict[str, np.ndarray | None]):
    """``render_csv``'s text in pieces: the header line, then the lines
    of one block of rows per piece.

    Every check is made before the first piece is returned.
    """
    blocks = _blocks(table, "")
    yield ",".join(table) + "\r\n"
    after = [","] * (len(table) - 1) + ["\r\n"]
    for cells in blocks:
        yield _layout("", cells, after, "\r\n")


def render_csv(table: dict[str, np.ndarray | None]) -> str:
    """RFC-4180 text (CRLF line ends, the table's keys as the header row).

    Cells are ints, floats or empty, so none needs quoting and a row is
    one join.
    """
    return "".join(csv_pieces(table))


def json_pieces(
    table: dict[str, np.ndarray | None],
    params: PhysicalParams,
    field: FieldConfig | None = None,
    ratio: float | None = None,
):
    """``render_json``'s text in pieces: the header up to the records,
    the records of one block of rows per piece, then the closing lines.

    Every check is made before the first piece is returned.
    """
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
    blocks = _blocks(table, "null", _DECIMAL_KEYS)
    first = next(blocks, None)
    if first is None:
        yield head + "\n"
        return
    # a record opens before its first cell and closes after its last
    fields = [f"      {encode_basestring_ascii(key)}: " for key in table]
    opening = "    {\n" + fields[0]
    after = [",\n" + field for field in fields[1:]] + ["\n    },\n" + opening]
    yield _layout(head.removesuffix("[]\n}") + "[\n" + opening, first, after, "\n    }")
    for cells in blocks:
        yield _layout(",\n" + opening, cells, after, "\n    }")
    yield "\n  ]\n}\n"


def render_json(
    table: dict[str, np.ndarray | None],
    params: PhysicalParams,
    field: FieldConfig | None = None,
    ratio: float | None = None,
) -> str:
    """The table as ``json.dumps(doc, indent=2)`` writes its records, one
    dict per row, without its pure-Python encoder: only the header goes
    through ``json.dumps``."""
    return "".join(json_pieces(table, params, field, ratio))
