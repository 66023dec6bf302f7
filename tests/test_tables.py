"""The table renderers against the standard library's encoders.

``render_json`` and ``render_csv`` build their text directly from a
column table; these tests hold them to what ``json.dumps(doc, indent=2)``
and ``csv.writer`` write for the same cells, taken row by row.
"""

import csv
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyonstark import stark, states, tables
from dyonstark.specfun import half
from dyonstark.stark import FieldConfig
from dyonstark.states import PhysicalParams

INT_KEYS = ("s2", "n1", "n2", "m2", "j2")
WAVEFUNCTION_KEYS = ["coord1", "coord2", "phi", "psi_re", "psi_im", "abs2"]
PARAMS = PhysicalParams.atomic("1/2", gamma_c=0.75)
FIELD = FieldConfig(0.25)


def _finite(value) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError("non-finite")
    return x + 0.0 if x == 0.0 else x


def reference_json(rows, params, field=None, ratio=None) -> str:
    def cell(key, value):
        if value is None:
            return None
        if key in INT_KEYS:
            return int(value)
        if key in ("e0", "e1"):
            return repr(_finite(value))
        return _finite(value)

    doc = {
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
        "records": [{key: cell(key, value) for key, value in row.items()} for row in rows],
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def reference_csv(rows, columns) -> str:
    def cell(key, value):
        if value is None:
            return ""
        if key in INT_KEYS:
            return str(int(value))
        return repr(_finite(value))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([cell(key, row.get(key)) for key in columns])
    return buf.getvalue()


def _rows(table) -> list[dict]:
    """The table's rows, each a dict in column order."""
    return [dict(zip(table, cells)) for cells in zip(*table.values(), strict=True)]


def _table(rows, columns=tables.RECORD_COLUMNS) -> dict:
    return {key: [row.get(key) for row in rows] for key in columns}


def _both(table, ratio=None):
    rows = _rows(table)
    assert tables.render_json(table, PARAMS, FIELD, ratio) == reference_json(rows, PARAMS, FIELD, ratio)
    assert tables.render_csv(table) == reference_csv(rows, list(table))


def _record(**cells) -> dict:
    row = dict.fromkeys(tables.RECORD_COLUMNS)
    row.update(cells)
    return row


EDGE = _table([
    _record(n=2.5, s2=1, n1=0, n2=1, m2=-3, e0=-0.08, e1=-0.0, dipole_z=0.0),
    _record(n=3.0, s2=-2, m2=0, j2=4, e0=1e-300, e1=1e300, dipole_z=-1e-300),
    _record(n=1.0, s2=0, n1=2, n2=0, m2=2, e0=5e-324, e1=-1.7976931348623157e308, dipole_z=0.1 + 0.2),
    _record(n=4.0, s2=0, e0=1.0, e1=1e16, dipole_z=123456789.0),
    _record(),
])


class TestAgainstReference:
    def test_empty_rows(self):
        _both(_table([]), ratio=0.5)
        _both(_table([], WAVEFUNCTION_KEYS))
        _both(_table([{}, {}], WAVEFUNCTION_KEYS))

    def test_zero_row_table_has_empty_records(self):
        for table in ({}, _table([], WAVEFUNCTION_KEYS)):
            assert json.loads(tables.render_json(table, PARAMS))["records"] == []
            assert tables.render_json(table, PARAMS).endswith('  "records": []\n}\n')
        assert tables.render_csv(_table([], WAVEFUNCTION_KEYS)) == ",".join(WAVEFUNCTION_KEYS) + "\r\n"

    def test_columns_of_unequal_length_refused(self):
        table = {"e0": [1.0, 2.0], "m2": [1]}
        with pytest.raises(ValueError):
            tables.render_json(table, PARAMS)
        with pytest.raises(ValueError):
            tables.render_csv(table)
        with pytest.raises(ValueError):
            tables.render_json({"e0": [], "m2": [1]}, PARAMS)

    def test_none_negative_zero_and_extreme_values(self):
        _both(EDGE, ratio=1e-300)
        assert '"e1": "0.0"' in tables.render_json(EDGE, PARAMS)
        assert '"e0": "1e-300"' in tables.render_json(EDGE, PARAMS)

    def test_repeated_values_in_int_and_float_columns(self):
        # a memo keyed by value must not carry a float column's text into an int column
        table = _table([_record(n=2.0, s2=2, n1=1, m2=2, e0=2, e1=True, dipole_z=2.0) for _ in range(3)])
        _both(table)
        assert tables.render_csv(table).splitlines()[1] == "2.0,2,1,,2,,2.0,1.0,2.0"

    def test_equal_values_of_mixed_types_in_one_column(self):
        # equal values of different types (2 and 2.0, True and 1, 0.0 and -0.0) share one
        # dict key; each cell must still get the text of its own value
        mixed = [2, 2.0, True, 0.0, -0.0, 1, 2]
        table = {"e0": mixed, "m2": mixed, "dipole_z": mixed[::-1], "e1": [-0.0, *mixed[1:]]}
        _both(table)
        assert tables.render_csv({key: table[key] for key in ("e0", "m2")}).split("\r\n")[1:-1] == [
            "2.0,2", "2.0,2", "1.0,1", "0.0,0", "0.0,0", "1.0,1", "2.0,2",
        ]

    def test_library_tables(self):
        _both(tables.shifts_table("7/2", "1/2", FIELD, PARAMS), ratio=0.01)
        _both(tables.spectrum_table("7/2", "1/2", PARAMS))
        _both({"n": [3.0], "s2": [1], "epsilon": [0.25], "delta_e": [-0.0]})

    def test_header_is_every_key_in_table_order(self):
        table = {"psi_im": [0.5], "n": [2.0], "m2": [-1]}
        assert tables.render_csv(table) == "psi_im,n,m2\r\n0.5,2.0,-1\r\n"
        _both(table)

    def test_wavefunction_rows(self):
        rows = [
            {"coord1": x, "coord2": y, "phi": 7.0, "psi_re": x * y - 1.0, "psi_im": -x / 3.0, "abs2": y * y}
            for x in (0.0, 0.5, 1e-310) for y in (0.0, 2.0 / 3.0)
        ]
        _both(_table(rows, WAVEFUNCTION_KEYS))

    def test_lone_empty_cell_is_quoted_as_csv_writes_it(self):
        table = {"e1": [None, 1.5]}
        assert tables.render_csv(table) == reference_csv(_rows(table), ["e1"]) == 'e1\r\n""\r\n1.5\r\n'

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.fixed_dictionaries(
                {
                    "coord1": st.floats(allow_nan=False, allow_infinity=False),
                    "m2": st.integers(-400, 400),
                    "e1": st.none() | st.floats(allow_nan=False, allow_infinity=False),
                    "abs2": st.none() | st.floats(allow_nan=False, allow_infinity=False),
                }
            ),
            max_size=12,
        )
    )
    def test_any_finite_rows(self, rows):
        _both(_table(rows, ["coord1", "m2", "e1", "abs2"]))


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["e0", "dipole_z"])
    def test_refused_by_both_renderers(self, key, bad):
        table = _table([_record(n=2.0, s2=0, e0=-0.125), _record(n=2.0, s2=0, **{key: bad})])
        with pytest.raises(ValueError):
            tables.render_json(table, PARAMS)
        with pytest.raises(ValueError):
            tables.render_csv(table)

    def test_nan_beside_empty_cells_refused(self):
        table = {"e1": [None, math.nan, None, 1.0]}
        with pytest.raises(ValueError):
            tables.render_json(table, PARAMS)
        with pytest.raises(ValueError):
            tables.render_csv(table)

    def test_non_finite_ratio_refused(self):
        with pytest.raises(ValueError):
            tables.render_json(_table([]), PARAMS, FIELD, math.inf)


# every (n, s) of these with n - |s| - 1 a non-negative integer: the smallest
# shells and the benchmark's.  The object path takes about a second over the
# 40,000 states of a top shell, so the top shells' bytes are pinned instead
# (tests/test_cli.py::TestOutputPins)
SHELLS = [
    (n, s)
    for n in ["1", "5/2", "35", "73/2", "60"]
    for s in ["0", "1/2", "-1/2", "1", "-3/2", "2"]
    if (half(n) - abs(half(s)) - 1).twice % 2 == 0 and half(n) > abs(half(s))
]


def _object_records(shell, field, params):
    """The shifts table of a shell built state by state: shift_closed_form
    and mean_dipole per ParabolicState, sorted by (bracket, n1, n2, m)."""

    def key(st):
        return (stark.bracket_twelfths(st) if field.epsilon > 0 else 0, st.n1, st.n2, st.m.twice)

    e0 = states.energy_level(shell[0].n, params)
    return [
        stark.StarkShiftRecord(st, e0, stark.shift_closed_form(st, field, params), stark.mean_dipole(st, params))
        for st in sorted(shell, key=key)
    ]


def _same_bytes(got, want, params, field=None):
    assert got == want
    assert tables.render_csv(got) == tables.render_csv(want)
    assert tables.render_json(got, params, field, 0.5) == tables.render_json(want, params, field, 0.5)


class TestColumnTables:
    """The column builders against the object path they replace in the CLI."""

    @pytest.mark.parametrize("n, s", SHELLS)
    @pytest.mark.parametrize("epsilon", [0.0, 0.5])
    def test_shifts_table_is_the_object_table(self, n, s, epsilon):
        params, field = PhysicalParams.atomic(s), FieldConfig(epsilon)
        records = _object_records(states.enumerate_shell_parabolic(n, s), field, params)
        _same_bytes(tables.shifts_table(n, s, field, params), tables.rows_from_stark_records(records), params, field)
        assert stark.stark_table(n, s, field, params) == records

    def test_spectrum_table_refuses_an_s_that_is_not_the_params(self):
        # rendered, these rows (s2 = 2) would sit under a header with params.s2 = 0
        params = PhysicalParams.atomic(0)
        with pytest.raises(ValueError, match="^s=1 disagrees with params.s=0$"):
            tables.render_json(tables.spectrum_table(3, 1, params), params)

    @pytest.mark.parametrize("n, s", SHELLS)
    def test_spectrum_table_is_the_object_table(self, n, s):
        params = PhysicalParams.atomic(s)
        want = tables.rows_from_spectrum(states.enumerate_shell_spherical(n, s), states.energy_level(n, params))
        _same_bytes(tables.spectrum_table(n, s, params), want, params)
