"""Tests for the command-line interface and its file formats."""

import hashlib
import importlib.metadata
import json
import math
import platform
import re
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import dyonstark.cli
import dyonstark.stark
import dyonstark.states
import dyonstark.verify
from dyonstark.cli import main
from dyonstark.specfun import half
from dyonstark.stark import FieldConfig, stark_table
from dyonstark.states import PhysicalParams
from dyonstark.tables import RECORD_COLUMNS, parse_json_records, render_json


@pytest.fixture()
def runner():
    return CliRunner()


HEADER = "n,s2,n1,n2,m2,j2,e0,e1,dipole_z"


class TestShiftsCommand:
    def test_hydrogen_n2_table(self, runner):
        result = runner.invoke(main, ["shifts", "--s", "0", "--n", "2", "--epsilon", "1"])
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[0] == HEADER
        assert len(lines) == 5
        e1 = sorted(float(line.split(",")[7]) for line in lines[1:])
        assert e1 == pytest.approx([-3.0, 0.0, 0.0, 3.0])

    def test_crlf_line_endings(self, runner):
        result = runner.invoke(main, ["shifts", "--s", "0", "--n", "2"])
        assert b"\r\n" in result.stdout_bytes

    def test_half_integer_arguments(self, runner):
        result = runner.invoke(main, ["shifts", "--s", "1/2", "--n", "5/2", "--epsilon", "1"])
        assert result.exit_code == 0
        assert len(result.stdout.splitlines()) == 1 + 6
        assert "perturbative ratio" in result.stderr

    def test_deterministic_bytes(self, runner):
        args = ["shifts", "--s", "3/2", "--n", "7/2", "--epsilon", "0.37"]
        out1 = runner.invoke(main, args).stdout
        out2 = runner.invoke(main, args).stdout
        assert out1 == out2

    def test_output_file(self, runner, tmp_path):
        target = tmp_path / "table.csv"
        result = runner.invoke(
            main, ["shifts", "--s", "0", "--n", "2", "--output", str(target)]
        )
        assert result.exit_code == 0
        raw = target.read_bytes().decode()
        assert raw.splitlines()[0] == HEADER
        assert raw.endswith("\r\n")

    def test_invalid_shell_exits_2(self, runner):
        result = runner.invoke(main, ["shifts", "--s", "1", "--n", "1"])
        assert result.exit_code == 2
        assert "n must satisfy n >= |s| + 1" in result.output

    @pytest.mark.parametrize("value", ["3/2/1", "1/x", "", "abc", "1/", "2.5.1"])
    def test_malformed_half_integer_names_the_forms(self, runner, value):
        result = runner.invoke(main, ["spectrum", "--n", value])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "must be an integer, an exact half-integer decimal such as 2.5, or k/2" in result.output

    @pytest.mark.parametrize(
        "value, message", [("1/3", "denominator 2"), ("nan", "finite"), ("1e400", "finite"), ("1.3", "exact half")]
    )
    def test_half_integer_rules_keep_their_messages(self, runner, value, message):
        result = runner.invoke(main, ["spectrum", "--n", value])
        assert result.exit_code == 2
        assert message in result.output

    def test_non_half_integer_rejected(self, runner):
        result = runner.invoke(main, ["shifts", "--s", "0.3", "--n", "2"])
        assert result.exit_code == 2

    def test_bad_format_rejected(self, runner):
        result = runner.invoke(main, ["shifts", "--s", "0", "--n", "2", "--format", "xml"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args", [["spectrum", "--n", "inf"], ["spectrum", "--n", "-inf"], ["shifts", "--s", "inf", "--n", "2"]]
    )
    def test_non_finite_rejected(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "must be a finite number" in result.output

    def test_quad_order_env_ignored_outside_verify(self, runner):
        result = runner.invoke(main, ["spectrum", "--n", "2"], env={"DYONSTARK_QUAD_ORDER": "500"})
        assert result.exit_code == 0


class TestOutputPins:
    """sha256 of tables and grids: shell building and rendering must keep these bytes."""

    @pytest.mark.parametrize(
        "args, digest",
        [
            (
                "shifts --n 35 --s -1 --epsilon 0.5 --format csv",
                "39139a0d5e8c876c241cb932d2418b5a0014a8fcdb4e7f2623c184f4db6eecc9",
            ),
            (
                "shifts --n 73/2 --s 1/2 --epsilon 0.5 --format json",
                "7b816b014dd87c3fb02ca05e3d8990dd812345d4f5d3e730fdcc0ad8b2453d49",
            ),
            (
                "dipole --n 65/2 --s -3/2 --format json",
                "11c2ddbfcf37e8a173fd138e9ca703875fbfca48af70ba481d9af17164a2604d",
            ),
            (
                "wavefunction --n 3 --n1 1 --n2 0 --m 1 --points 7 --phi 0.5 --format json",
                "338b618a3ea68a9e509e6551dea2cd012315c5a11841935de46358628d69c41a",
            ),
            (
                "wavefunction --basis spherical --n 5/2 --s 1/2 --j 3/2 --m -1/2 --points 7 --extent 9",
                "0a40d3159029c0cca04f53e24915f7e629b708d9c26cc746d6605fa982478198",
            ),
            (
                "wavefunction --basis spherical --n 8 --s -2 --j 5 --m 3 --points 100 --phi 0.5 --format json",
                "d99e16a06d82d613791355c1741cfb4699d0cdff8017921f19344f5b1e8c49f5",
            ),
            (
                "wavefunction --n 11/2 --s 1/2 --n1 1 --n2 2 --m -3/2 --points 100 --phi 1.0 --format csv",
                "56dc2036c5279d13b15122c1b413b25566aeb31d6a28a4f58db1c3e8aaac597a",
            ),
            (
                "wavefunction --n 6 --s 1 --n1 2 --n2 1 --m 2 --points 100 --phi 0.5 --format json",
                "4f41d42b9488f0f86a960f1411bd2f4580ade80f9a7d6ec78446f9ee5a7c361b",
            ),
            (
                "wavefunction --basis spherical --n 9/2 --s 3/2 --j 5/2 --m 1/2 --points 100 --extent 12 --format csv",
                "2e8b12b4de55cdbe942ecd0180f744d53a2099c5c4a579dfd71517cd29c4c098",
            ),
            (
                # default labels at integer s: m = 0, and j = |s| in the spherical basis
                "wavefunction --n 3 --s -1 --n1 1 --points 7 --format json",
                "0a1cabcd970f3455e577be9bea76dddf665e41e7bee903bef84e0d54bf07d564",
            ),
            (
                "wavefunction --basis spherical --n 3 --s 1 --points 7",
                "fad1d256455ff148b7dc7923c0a90afbeb946d8783516c580b7190abb796c65b",
            ),
            (
                "spectrum --n 23/2 --s -3/2 --gamma 0.75 --format csv",
                "732dd4ef8192dcbf73429bf462ded827e4d59c5f6d0a726c8c82407904c5c734",
            ),
            (
                "splitting --n 17/2 --s 1/2 --epsilon 0.25 --format json",
                "e852cffcdbc4e5019fb9195a998b8a5fdef4d1519be15deca51a15309fb77e82",
            ),
            (
                "dipole --n 21 --s 2 --epsilon 0.5 --format csv",
                "b4d4d6cfad9ac74e2a0ea65c7e303c65a23d116201c65d893a7ff5c0ddf2ed44",
            ),
            (
                "spectrum --n 161/2 --s 3/2 --format json",
                "5b346930acf05f81fc4e04a41e68abc9f85e231cb27feae7664502ef204816ee",
            ),
            (
                "shifts --n 80 --s -2 --epsilon 0.75 --format csv",
                "bb4724938786d58a5a1047091c92e6e9307ce3eb7a60dca8f5a383ffe5de12fc",
            ),
            # the top shells at both kinds of s, as the object-per-state path wrote them
            (
                "shifts --n 200 --s 2 --epsilon 0.5 --format csv",
                "edd33f7c4f867a9f573b4ddec482fc9512973e0c8c083691d5f36f9f4f92b23b",
            ),
            (
                "shifts --n 399/2 --s -3/2 --epsilon 0.5 --format json",
                "c6c2aaef9a50b8d5b5c51364e7ac325c5049b7c64f661d1ae349d76881e361d7",
            ),
            (
                "dipole --n 200 --s 2 --format json",
                "a4851f8adba256a3c2a1f5e650e4ffbd59f7496220514565ee84129e6b18ca14",
            ),
            (
                "dipole --n 399/2 --s -3/2 --format csv",
                "2c24d35b06f7a85b3568669e61700dd2eb4431127298f2b924bea3ccfacaa4c0",
            ),
            (
                "spectrum --n 200 --s 2 --format json",
                "fdfd86529f54aaac4c487a5d9353b4d6b5ce3c3d0ca8729565eb8327529e4d45",
            ),
            (
                "spectrum --n 399/2 --s -3/2 --format csv",
                "0e620275b91ba292c6f287d2d9399040ce4865235f6b608551d9831c2119c1f2",
            ),
        ],
    )
    def test_table_bytes(self, runner, args, digest):
        result = runner.invoke(main, args.split())
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


@pytest.fixture()
def no_work(monkeypatch):
    """Make every subcommand's computation fail if it is reached."""

    def refuse(*args, **kwargs):
        raise AssertionError("the work ran before --output was checked")

    for module, name in (
        (dyonstark.verify, "run_check"),
        (dyonstark.tables, "shifts_table"),
        (dyonstark.tables, "spectrum_table"),
        (dyonstark.stark, "shell_splitting"),
        (dyonstark.states, "psi_grid"),
    ):
        monkeypatch.setattr(module, name, refuse)


WORK_COMMANDS = [
    ["spectrum", "--n", "2"],
    ["wavefunction", "--n", "2", "--points", "3"],
    ["verify", "--max-n", "2", "--check", "shell-cardinality"],
    ["shifts", "--n", "2"],
    ["dipole", "--n", "2"],
    ["splitting", "--n", "2"],
]


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", WORK_COMMANDS)
    def test_the_guard_stops_the_work(self, runner, tmp_path, no_work, command):
        # with a writable --output the work is reached, so the refusals below
        # show that --output was checked before it
        result = runner.invoke(main, [*command, "--output", str(tmp_path / "x.csv")])
        assert isinstance(result.exception, AssertionError)
        assert "the work ran before --output was checked" in str(result.exception)

    @pytest.mark.parametrize("command", WORK_COMMANDS)
    @pytest.mark.parametrize("target, reason", [("", "Is a directory"), ("missing/x.csv", "No such file")])
    def test_exits_2_without_traceback(self, runner, tmp_path, no_work, command, target, reason):
        path = tmp_path / target
        result = runner.invoke(main, [*command, "--output", str(path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"error: cannot write --output {path}: {reason}" in result.stderr
        assert "Traceback" not in result.output
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("command", [["verify", "--list"], ["verify"], ["shifts", "--n", "2"]])
    def test_unwritable_parent_refused_before_the_work(self, runner, tmp_path, monkeypatch, no_work, command):
        # a permission bit does not stop root, so the refusal is simulated
        monkeypatch.setattr(dyonstark.cli.os, "access", lambda path, mode: False)
        path = tmp_path / "x.csv"
        result = runner.invoke(main, [*command, "--output", str(path)])
        assert result.exit_code == 2
        assert f"error: cannot write --output {path}: Permission denied" in result.stderr
        assert not path.exists()

    def test_parent_that_is_a_file_refused(self, runner, tmp_path, no_work):
        (tmp_path / "file").write_text("")
        path = tmp_path / "file" / "x.csv"
        result = runner.invoke(main, ["spectrum", "--n", "2", "--output", str(path)])
        assert result.exit_code == 2
        assert f"error: cannot write --output {path}: Not a directory" in result.stderr

    def test_no_file_created_when_the_work_fails(self, runner, tmp_path):
        path = tmp_path / "x.csv"
        result = runner.invoke(main, ["spectrum", "--n", "1/2", "--output", str(path)])
        assert result.exit_code == 2
        assert "n must satisfy n >= |s| + 1" in result.stderr
        assert not path.exists()


class TestShellCap:
    @pytest.mark.parametrize("n", ["201", "1e300"])
    @pytest.mark.parametrize(
        "command", [["spectrum"], ["shifts"], ["dipole"], ["splitting"], ["wavefunction", "--basis", "spherical"]]
    )
    def test_above_cap_exits_2(self, runner, command, n):
        result = runner.invoke(main, [*command, "--n", n])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "n must satisfy n <= 200" in result.output

    def test_parabolic_labels_above_cap_exit_2(self, runner):
        result = runner.invoke(main, ["wavefunction", "--n", "201", "--n1", "200", "--n2", "0", "--m", "0"])
        assert result.exit_code == 2
        assert "n must satisfy n <= 200" in result.output

    def test_cap_itself_allowed(self, runner):
        result = runner.invoke(main, ["splitting", "--n", "200"])
        assert result.exit_code == 0
        assert result.stdout.splitlines()[1].startswith("200.0,0,1.0,")


class TestNonFinite:
    @pytest.mark.parametrize(
        "args, message",
        [
            ("wavefunction --n 2 --extent nan", "--extent must be a positive finite number"),
            ("wavefunction --n 2 --extent inf", "--extent must be a positive finite number"),
            ("wavefunction --n 2 --phi nan", "--phi must be a finite number"),
            ("wavefunction --n 2 --phi inf", "--phi must be a finite number"),
            ("shifts --n 2 --epsilon 1e308 --format json", "results must be finite"),
            ("dipole --n 2 --gamma 1e-320", "results must be finite"),
        ],
    )
    def test_exits_2_without_traceback(self, runner, args, message):
        result = runner.invoke(main, args.split())
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert message in result.stderr
        assert "Traceback" not in result.output
        assert result.stdout == ""

    @pytest.mark.parametrize("basis", ["parabolic", "spherical"])
    def test_overflowing_grid_exits_2_without_warnings(self, runner, basis):
        args = f"wavefunction --n 4 --s 2 --points 5 --extent 1e300 --basis {basis}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, args.split())
        assert result.exit_code == 2
        assert "results must be finite" in result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert result.stdout == ""


class TestBasisOptions:
    """A label of the other basis is refused, never silently ignored."""

    PARABOLIC_ONLY = "--n1 and --n2 label parabolic states; --basis spherical takes --j and --m"
    SPHERICAL_ONLY = "--j labels spherical states; --basis parabolic takes --n1, --n2 and --m"

    @pytest.mark.parametrize(
        "args, message",
        [
            ("wavefunction --n 3 --j 2", SPHERICAL_ONLY),
            ("wavefunction --basis parabolic --n 3 --n1 1 --n2 0 --m 1 --j 1", SPHERICAL_ONLY),
            ("wavefunction --basis spherical --n 3 --n1 0", PARABOLIC_ONLY),
            ("wavefunction --basis spherical --n 3 --j 1 --m 0 --n2 1", PARABOLIC_ONLY),
        ],
    )
    def test_exits_2_naming_the_rule(self, runner, tmp_path, args, message):
        path = tmp_path / "grid.csv"
        result = runner.invoke(main, [*args.split(), "--points", "2", "--output", str(path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == f"error: {message}\n"
        assert result.stdout == ""
        assert not path.exists()


class TestCouplingRange:
    """Couplings whose derived scales leave floating range exit 2, never with a traceback."""

    COMMANDS = [
        ["spectrum"],
        ["shifts"],
        ["dipole"],
        ["splitting"],
        ["wavefunction", "--points", "2"],
        ["wavefunction", "--points", "2", "--basis", "spherical"],
    ]

    @pytest.mark.parametrize(
        "args",
        [
            "spectrum --n 2 --gamma 1e308",
            "shifts --n 2 --gamma 1e-200",
            "dipole --n 2 --gamma 1e-200",
            "splitting --n 2 --gamma 1e-200",
            "wavefunction --n 2 --gamma 1e300 --points 2",
            "wavefunction --n 2 --gamma 1e300 --points 2 --basis spherical",
        ],
    )
    def test_out_of_range_exits_2(self, runner, args):
        result = runner.invoke(main, args.split())
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "a^3, a^-3 and gamma_c^2 must be finite and nonzero" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("exponent", range(-300, 301, 25))
    def test_log_sweep_exits_0_or_2(self, runner, exponent):
        for command in self.COMMANDS:
            result = runner.invoke(main, [*command, "--n", "2", "--gamma", f"1e{exponent}"])
            assert result.exit_code in (0, 2), (command, result.exception)
            assert result.exception is None or isinstance(result.exception, SystemExit)
            assert "Traceback" not in result.output


class TestJsonOutput:
    def test_schema(self, runner):
        result = runner.invoke(
            main, ["shifts", "--s", "1", "--n", "2", "--epsilon", "1", "--format", "json"]
        )
        doc = json.loads(result.stdout)
        assert set(doc) == {"params", "field", "records"}
        assert doc["params"]["s2"] == 2
        assert doc["field"]["epsilon"] == 1.0
        assert isinstance(doc["field"]["perturbative_ratio"], float)
        assert len(doc["records"]) == 3
        rec = doc["records"][0]
        assert isinstance(rec["e0"], str) and isinstance(rec["e1"], str)
        assert rec["j2"] is None

    def test_round_trip_exact(self, runner):
        args = ["shifts", "--s", "1/2", "--n", "7/2", "--epsilon", "0.7319", "--format", "json"]
        out1 = runner.invoke(main, args).stdout
        table = parse_json_records(out1)
        records = stark_table(half("7/2"), half("1/2"), FieldConfig(0.7319), PhysicalParams.atomic(half("1/2")))
        assert list(table) == RECORD_COLUMNS
        # bit-exact through the decimal strings
        assert table["e1"] == [rec.e1 for rec in records]
        assert table["e0"] == [rec.e0 for rec in records]
        assert table["n1"] == [rec.state.n1 for rec in records]
        assert table["m2"] == [rec.state.m.twice for rec in records]

    @pytest.mark.parametrize(
        "args, epsilon",
        [
            ("shifts --n 9/2 --s -3/2 --gamma 0.75 --epsilon 0.7319", 0.7319),
            ("spectrum --n 9/2 --s -3/2 --gamma 0.75", None),
            ("wavefunction --n 9/2 --s -3/2 --gamma 0.75 --n1 1 --n2 1 --m -3/2 --points 9 --phi 0.5", None),
        ],
    )
    def test_parse_inverts_render(self, runner, args, epsilon):
        result = runner.invoke(main, [*args.split(), "--format", "json"])
        assert result.exit_code == 0
        text = result.stdout
        params = PhysicalParams.atomic(half("-3/2"), gamma_c=0.75)
        field = None if epsilon is None else FieldConfig(epsilon)
        ratio = json.loads(text)["field"]["perturbative_ratio"]
        assert render_json(parse_json_records(text), params, field, ratio) == text

    @pytest.mark.parametrize(
        "args",
        [
            "spectrum --n 5/2 --s 1/2",
            "shifts --n 5/2 --s 1/2",
            "dipole --n 3 --s -1",
            "splitting --n 7/2 --s 3/2",
            "wavefunction --n 3 --points 3",
            "wavefunction --basis spherical --n 3 --s 1 --points 3",
        ],
    )
    def test_csv_header_is_the_json_record_keys(self, runner, args):
        csv_out = runner.invoke(main, [*args.split(), "--format", "csv"])
        json_out = runner.invoke(main, [*args.split(), "--format", "json"])
        assert csv_out.exit_code == json_out.exit_code == 0
        header = csv_out.stdout.splitlines()[0].split(",")
        records = json.loads(json_out.stdout)["records"]
        assert records and all(list(record) == header for record in records)

    def test_no_nan_inf_possible(self, runner):
        result = runner.invoke(main, ["spectrum", "--s", "0", "--n", "3", "--format", "json"])
        assert "NaN" not in result.stdout and "Infinity" not in result.stdout


class TestOtherCommands:
    def test_spectrum(self, runner):
        result = runner.invoke(main, ["spectrum", "--s", "1", "--n", "2"])
        lines = result.stdout.splitlines()
        assert lines[0] == HEADER
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[5] == "2"  # j2 column populated
        assert first[2] == ""  # n1 empty for spherical rows

    def test_splitting_value(self, runner):
        result = runner.invoke(main, ["splitting", "--s", "1", "--n", "2", "--epsilon", "1"])
        lines = result.stdout.splitlines()
        assert lines[0] == "n,s2,epsilon,delta_e"
        assert float(lines[1].split(",")[3]) == 0.0
        result = runner.invoke(main, ["splitting", "--s", "0", "--n", "2", "--epsilon", "1"])
        assert float(result.stdout.splitlines()[1].split(",")[3]) == pytest.approx(6.0)

    def test_dipole_defaults_to_zero_field(self, runner):
        result = runner.invoke(main, ["dipole", "--s", "0", "--n", "2"])
        lines = result.stdout.splitlines()
        e1 = {line.split(",")[7] for line in lines[1:]}
        assert e1 == {"0.0"}
        dipoles = sorted(float(line.split(",")[8]) for line in lines[1:])
        assert dipoles == pytest.approx([-3.0, 0.0, 0.0, 3.0])

    def test_wavefunction_grid(self, runner):
        result = runner.invoke(
            main,
            ["wavefunction", "--s", "0", "--n", "2", "--n1", "1", "--n2", "0", "--m", "0", "--points", "5"],
        )
        lines = result.stdout.splitlines()
        assert lines[0] == "coord1,coord2,phi,psi_re,psi_im,abs2"
        assert len(lines) == 1 + 25

    def test_wavefunction_wrong_shell_exits_2(self, runner):
        result = runner.invoke(
            main,
            ["wavefunction", "--s", "0", "--n", "2", "--n1", "2", "--n2", "0", "--m", "0"],
        )
        assert result.exit_code == 2
        assert "belongs to shell" in result.output

    @pytest.mark.parametrize(
        "labels, message",
        [
            (["--m", "1000"], "(n1=0, n2=0, m=1000) belongs to shell n=1001, not n=3"),
            (["--n2", "1000"], "(n1=0, n2=1000, m=0) belongs to shell n=1001, not n=3"),
        ],
        ids=["m", "n2"],
    )
    def test_wavefunction_labels_above_the_cap_name_their_shell(self, runner, labels, message):
        # the labels' shell is past the cap, but the rule they break is --n's
        result = runner.invoke(main, ["wavefunction", "--n", "3", *labels])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == f"error: {message}\n"

    def test_wavefunction_spherical(self, runner):
        result = runner.invoke(
            main,
            ["wavefunction", "--s", "1/2", "--n", "3/2", "--basis", "spherical",
             "--j", "1/2", "--m", "1/2", "--points", "4"],
        )
        assert result.exit_code == 0
        assert len(result.stdout.splitlines()) == 1 + 16

    @pytest.mark.parametrize("labels", ["--n 95 --j 94 --m 0", "--n 79/2 --s 1/2 --j 37/2 --m 1/2"])
    def test_wavefunction_spherical_j_above_the_domain_exits_2(self, runner, labels):
        result = runner.invoke(main, ["wavefunction", "--basis", "spherical", *labels.split()])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "j must satisfy j <= 18, the domain where the Wigner d-functions keep 1e-10 accuracy" in result.output

    def test_wavefunction_large_shell(self, runner):
        result = runner.invoke(
            main,
            ["wavefunction", "--n", "50", "--n1", "0", "--n2", "0", "--m", "49", "--points", "3"],
        )
        assert result.exit_code == 0
        rows = result.stdout.splitlines()[1:]
        assert len(rows) == 9
        assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))


class TestWavefunctionDefaults:
    """Labels left out of ``wavefunction``: the shell's first state, j = |s|, the smallest m >= 0."""

    @pytest.mark.parametrize("n, s", [("1", "0"), ("3", "1"), ("5/2", "-1/2"), ("9/2", "3/2"), ("200", "0")])
    def test_parabolic_default_is_the_first_shell_state(self, runner, monkeypatch, n, s):
        first = dyonstark.states.enumerate_shell_parabolic(n, s)[0]
        enumerate_shell, calls = dyonstark.states.enumerate_shell_parabolic, []

        def counting(*args):
            calls.append(args)
            return enumerate_shell(*args)

        monkeypatch.setattr(dyonstark.states, "enumerate_shell_parabolic", counting)
        args = ["wavefunction", "--n", n, "--s", s, "--points", "3"]
        default = runner.invoke(main, args)
        assert default.exit_code == 0
        assert calls == []
        labels = ["--n1", str(first.n1), "--n2", str(first.n2), "--m", str(first.m)]
        assert default.stdout_bytes == runner.invoke(main, [*args, *labels]).stdout_bytes

    @pytest.mark.parametrize(
        "args",
        [
            "--n 5/2 --s 1/2 --n1 1",
            "--n 5/2 --s -1/2 --n2 1",
            "--n 7/2 --s 3/2 --n1 1",
            "--basis spherical --n 3/2 --s 1/2",
            "--basis spherical --n 3/2 --s -1/2",
            "--basis spherical --n 5/2 --s -3/2",
            "--basis spherical --n 5/2 --s 3/2 --j 3/2",
        ],
    )
    def test_m_defaults_to_one_half_at_half_integer_s(self, runner, args):
        command = ["wavefunction", *args.split(), "--points", "3"]
        default = runner.invoke(main, command)
        assert default.exit_code == 0, default.output
        assert default.stdout_bytes == runner.invoke(main, [*command, "--m", "1/2"]).stdout_bytes


def _untimed(report: str) -> str:
    """A JSON verify report without its run-time lines, the one field that varies between runs."""
    untimed, count = re.subn(r'^ *"elapsed_s": [0-9.e+-]+,\n', "", report, flags=re.M)
    assert count == len(json.loads(report)["checks"])
    return untimed


QUICK_VERIFY = ["verify", "--max-n", "2", "--format", "json"]


class TestVerifyCommand:
    @pytest.fixture(scope="class")
    def quick_report(self):
        """One ``verify --max-n 2 --format json`` run, without DYONSTARK_QUAD_ORDER."""
        return CliRunner().invoke(main, QUICK_VERIFY, env={"DYONSTARK_QUAD_ORDER": None})

    def test_list_checks(self, runner):
        result = runner.invoke(main, ["verify", "--list"])
        assert result.exit_code == 0
        ids = result.output.split()
        assert "hydrogen-regression" in ids
        assert "numerical-kernels" in ids

    def test_selected_checks_pass(self, runner):
        result = runner.invoke(
            main,
            ["verify", "--check", "quadrature-invariants", "--check", "shell-cardinality"],
        )
        assert result.exit_code == 0
        assert result.output.count("[PASS]") == 2
        assert "2/2 checks passed" in result.output

    def test_repeated_check_runs_once(self, runner):
        args = ["verify", "--check", "shell-cardinality", "--check", "quadrature-invariants"]
        result = runner.invoke(main, [*args, "--check", "shell-cardinality"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert [line.split()[1] for line in lines[:-1]] == ["c08-shell-cardinality:", "inv-quadrature:"]
        assert lines[-1] == "2/2 checks passed"

    def test_report_ids_select_their_checks(self, runner):
        args = ["verify", "--max-n", "2", "--format", "json"]
        for only in (["shell-cardinality", "quadrature-invariants"], ["degeneracy-removal"]):
            by_key = runner.invoke(main, [*args, *(a for key in only for a in ("--check", key))])
            ids = [check["id"] for check in json.loads(by_key.stdout)["checks"]]
            by_id = runner.invoke(main, [*args, *(a for check_id in ids for a in ("--check", check_id))])
            assert by_id.exit_code == by_key.exit_code == 0
            assert _untimed(by_id.stdout) == _untimed(by_key.stdout)
        # a failure list fed back to --check reruns exactly the failed checks
        failed = runner.invoke(main, ["verify", "--max-n", "1", "--format", "json"])
        failures = json.loads(failed.stdout)["failures"]
        assert failures
        rerun = runner.invoke(main, ["verify", "--max-n", "1", "--format", "json",
                                     *(a for check_id in failures for a in ("--check", check_id))])
        assert rerun.exit_code == 3
        assert [check["id"] for check in json.loads(rerun.stdout)["checks"]] == failures

    def test_key_and_report_id_run_once(self, runner):
        args = ["verify", "--check", "c08-shell-cardinality", "--check", "shell-cardinality"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert result.output.count("c08-shell-cardinality") == 1

    def test_unknown_check_exits_2(self, runner):
        result = runner.invoke(main, ["verify", "--check", "no-such-check"])
        assert result.exit_code == 2
        # an id of report shape names no check unless its key does
        result = runner.invoke(main, ["verify", "--check", "inv-no-such"])
        assert result.exit_code == 2
        assert "unknown check ids: inv-no-such" in result.output
        # a criterion's key under another number is no report id: c04 is oracle-equivalence
        for check_id in ("c99-oracle-equivalence", "c01-oracle-equivalence"):
            result = runner.invoke(main, ["verify", "--max-n", "2", "--check", check_id])
            assert result.exit_code == 2
            assert f"unknown check ids: {check_id}" in result.output

    def test_json_format(self, runner):
        result = runner.invoke(
            main, ["verify", "--check", "shell-cardinality", "--format", "json"]
        )
        doc = json.loads(result.stdout)
        assert doc["failures"] == []
        assert doc["checks"][0]["id"] == "c08-shell-cardinality"
        assert doc["checks"][0]["passed"] is True
        assert doc["checks"][0]["cases"] == 1168

    def test_json_format_numpy_bool_check(self, runner):
        # specfun-invariants computes its verdict with numpy comparisons
        result = runner.invoke(
            main, ["verify", "--max-n", "2", "--check", "specfun-invariants", "--format", "json"]
        )
        assert result.exit_code == 0
        assert json.loads(result.stdout)["checks"][0]["passed"] is True

    def test_max_n_quick_mode(self, runner):
        result = runner.invoke(
            main, ["verify", "--max-n", "2", "--check", "shift-formula-identity"]
        )
        assert result.exit_code == 0

    def test_max_n_zero_checks_nothing_and_fails(self, runner):
        result = runner.invoke(main, ["verify", "--max-n", "0"])
        assert result.exit_code == 3
        failures = json.loads(result.stdout.splitlines()[-1].removeprefix("failures: "))
        assert "c01-hydrogen-regression" in failures
        assert "c02-integral-closed-forms" in failures
        assert "c03-shift-formula-identity" in failures
        assert "c08-shell-cardinality" in failures
        for check_id in failures:
            assert f"[FAIL] {check_id}: cases=0 " in result.stdout

    def test_max_n_one_degeneracy_check_needs_a_group(self, runner):
        result = runner.invoke(
            main, ["verify", "--max-n", "1", "--check", "degeneracy-removal", "--format", "json"]
        )
        assert result.exit_code == 3
        doc = json.loads(result.stdout)
        assert doc["checks"][0]["cases"] == 0
        assert doc["failures"] == ["c05-degeneracy-removal"]

    def test_max_n_two_passes_everything(self, quick_report):
        assert quick_report.exit_code == 0
        doc = json.loads(quick_report.stdout)
        assert len(doc["checks"]) == 15
        assert doc["failures"] == []
        assert all(c["passed"] and c["cases"] > 0 for c in doc["checks"])

    def test_breach_exits_3_with_failure_list(self, runner, monkeypatch):
        import dyonstark.verify as verify_mod
        from dyonstark.verify import CheckResult

        def broken(max_n=None):
            return CheckResult("c99-stub", False, 1.0, 1e-12, "stubbed breach", cases=1)

        monkeypatch.setitem(verify_mod.CHECKS, "stub-breach", broken)
        result = runner.invoke(main, ["verify", "--check", "stub-breach"])
        assert result.exit_code == 3
        assert "[FAIL] c99-stub" in result.stdout
        assert '["c99-stub"]' in result.stdout
        result = runner.invoke(main, ["verify", "--check", "stub-breach", "--format", "json"])
        assert result.exit_code == 3
        assert json.loads(result.stdout)["failures"] == ["c99-stub"]

    def test_report_margin_time_and_settings(self, runner):
        args = ["verify", "--max-n", "2", "--check", "shell-cardinality", "--check", "specfun-invariants"]
        doc = json.loads(runner.invoke(main, [*args, "--format", "json"]).stdout)
        assert doc["settings"] == {
            "max_n": 2.0,
            "N_MAX": 200,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "click": importlib.metadata.version("click"),
        }
        exact, inexact = doc["checks"]
        assert (exact["max_err"], exact["tol"], exact["margin"]) == (0.0, 0.0, 0.0)
        assert inexact["margin"] == inexact["max_err"] / inexact["tol"]
        assert 0 < inexact["margin"] <= 1
        assert all(0 < check["elapsed_s"] < 60 for check in doc["checks"])
        text = runner.invoke(main, args).stdout.splitlines()
        assert " tol=0.0e+00 margin=0.00e+00 " in text[0]
        assert f" tol={inexact['tol']:.1e} margin={inexact['margin']:.2e} " in text[1]

    def test_failed_exact_check_has_null_margin(self, runner, monkeypatch):
        def broken(max_n=None):
            return dyonstark.verify.CheckResult("c99-stub", False, 1.0, 0.0, "stubbed exact breach", cases=1)

        monkeypatch.setitem(dyonstark.verify.CHECKS, "stub-exact", broken)
        result = runner.invoke(main, ["verify", "--check", "stub-exact", "--format", "json"])
        assert result.exit_code == 3
        assert json.loads(result.stdout)["checks"][0]["margin"] is None
        assert "null" in result.stdout and "Infinity" not in result.stdout
        result = runner.invoke(main, ["verify", "--check", "stub-exact"])
        assert result.exit_code == 3
        assert "tol=0.0e+00 margin=inf stubbed exact breach" in result.stdout

    def test_nan_error_reported_as_null_and_fails(self, runner, monkeypatch):
        def nan_check(max_n=None):
            bounds = dyonstark.verify._Bounds(stub=1e-12)
            bounds.add("stub", math.nan)
            return bounds.result("c99-stub", "stubbed nan")

        monkeypatch.setitem(dyonstark.verify.CHECKS, "stub-nan", nan_check)
        result = runner.invoke(main, ["verify", "--check", "stub-nan", "--format", "json"])
        assert result.exit_code == 3
        doc = json.loads(result.stdout)
        assert (doc["checks"][0]["max_err"], doc["checks"][0]["margin"]) == (None, None)
        assert doc["failures"] == ["c99-stub"]
        assert "NaN" not in result.stdout

    @pytest.mark.parametrize("value", ["abc", "500"])
    def test_quad_order_env_ignored(self, quick_report, value):
        # orders follow from the labels; no environment setting reaches them
        result = CliRunner().invoke(main, QUICK_VERIFY, env={"DYONSTARK_QUAD_ORDER": value})
        assert result.exit_code == 0
        assert _untimed(result.stdout) == _untimed(quick_report.stdout)
