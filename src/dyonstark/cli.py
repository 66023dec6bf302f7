"""Command-line front end.

Subcommands compute spectra, Stark shift tables, splitting summaries,
dipole moments, wavefunction grids, and run the verification suite.
Output is deterministic CSV (RFC 4180) or JSON: identical invocations
produce byte-identical bytes.

Exit codes: 0 success, 2 invalid quantum numbers or options, 3 when
``verify`` finds any tolerance breach.
"""

from __future__ import annotations

import errno
import json
import math
import os
import sys
from itertools import chain, repeat

import click
import numpy as np

from . import stark, states, tables, verify
from .specfun import HalfInteger, half
from .stark import FieldConfig
from .states import ParabolicState, PhysicalParams, SphericalState


def _parse_half(value: str, name: str):
    try:
        return half(value)
    except (ValueError, TypeError) as exc:
        raise click.BadParameter(str(exc), param_hint=f"--{name}")


def _fail_validation(exc: Exception) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(2)


def _unwritable(output: str, reason: str) -> None:
    _fail_validation(ValueError(f"cannot write --output {output}: {reason}"))


def _writable_output(ctx, param, output: str) -> str:
    """Refuse an ``--output`` path that cannot be written, before any work.

    Nothing is created: the path is only inspected.
    """
    if output == "-":
        return output
    parent = os.path.dirname(output) or "."
    if os.path.isdir(output):
        code = errno.EISDIR
    elif not os.path.exists(parent):
        code = errno.ENOENT
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR
    elif not os.access(output if os.path.exists(output) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return output
    _unwritable(output, os.strerror(code))


def _emit(pieces, output: str | None) -> None:
    """Write the text pieces in order to stdout or to ``output``."""
    if output in (None, "-"):
        stream = click.get_text_stream("stdout")
        try:
            stream.writelines(pieces)
            stream.flush()
        except OSError as exc:
            if exc.errno != errno.EPIPE:  # a reader that stops early, as head does, is no error
                _fail_validation(ValueError(f"cannot write stdout: {exc.strerror or exc}"))
    else:
        try:
            with open(output, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            _unwritable(output, exc.strerror or str(exc))


def _render(table, fmt, params, field=None, ratio=None, output=None):
    if fmt == "csv":
        pieces = tables.csv_pieces(table)
    else:
        pieces = tables.json_pieces(table, params, field=field, ratio=ratio)
    try:
        # the first piece comes only after every cell is checked
        first = next(pieces)
    except ValueError as exc:
        # the renderers refuse NaN and Inf, which finite inputs reach by overflow
        _fail_validation(ValueError(f"results must be finite, but these inputs overflow them ({exc})"))
    _emit(chain([first], pieces), output)


_output_option = click.option(
    "--output", "-o", default="-", callback=_writable_output, help="Output path, '-' for stdout."
)


def _common_options(fn):
    fn = _output_option(fn)
    fn = click.option(
        "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True
    )(fn)
    fn = click.option("--gamma", type=float, default=1.0, show_default=True, help="Coulomb coupling gamma.")(fn)
    fn = click.option("--s", "s_str", default="0", show_default=True, help="Monopole number (e.g. 1, 1/2, -3/2).")(fn)
    return fn


@click.group()
@click.version_option(package_name="dyonstark", prog_name="dyonstark")
def main():
    """Bound states and the linear Stark effect of a charge-dyon system."""


@main.command()
@_common_options
@click.option("--n", "n_str", required=True, help="Principal level (e.g. 3 or 5/2).")
def spectrum(s_str, n_str, gamma, fmt, output):
    """Shell energy and spherical quantum-number table."""
    s = _parse_half(s_str, "s")
    n = _parse_half(n_str, "n")
    try:
        params = PhysicalParams.atomic(s, gamma_c=gamma)
        table = tables.spectrum_table(n, s, params)
    except ValueError as exc:
        _fail_validation(exc)
    _render(table, fmt, params, output=output)


def _field_command(name: str, epsilon: float, build, doc: str):
    """A command that renders ``build(n, s, field, params)``, one shell's
    table in a field, and reports the perturbative ratio on stderr."""

    @main.command(name=name, help=doc)
    @_common_options
    @click.option("--n", "n_str", required=True, help="Principal level.")
    @click.option("--epsilon", type=float, default=epsilon, show_default=True, help="Field strength.")
    def command(s_str, n_str, gamma, epsilon, fmt, output):
        s = _parse_half(s_str, "s")
        n = _parse_half(n_str, "n")
        try:
            params = PhysicalParams.atomic(s, gamma_c=gamma)
            field = FieldConfig(epsilon)
            table = build(n, s, field, params)
        except ValueError as exc:
            _fail_validation(exc)
        ratio = field.perturbative_ratio(n, params)
        if not math.isfinite(ratio):
            _fail_validation(
                ValueError(
                    "results must be finite, but these inputs overflow the perturbative ratio "
                    f"|e| eps a^2 n^4 / gamma = {ratio!r}"
                )
            )
        # first-order theory is credible while this stays well below one
        click.echo(f"perturbative ratio |e| eps a^2 n^4 / gamma = {ratio!r}", err=True)
        _render(table, fmt, params, field=field, ratio=ratio, output=output)

    return command


def _shell_table(n, s, field, params):
    return tables.shifts_table(n, s, field, params)


def _splitting_table(n, s, field, params):
    delta = stark.shell_splitting(n, s, field, params)
    row = {"n": n.value, "s2": s.twice, "epsilon": field.epsilon, "delta_e": delta}
    return {key: np.array([value]) for key, value in row.items()}


shifts = _field_command("shifts", 1.0, _shell_table, "First-order Stark shift table for one shell.")
dipole = _field_command(
    "dipole", 0.0, _shell_table, "Permanent dipole moments of one shell (e1 at the given field)."
)
splitting = _field_command(
    "splitting", 1.0, _splitting_table, "Distance between the extreme like-m components of a shell."
)


@main.command()
@_common_options
@click.option("--n", "n_str", required=True, help="Principal level.")
@click.option("--basis", type=click.Choice(["parabolic", "spherical"]), default="parabolic", show_default=True)
@click.option("--n1", type=int, default=None, help="Parabolic n1 (default: first shell state).")
@click.option("--n2", type=int, default=None, help="Parabolic n2.")
@click.option("--j", "j_str", default=None, help="Spherical j (half-integers allowed).")
@click.option(
    "--m", "m_str", default=None, help="Projection m (half-integers allowed; default 0, or 1/2 at half-integer s)."
)
@click.option("--points", type=click.IntRange(min=2, max=512), default=24, show_default=True)
@click.option("--extent", type=float, default=16.0, show_default=True, help="Grid reach in units of a.")
@click.option("--phi", type=float, default=0.0, show_default=True, help="Azimuth of the sampling plane.")
def wavefunction(s_str, n_str, gamma, basis, n1, n2, j_str, m_str, points, extent, phi, fmt, output):
    """Wavefunction values on a coordinate grid (one azimuthal plane).

    Parabolic basis: coord1 = xi, coord2 = eta.  Spherical basis:
    coord1 = r, coord2 = theta.
    """
    if basis == "parabolic" and j_str is not None:
        _fail_validation(ValueError("--j labels spherical states; --basis parabolic takes --n1, --n2 and --m"))
    if basis == "spherical" and (n1 is not None or n2 is not None):
        _fail_validation(ValueError("--n1 and --n2 label parabolic states; --basis spherical takes --j and --m"))
    s = _parse_half(s_str, "s")
    n = _parse_half(n_str, "n")
    if not (math.isfinite(extent) and extent > 0):
        _fail_validation(ValueError("--extent must be a positive finite number"))
    if not math.isfinite(phi):
        _fail_validation(ValueError("--phi must be a finite number"))
    try:
        params = PhysicalParams.atomic(s, gamma_c=gamma)
        # 0 at integer s, 1/2 at half-integer s: the smallest m >= 0 the shell allows
        m = _parse_half(m_str, "m") if m_str is not None else HalfInteger(s.twice % 2)
        if basis == "parabolic":
            states._shell(n, s, params)
            if n1 is None and n2 is None and m_str is None:
                # the shell's first state in enumeration order
                state = ParabolicState(0, 0, 1 - n, s)
            else:
                n1, n2 = n1 or 0, n2 or 0
                level = states._label_level(n1, n2, m, s)  # a state past the cap names only the cap
                if level != n:
                    raise ValueError(f"(n1={n1}, n2={n2}, m={m}) belongs to shell n={level}, not n={n}")
                state = ParabolicState(n1, n2, m, s)
            c1 = c2 = np.linspace(0.0, extent * params.a, points)
        else:
            j = _parse_half(j_str if j_str is not None else str(abs(s).value), "j")
            state = SphericalState(n=n, j=j, m=m, s=s)
            c1 = np.linspace(0.0, extent * params.a, points)
            c2 = np.linspace(0.0, math.pi, points)
        # a huge --extent overflows the kernels; the renderer refuses the
        # non-finite values with exit 2, so numpy need not warn first
        with np.errstate(over="ignore", invalid="ignore"):
            psi = states.psi_grid(state, c1, c2, phi, params)
    except ValueError as exc:
        _fail_validation(exc)
    values = psi.ravel()
    table = {
        "coord1": np.repeat(c1, len(c2)),
        "coord2": np.tile(c2, len(c1)),
        "phi": np.full(values.size, phi),
        "psi_re": values.real,
        "psi_im": values.imag,
        # abs(v) ** 2 on Python complexes: numpy's square can round differently
        "abs2": np.array(list(map(pow, map(abs, values.tolist()), repeat(2)))),
    }
    _render(table, fmt, params, output=output)


@main.command(name="verify")
@click.option("--max-n", "max_n_str", default=None, help="Cap shell ranges (quick mode).")
@click.option(
    "--check", "only", multiple=True, help="Run only these checks, by key or report id (repeatable)."
)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
@_output_option
@click.option("--list", "list_only", is_flag=True, help="List check IDs and exit.")
def verify_cmd(max_n_str, only, fmt, output, list_only):
    """Run the named verification checks; exit 3 on any breach."""
    if list_only:
        _emit(["\n".join(verify.CHECKS) + "\n"], output)
        return
    max_n = None
    if max_n_str is not None:
        max_n = float(_parse_half(max_n_str, "max-n").value)
    unknown = [nm for nm in only if verify.check_key(nm) not in verify.CHECKS]
    if unknown:
        _fail_validation(ValueError(f"unknown check ids: {', '.join(unknown)}"))
    # by key or report id, each check once, in first-seen order
    names = list(dict.fromkeys(verify.check_key(nm) for nm in only or verify.CHECKS))
    results = [verify.run_check(nm, max_n=max_n) for nm in names]
    failures = [r.check_id for r in results if not r.passed]
    if fmt == "json":
        from importlib.metadata import version

        doc = {
            "settings": {
                "max_n": max_n,
                "N_MAX": states.N_MAX,
                "python": ".".join(map(str, sys.version_info[:3])),
                "numpy": np.__version__,
                "click": version("click"),
            },
            "checks": [
                {
                    "id": r.check_id,
                    "passed": r.passed,
                    "cases": r.cases,
                    # a NaN error, or an exact bound missed by any amount,
                    # has no finite value to write
                    "max_err": r.max_err if math.isfinite(r.max_err) else None,
                    "tol": r.tol,
                    "margin": r.margin if math.isfinite(r.margin) else None,
                    "elapsed_s": r.elapsed_s,
                    "detail": r.detail,
                    "notes": r.notes,
                }
                for r in results
            ],
            "failures": failures,
        }
        _emit([json.dumps(doc, indent=2, allow_nan=False) + "\n"], output)
    else:
        lines = [r.line() for r in results]
        lines.append(f"{len(results) - len(failures)}/{len(results)} checks passed")
        if failures:
            lines.append("failures: " + json.dumps(failures))
        _emit(["\n".join(lines) + "\n"], output)
    if failures:
        sys.exit(3)


if __name__ == "__main__":
    main()
