"""Outside-in tracing of the ``dyonstark`` layers.

Child side: ``Tracer.install`` wraps the public functions of every
module and rebinds each wrapper in every ``dyonstark`` namespace that
holds the original (several are imported by name, e.g.
``states.gauss_laguerre`` or ``oracle.jacobi_eigenvalues``).  A wrapper
records a span (name, start, end, parent) in flat in-memory arrays and
updates the counters of its layer; ``Tracer.save`` writes both out
after the operation.  The program itself is not changed.

Parent side: ``analyze`` checks that each span file is a well-formed
tree and sums calls, self time and total time per span name;
``layer_metrics`` turns those sums and the counters into the per-layer
metrics named in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

from workloads import VERIFY_CHECKS


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _points(index, name):
    def count(stats, args, kwargs, result):
        stats["points"] = stats.get("points", 0) + int(np.size(_arg(args, kwargs, index, name)))

    return count


def _rule(kind):
    def count(stats, args, kwargs, result):
        stats.setdefault("distinct", set()).add((kind, int(_arg(args, kwargs, 0, "order"))))

    return count


def _shell(stats, args, kwargs, result):
    from dyonstark.specfun import half

    key = (half(_arg(args, kwargs, 0, "n")).twice, half(_arg(args, kwargs, 1, "s")).twice)
    stats.setdefault("distinct", set()).add(key)
    stats["states_out"] = stats.get("states_out", 0) + len(result)


def _max_dim(stats, dim):
    stats["max_dim"] = max(stats.get("max_dim", 0), dim)


def _jacobi(stats, args, kwargs, result):
    _max_dim(stats, len(result))


def _subspace(stats, args, kwargs, result):
    _max_dim(stats, result.dimension)


def _bytes(stats, args, kwargs, result):
    stats["bytes"] = stats.get("bytes", 0) + len(result.encode("utf-8"))


# (module, function, span name, counter); functions sharing a span name
# are one layer operation (the two rule builders, the two overlaps, ...).
WRAPPED = (
    ("specfun", "hyp1f1_poly", "specfun.hyp1f1_poly", _points(2, "x")),
    ("specfun", "wigner_d", "specfun.wigner_d", _points(3, "theta")),
    ("quadrature", "gauss_laguerre", "quadrature.build", _rule("laguerre")),
    ("quadrature", "gauss_legendre", "quadrature.build", _rule("legendre")),
    ("quadrature", "integrate_halfline", "quadrature.integrate", None),
    ("eigen", "tridiagonal_eigen", "eigen.tridiagonal_eigen", None),
    ("eigen", "jacobi_eigenvalues", "eigen.jacobi_eigenvalues", _jacobi),
    ("states", "enumerate_shell_parabolic", "states.enumerate_shell_parabolic", _shell),
    ("states", "enumerate_shell_spherical", "states.enumerate_shell_spherical", None),
    ("states", "parabolic_psi", "states.psi", None),
    ("states", "spherical_psi", "states.psi", None),
    ("states", "phi_pq", "states.phi_pq", _points(2, "x")),
    ("states", "radial_R", "states.radial_R", None),
    ("states", "phi_pair_moment", "states.phi_pair_moment", None),
    ("states", "spherical_overlap", "states.overlap", None),
    ("states", "parabolic_overlap", "states.overlap", None),
    ("states", "parabolic_hamiltonian_residual", "states.hamiltonian_residual", None),
    ("stark", "stark_table", "stark.stark_table", None),
    ("stark", "shell_splitting", "stark.shell_splitting", None),
    ("oracle", "matrix_element_V", "oracle.matrix_element_V", None),
    ("oracle", "build_subspace", "oracle.build_subspace", _subspace),
    ("tables", "render_csv", "tables.render_csv", _bytes),
    ("tables", "render_json", "tables.render_json", _bytes),
    ("tables", "rows_from_stark_records", "tables.rows_from", None),
    ("tables", "rows_from_spectrum", "tables.rows_from", None),
)


class Tracer:
    """In-memory span recorder; one per operation (one per process)."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counters: dict[str, dict] = {}

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def _open(self, code: int) -> int:
        idx = len(self.start)
        self.name.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(-1)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._code(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, count=None):
        code = self._code(name)
        stats = self.counters.setdefault(name, {})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(stats, args, kwargs, result)
            return result

        return wrapper

    @staticmethod
    def _rebind(orig, wrapper) -> None:
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != "dyonstark":
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        import dyonstark.cli
        from dyonstark import quadrature, verify

        for module, fn_name, span, count in WRAPPED:
            orig = getattr(sys.modules[f"dyonstark.{module}"], fn_name)
            self._rebind(orig, self.wrap(orig, span, count))
        integrate = quadrature.QuadratureRule.integrate
        quadrature.QuadratureRule.integrate = self.wrap(integrate, "quadrature.integrate")
        command = dyonstark.cli.wavefunction
        command.callback = self.wrap(command.callback, "cli.wavefunction")
        for key, check in list(verify.CHECKS.items()):
            wrapper = self.wrap(check, f"verify.{key}")
            self._rebind(check, wrapper)
            verify.CHECKS[key] = wrapper

    def save(self, path: str) -> dict:
        """Write the spans to ``path`` (.npz) and return the counters."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
        )
        return {
            name: {k: (len(v) if isinstance(v, set) else v) for k, v in stats.items()}
            for name, stats in self.counters.items()
        }


def analyze(path) -> tuple[dict[str, dict], list[str]]:
    """Per span name: calls, self_ns and total_ns; plus tree violations.

    A span's self time is its duration minus the durations of its
    children, which a well-formed tree nests inside it without overlap.
    """
    with np.load(path) as f:
        names, name, parent = list(f["names"]), f["name"], f["parent"]
        start, end = f["start"], f["end"]
    errors = []
    idx = np.arange(name.size)
    dur = end - start
    if np.any(dur < 0):
        errors.append(f"{int(np.sum(dur < 0))} spans never closed or end before they start")
    child = parent >= 0
    p = parent[child]
    if np.any(p >= idx[child]):
        errors.append("a span's parent opens after it")
    elif np.any(start[child] < start[p]) or np.any(end[child] > end[p]):
        errors.append(f"{int(np.sum((start[child] < start[p]) | (end[child] > end[p])))} children outside their parent")
    covered = np.zeros(name.size, dtype=np.int64)
    np.add.at(covered, p, dur[child])
    self_ns = dur - covered
    if np.any(self_ns < 0):
        errors.append(f"{int(np.sum(self_ns < 0))} spans with negative self time")
    totals = {}
    for code, span_name in enumerate(names):
        sel = name == code
        totals[str(span_name)] = {
            "calls": int(np.sum(sel)),
            "self_ns": int(np.sum(self_ns[sel])),
            "total_ns": int(np.sum(dur[sel])),
        }
    return totals, errors


def _merge_totals(all_totals: list[dict]) -> dict[str, dict]:
    merged: dict[str, dict] = {}
    for totals in all_totals:
        for span_name, t in totals.items():
            m = merged.setdefault(span_name, {"calls": 0, "self_ns": 0, "total_ns": 0})
            for k in m:
                m[k] += t[k]
    return merged


def _merge_counters(all_counters: list[dict]) -> dict[str, dict]:
    """Sums over operations, except max_dim, which is a maximum."""
    merged: dict[str, dict] = {}
    for counters in all_counters:
        for span_name, stats in counters.items():
            m = merged.setdefault(span_name, {})
            for k, v in stats.items():
                m[k] = max(m.get(k, 0), v) if k == "max_dim" else m.get(k, 0) + v
    return merged


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric, unit, better); the order is the print order.
PER_LAYER = (
    [
        ("quadrature.rules_built", "count", "lower"),
        ("quadrature.rules_distinct", "count", "lower"),
        ("quadrature.rule_reuse_ratio", "ratio", "higher"),
        ("quadrature.build.self_s", "s", "lower"),
        ("quadrature.integrate.calls", "count", "lower"),
        ("quadrature.integrate.self_s", "s", "lower"),
        ("eigen.tridiagonal_eigen.calls", "count", "lower"),
        ("eigen.tridiagonal_eigen.self_s", "s", "lower"),
        ("eigen.jacobi_eigenvalues.calls", "count", "lower"),
        ("eigen.jacobi_eigenvalues.self_s", "s", "lower"),
        ("eigen.jacobi.max_dim", "count", "lower"),
        ("states.enumerate_shell_parabolic.calls", "count", "lower"),
        ("states.enumerate_shell_parabolic.distinct", "count", "lower"),
        ("states.enumerate_shell_parabolic.states_out", "count", "lower"),
        ("states.enumerate_shell_parabolic.self_s", "s", "lower"),
        ("states.enum_distinct_ratio", "ratio", "higher"),
        ("states.enumerate_shell_spherical.calls", "count", "lower"),
        ("states.enumerate_shell_spherical.self_s", "s", "lower"),
        ("states.psi.calls", "count", "lower"),
        ("states.psi.self_s", "s", "lower"),
        ("states.phi_pq.calls", "count", "lower"),
        ("states.phi_pq.points", "count", "lower"),
        ("states.phi_pq.self_s", "s", "lower"),
        ("states.radial_R.calls", "count", "lower"),
        ("states.radial_R.self_s", "s", "lower"),
        ("specfun.hyp1f1_poly.calls", "count", "lower"),
        ("specfun.hyp1f1_poly.points", "count", "lower"),
        ("specfun.hyp1f1_poly.self_s", "s", "lower"),
        ("specfun.wigner_d.calls", "count", "lower"),
        ("specfun.wigner_d.points", "count", "lower"),
        ("specfun.wigner_d.self_s", "s", "lower"),
        ("cli.wavefunction.self_s", "s", "lower"),
        ("states.phi_pair_moment.calls", "count", "lower"),
        ("states.phi_pair_moment.self_s", "s", "lower"),
        ("states.overlap.calls", "count", "lower"),
        ("states.overlap.self_s", "s", "lower"),
        ("states.hamiltonian_residual.self_s", "s", "lower"),
        ("stark.stark_table.calls", "count", "lower"),
        ("stark.stark_table.self_s", "s", "lower"),
        ("stark.shell_splitting.self_s", "s", "lower"),
        ("oracle.matrix_element_V.calls", "count", "lower"),
        ("oracle.matrix_element_V.self_s", "s", "lower"),
        ("oracle.build_subspace.calls", "count", "lower"),
        ("oracle.build_subspace.self_s", "s", "lower"),
        ("oracle.build_subspace.max_dim", "count", "lower"),
        ("tables.render_csv.self_s", "s", "lower"),
        ("tables.render_csv.bytes", "bytes", "lower"),
        ("tables.render_json.self_s", "s", "lower"),
        ("tables.render_json.bytes", "bytes", "lower"),
        ("tables.rows_from.self_s", "s", "lower"),
    ]
    + [(f"verify.{key}.total_s", "s", "lower") for key in VERIFY_CHECKS]
    + [
        ("trace.spans", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("host.ref_wall_s", "s", "lower"),
    ]
)


def layer_metrics(all_totals: list[dict], all_counters: list[dict], run_values: dict[str, float]) -> dict[str, float]:
    """The ``PER_LAYER`` metrics of one traced pass, summed over its operations.

    ``run_values`` holds the metrics measured by the runner, not at the
    wrappers: ``trace.overhead_s`` and ``host.ref_wall_s``.
    """
    totals = _merge_totals(all_totals)
    counters = _merge_counters(all_counters)
    values: dict[str, float] = {}
    for span_name, t in totals.items():
        values[f"{span_name}.calls"] = t["calls"]
        values[f"{span_name}.self_s"] = t["self_ns"] / 1e9
        values[f"{span_name}.total_s"] = t["total_ns"] / 1e9
    for span_name, stats in counters.items():
        for key, v in stats.items():
            values[f"{span_name}.{key}"] = v
    built = values.get("quadrature.build.calls", 0)
    distinct_rules = values.get("quadrature.build.distinct", 0)
    shells = values.get("states.enumerate_shell_parabolic.calls", 0)
    values.update({
        "quadrature.rules_built": built,
        "quadrature.rules_distinct": distinct_rules,
        "quadrature.rule_reuse_ratio": _ratio(distinct_rules, built),
        "eigen.jacobi.max_dim": values.get("eigen.jacobi_eigenvalues.max_dim", 0),
        "states.enum_distinct_ratio": _ratio(values.get("states.enumerate_shell_parabolic.distinct", 0), shells),
        "trace.spans": sum(t["calls"] for t in totals.values()),
        **run_values,
    })
    return {metric: values.get(metric, 0) for metric, _, _ in PER_LAYER}

