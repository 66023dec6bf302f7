"""Mutation sweep over named function bodies, with the standard library only.

    python tests/mutants.py specfun._laguerre specfun._hyp1f1_scales

Each target is a module-level function of ``src/dyonstark``, named as
module.function.  Each mutant changes one thing in its body:

- a ``+``/``-`` or ``*``/``/`` swap;
- a numeric constant bumped by one;
- a dropped unary minus (``-x`` becomes ``+x``).

For each mutant, ``dyonstark verify --max-n 2`` runs on a temporary copy
of ``src`` that holds it; a mutant that passes survives.  The sweep
prints every survivor and exits 1 if any is not listed in ``EQUIVALENT``
with the reason no result can tell it from the original.  pytest does
not collect this file; it takes about half a second per mutant.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = "dyonstark"
VERIFY = ["verify", "--max-n", "2"]
TIMEOUT_S = 120

# "module.function: before -> after", as the sweep prints it -> why no result
# can tell the mutant from the original
EQUIVALENT: dict[str, str] = {}

SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    """The module-level function of this name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise SystemExit(f"no function {name} in {PACKAGE}")


def _mutate(node) -> bool:
    """Apply the node's one mutation in place; False if it has none."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
        node.op = SWAPS[type(node.op)]()
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
        node.value += 1
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node.op = ast.UAdd()
    else:
        return False
    return True


def _nodes(func: ast.FunctionDef):
    """(node, the expression its label shows) for every node of the function's
    body, in a fixed order: a constant or unary minus shows with its parent."""
    for parent in ast.walk(ast.Module(body=func.body, type_ignores=[])):
        for node in ast.iter_child_nodes(parent):
            yield node, parent if isinstance(node, (ast.Constant, ast.UnaryOp)) else node


def _mutants(source: str, name: str):
    """(label, module source) of the function as ast writes it back,
    unchanged (label None), then of each of its one-change mutants."""
    func = _function(ast.parse(source), name)
    first = min([func.lineno] + [d.lineno for d in func.decorator_list])
    lines = source.splitlines(keepends=True)
    seen: dict[str, int] = {}
    for index in range(-1, sum(1 for _ in _nodes(func))):
        # a fresh tree per mutant; _nodes visits its nodes in the same order
        mutant = _function(ast.parse(source), name)
        label = None
        if index >= 0:
            node, shown = list(_nodes(mutant))[index]
            before = ast.unparse(shown)
            if not _mutate(node):
                continue
            label = f"{name}: {before} -> {ast.unparse(shown)}"
            seen[label] = seen.get(label, 0) + 1
            if seen[label] > 1:
                label += f" #{seen[label]}"
        yield label, "".join(lines[: first - 1]) + ast.unparse(mutant) + "\n" + "".join(lines[func.end_lineno :])


def _passes(root: Path) -> bool:
    """Whether ``dyonstark verify --max-n 2`` passes on the package under root."""
    env = {**os.environ, "PYTHONPATH": str(root), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        run = subprocess.run(
            [sys.executable, "-c", f"from {PACKAGE}.cli import main; main()", *VERIFY],
            cwd=root,
            env=env,
            capture_output=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def sweep(targets: list[str]) -> int:
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "src"
        shutil.copytree(SRC, root, ignore=shutil.ignore_patterns("__pycache__"))
        if not _passes(root):
            print(f"verify fails on the unmutated {PACKAGE}; no mutant can be judged")
            return 2
        for target in targets:
            module, _, name = target.partition(".")
            file = root / PACKAGE / f"{module}.py"
            if not name or not file.exists():
                raise SystemExit(f"name a function as module.function, got {target!r}")
            source = file.read_text()
            alive = total = 0
            try:
                for label, mutated in _mutants(source, name):
                    file.write_text(mutated)
                    if label is None:
                        if not _passes(root):
                            raise SystemExit(f"verify fails on {target} as ast writes it back, unchanged")
                        continue
                    total += 1
                    if _passes(root):
                        alive += 1
                        survivors.append(f"{module}.{label}")
            finally:
                file.write_text(source)
            print(f"{target}: {total} mutants, {alive} survive")
    unexplained = [label for label in survivors if label not in EQUIVALENT]
    for label in survivors:
        print(f"  survivor {label}: {EQUIVALENT.get(label, 'UNEXPLAINED')}")
    return 1 if unexplained else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("targets", nargs="+", help="functions as module.function, e.g. specfun._laguerre")
    return sweep(parser.parse_args(argv).targets)


if __name__ == "__main__":
    sys.exit(main())
