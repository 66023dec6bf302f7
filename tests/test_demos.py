"""Each narrative demo, and each Python block of the README, runs to
completion against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # the subprocess does not see pytest's filterwarnings, so it gets its own
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_demos_found():
    assert len(DEMOS) == 4


def test_readme_blocks_found():
    assert len(README_BLOCKS) >= 1


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    _run(str(demo))


@pytest.mark.parametrize("block", README_BLOCKS, ids=lambda b: f"README:{b.splitlines()[0][:30]}")
def test_readme_block_runs(block):
    _run("-c", block)
