"""Every demo script runs to completion against the checkout under test.

The demos import the public API by name, so a demo left behind by a rename
or a deletion fails here rather than in a reader's hands.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import checkout_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS, "no demos found"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=checkout_env()
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip(), f"{demo.name} printed nothing"
