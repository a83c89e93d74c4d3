"""The quick example scripts run to completion.

Each example is a walk-through of a public surface, so an API change that
breaks one should fail here, not in a reader's terminal.  Every script runs
as a subprocess with ``PYTHONPATH=src`` from the repository root, exactly as
its docstring says, and must exit 0.  The service and failover examples
start servers and are exercised by their own suites instead.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

EXAMPLES = (
    "quickstart",
    "chained_composition",
    "incremental_evolution",
    "extensibility_user_operator",
    "schema_evolution_editing",
    "schema_reconciliation",
    "data_migration",
)


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, str(REPO / "examples" / f"{name}.py")],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
