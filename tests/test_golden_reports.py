"""Every golden CLI call of the benchmark, replayed in-process.

The benchmark's cli-mix workload checks each report's sha256 against
``perfbench/golden.py``; replaying the same calls here makes a report that
drifts by one byte fail the test suite as well.  Each JSON report must also
hold no float anywhere: every number germinv prints is exact.  The golden
file is read, never imported, so nothing is written next to it.
"""

import contextlib
import hashlib
import io
import json
import runpy
from pathlib import Path

import pytest

from germinv.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.py"
CLI_CALLS = runpy.run_path(str(GOLDEN))["CLI_CALLS"]


@pytest.mark.parametrize("argv, code, digest", CLI_CALLS,
                         ids=[" ".join(argv) for argv, _, _ in CLI_CALLS])
def test_golden_report(argv, code, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(list(argv)) == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
    if code == 0 and argv[:2] != ("--format", "text"):
        assert not _floats(json.loads(out.getvalue())), "a report holds a float"


def _floats(value) -> list:
    """Every float anywhere inside a parsed JSON value."""
    if isinstance(value, float):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for item in value for x in _floats(item)]
    return []
