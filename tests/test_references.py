"""The reference outputs whose bytes the benchmark pins by sha256."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_reference_output_digests_are_unchanged():
    # perfbench/reference.py rebuilds the default-grid CSV and JSON maps,
    # the README engine curve and the ambient fit report, and compares
    # their digests with perfbench/references.json.  It runs in a child
    # process so that its 400x400 sweep stays out of the test process.
    result = subprocess.run(
        [sys.executable, "perfbench/reference.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert len(report["checked"]) == 4
    assert report["mismatched"] == []
