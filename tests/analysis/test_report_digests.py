"""Byte-identity gate for the dependence, banking and reuse reports.

``report_digests.json`` next to this file records the sha256 of
``repro {deps,banks,reuse} --workload W --json`` for every registered
workload.  Any change to what those analyses decide, or to how the
reports print it, changes a digest and fails this test.  A refactor of the
analyses must leave every digest unchanged.

The test never writes the table.  After a deliberate report change,
rewrite it with::

    PYTHONPATH=src python -m tests.analysis.test_report_digests

Reports are produced in process.  SSA value names come from a
process-global counter, so each report starts from a fresh counter, as a
new ``python -m repro`` process does.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os

from repro.cli import main
from repro.ir import values
from repro.workloads import workload_names

TABLE = os.path.join(os.path.dirname(__file__), "report_digests.json")
TOOLS = ("deps", "banks", "reuse")


def report(tool, workload):
    """The ``--json`` report text exactly as a fresh CLI process prints it."""
    saved = values._name_counter
    values._name_counter = itertools.count()
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            status = main([tool, "--workload", workload, "--json"])
    finally:
        values._name_counter = saved
    assert status == 0, (tool, workload, status)
    return buffer.getvalue()


def digests():
    return {
        tool: {
            name: hashlib.sha256(report(tool, name).encode()).hexdigest()
            for name in workload_names()
        }
        for tool in TOOLS
    }


def test_reports_match_recorded_digests():
    with open(TABLE) as handle:
        recorded = json.load(handle)
    current = digests()
    differing = sorted(
        (tool, name)
        for tool in sorted(set(recorded) | set(current))
        for name in sorted(
            set(recorded.get(tool, {})) | set(current.get(tool, {}))
        )
        if recorded.get(tool, {}).get(name) != current.get(tool, {}).get(name)
    )
    assert not differing, (
        f"{len(differing)} report(s) differ from {os.path.basename(TABLE)}: "
        f"{differing}"
    )


if __name__ == "__main__":
    with open(TABLE, "w") as handle:
        json.dump(digests(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {TABLE}")
