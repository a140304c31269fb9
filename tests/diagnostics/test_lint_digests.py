"""Byte-identity gate for the full lint run on every workload.

``lint_digests.json`` next to this file records, for every registered
workload, the sha256 of its lint exit code plus its rendered findings.  The
run is the full one: compile, profile, build the wPST, and lint with an
:class:`~repro.model.estimator.AcceleratorModel`, so the IR, analysis and
config rule layers all run.  Any change to what a rule finds or how it
renders changes a digest and fails this test.  A change meant to make lint
or its analyses faster must leave every digest unchanged.

The test never writes the table.  After a deliberate change to the
findings, rewrite it with::

    PYTHONPATH=src python -m tests.diagnostics.test_lint_digests

Each workload runs from a fresh SSA name counter, as a new process does,
so value and block names do not depend on which tests ran before.
"""

import hashlib
import itertools
import json
import os

from repro.analysis.wpst import WPST
from repro.diagnostics import run_lint
from repro.frontend import compile_source
from repro.interp.profiler import profile_module
from repro.ir import values
from repro.model.estimator import AcceleratorModel
from repro.workloads import get_workload, workload_names

TABLE = os.path.join(os.path.dirname(__file__), "lint_digests.json")


def lint(name):
    """Lint workload ``name`` with every layer, from a fresh SSA name
    counter; returns the exit code and the rendered findings."""
    workload = get_workload(name)
    saved = values._name_counter
    values._name_counter = itertools.count()
    try:
        module = compile_source(workload.source, workload.name)
        profile = profile_module(module, entry=workload.entry)
        wpst = WPST(module, entry_function=workload.entry)
        result = run_lint(
            module, profile=profile, wpst=wpst,
            model=AcceleratorModel(module, profile),
        )
    finally:
        values._name_counter = saved
    return {
        "exit_code": result.exit_code(),
        "diagnostics": [diag.render() for diag in result.diagnostics],
    }


def digest(name):
    text = json.dumps(lint(name), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def digests():
    return {name: digest(name) for name in workload_names()}


def test_lint_runs_match_recorded_digests():
    with open(TABLE) as handle:
        recorded = json.load(handle)
    current = digests()
    differing = sorted(
        name for name in set(recorded) | set(current)
        if recorded.get(name) != current.get(name)
    )
    assert not differing, (
        f"{len(differing)} lint run(s) differ from "
        f"{os.path.basename(TABLE)}: {differing}"
    )


if __name__ == "__main__":
    with open(TABLE, "w") as handle:
        json.dump(digests(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {TABLE}")
