"""Byte-identity gate for the interval and bitwidth facts themselves.

``facts_digests.json`` next to this file records, for every registered
workload, the sha256 of a canonical JSON rendering of what the dataflow
analyses prove on the optimized module:

* per integer argument and instruction: its interval at the definition,
  its known-zero and known-one masks, its demanded mask and its proven
  width;
* per block: the interval environment at its entry and at its exit (what
  ``interval_at_use`` and ``static_trip_bound`` read), one entry per
  value, ordered by value name;
* per analysis (intervals, known bits): the solver's worklist iterations,
  widenings and narrowing sweeps, summed over the module.

The other digest tables pin these facts only through their consumers;
this one pins them directly.  A change meant to make the solvers faster
must leave every digest unchanged.

The test never writes the table.  After a deliberate change to the facts,
rewrite it with::

    PYTHONPATH=src python -m tests.dataflow.test_facts_digests

Each workload compiles from a fresh SSA name counter, as a new process
does, so value and block names do not depend on which tests ran before.
"""

import hashlib
import itertools
import json
import os

import pytest

from repro.analysis.facts import ModuleFacts
from repro.frontend import compile_source
from repro.ir import values
from repro.telemetry import Telemetry, use
from repro.workloads import get_workload, workload_names

TABLE = os.path.join(os.path.dirname(__file__), "facts_digests.json")
SOLVER_COUNTERS = (
    "dataflow.worklist_iterations", "dataflow.widenings",
    "dataflow.narrow_sweeps",
)


def _interval(interval):
    return None if interval.is_bottom else [interval.lo, interval.hi]


def _env(env):
    if env is None:
        return None
    return sorted(
        [value.name, _interval(interval)]
        for value, interval in env.items()
    )


def _solver_counts(tele):
    counters = tele.snapshot()["counters"]
    return [counters.get(name, 0) for name in SOLVER_COUNTERS]


def facts_payload(module):
    """The module's interval and bitwidth facts as plain JSON-able values."""
    facts = ModuleFacts(module)
    interval_tele, bitwidth_tele = Telemetry(), Telemetry()
    with use(interval_tele):
        intervals = facts.intervals
    functions = []
    with use(bitwidth_tele):
        for func in module.defined_functions():
            facts.bitwidth.for_function(func)
    for func in module.defined_functions():
        ranges = intervals.for_function(func)
        widths = facts.bitwidth.for_function(func)
        rows = []
        for value in [*func.arguments, *func.instructions()]:
            if not value.type.is_int:
                continue
            known = widths.known(value)
            rows.append([
                value.name, _interval(ranges.interval_of(value)),
                known.zeros, known.ones, widths.demanded(value),
                widths.proven_width(value),
            ])
        blocks = [
            [
                block.name,
                _env(ranges.in_states.get(block)),
                _env(ranges.out_states.get(block)),
            ]
            for block in func.blocks
        ]
        functions.append({"name": func.name, "values": rows, "blocks": blocks})
    return {
        "functions": functions,
        "intervals_solver": _solver_counts(interval_tele),
        "known_bits_solver": _solver_counts(bitwidth_tele),
    }


def digest(name):
    workload = get_workload(name)
    saved = values._name_counter
    values._name_counter = itertools.count()
    try:
        module = compile_source(workload.source, workload.name)
        payload = facts_payload(module)
    finally:
        values._name_counter = saved
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _recorded():
    with open(TABLE) as handle:
        return json.load(handle)


def test_table_covers_the_registry():
    assert sorted(_recorded()) == sorted(workload_names())


@pytest.mark.parametrize("name", workload_names())
def test_facts_match_recorded_digest(name):
    assert digest(name) == _recorded().get(name), (
        f"{name}: facts differ from {os.path.basename(TABLE)}"
    )


if __name__ == "__main__":
    with open(TABLE, "w") as handle:
        json.dump(
            {name: digest(name) for name in workload_names()},
            handle, indent=2, sort_keys=True,
        )
        handle.write("\n")
    print(f"wrote {TABLE}")
