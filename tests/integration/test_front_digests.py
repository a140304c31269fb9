"""Byte-identity gate for the Pareto fronts ``Cayman().run`` produces.

``front_digests.json`` next to this file records, for every registered
workload, the sha256 of a canonical JSON rendering of its front:

* per solution, its area and saved seconds;
* per accelerator, its config label, cycles, area and synthesis reports;
* per merged solution, ``area_after``, ``merge_steps``, the unit names and
  their groups.

Any change to what the estimator, selection or merging compute changes a
digest and fails this test.  A change meant to speed the flow up must leave
every digest unchanged.

The test never writes the table.  After a deliberate change to the fronts,
rewrite it with::

    PYTHONPATH=src python -m tests.integration.test_front_digests

Each workload runs from a fresh SSA name counter, as a new process does,
so block and loop names do not depend on which tests ran before.
"""

import hashlib
import itertools
import json
import os

import pytest

from repro import Cayman
from repro.ir import values
from repro.workloads import get_workload, workload_names

TABLE = os.path.join(os.path.dirname(__file__), "front_digests.json")


def _report(report):
    area = report.area
    return [
        report.name, report.kind, report.latency_cycles, report.ii,
        report.depth,
        [area.functional_units, area.registers, area.control,
         area.interfaces, area.muxes],
        sorted(report.interface_counts.items()),
    ]


def front_payload(result):
    """The front and merged front as plain JSON-able values."""
    return {
        "front": [
            {
                "area": solution.area,
                "saved_seconds": solution.saved_seconds,
                "accelerators": [
                    {
                        "kernel": accel.config.kernel_name,
                        "label": accel.config.label,
                        "cycles": accel.cycles,
                        "area": accel.area,
                        "reports": [_report(r) for r in accel.reports],
                    }
                    for accel in solution.accelerators
                ],
            }
            for solution in result.front
        ],
        "merged": [
            {
                "area_after": merged.area_after,
                "merge_steps": merged.merge_steps,
                "units": [unit.name for unit in merged.units],
                "groups": list(merged.unit_groups),
            }
            for merged in result.merged
        ],
    }


def digest(name):
    workload = get_workload(name)
    saved = values._name_counter
    values._name_counter = itertools.count()
    try:
        result = Cayman().run(
            workload.source, entry=workload.entry, name=workload.name
        )
    finally:
        values._name_counter = saved
    text = json.dumps(front_payload(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _recorded():
    with open(TABLE) as handle:
        return json.load(handle)


def test_table_covers_the_registry():
    assert sorted(_recorded()) == sorted(workload_names())


@pytest.mark.parametrize("name", workload_names())
def test_front_matches_recorded_digest(name):
    assert digest(name) == _recorded().get(name), (
        f"{name}: front differs from {os.path.basename(TABLE)}"
    )


if __name__ == "__main__":
    with open(TABLE, "w") as handle:
        json.dump(
            {name: digest(name) for name in workload_names()},
            handle, indent=2, sort_keys=True,
        )
        handle.write("\n")
    print(f"wrote {TABLE}")
