"""Byte-identity gate for the reusable-accelerator RTL of merged fronts.

``reusable_digests.json`` next to this file records, for each program of
the perfbench ``merge-heavy`` pool, the sha256 over the Verilog text
``generate_reusable_accelerator(merged, i)`` emits for every group ``i``
of every merged solution ``Cayman().run`` returns.  That text is built
from each merged unit's DFG, node by node and edge by edge, so any change
to how a merged unit's graph is laid out or wired changes a digest.

The test never writes the table.  After a deliberate change to the RTL,
rewrite it with::

    PYTHONPATH=src python -m tests.rtl.test_reusable_digests

Each program runs from a fresh SSA name counter, as a new process does,
so emitted value names do not depend on which tests ran before.
"""

import hashlib
import itertools
import json
import os

import pytest

from repro import Cayman
from repro.ir import values
from repro.rtl.reusable_gen import generate_reusable_accelerator
from repro.workloads import get_workload

TABLE = os.path.join(os.path.dirname(__file__), "reusable_digests.json")

#: The perfbench ``merge-heavy`` pool: the registry programs where merging
#: dominates ``Cayman.run``, so their fronts hold the most merged units.
PROGRAMS = (
    "cjpeg", "cjpeg-rose7-preset", "epic", "deriche",
    "linear-alg-mid-100x100-sp", "loops-all-mid-10k-sp", "gramschmidt",
    "doitgen", "atax", "3mm", "bicg",
)


def digest(name):
    workload = get_workload(name)
    saved = values._name_counter
    values._name_counter = itertools.count()
    try:
        result = Cayman().run(
            workload.source, entry=workload.entry, name=workload.name
        )
        sha = hashlib.sha256()
        for merged in result.merged:
            for group in range(len(merged.accelerators)):
                text = generate_reusable_accelerator(merged, group)
                sha.update(text.encode())
                sha.update(b"\0")
    finally:
        values._name_counter = saved
    return sha.hexdigest()


def _recorded():
    with open(TABLE) as handle:
        return json.load(handle)


def test_table_covers_the_programs():
    assert sorted(_recorded()) == sorted(PROGRAMS)


@pytest.mark.parametrize("name", PROGRAMS)
def test_reusable_rtl_matches_recorded_digest(name):
    assert digest(name) == _recorded().get(name), (
        f"{name}: reusable RTL differs from {os.path.basename(TABLE)}"
    )


if __name__ == "__main__":
    with open(TABLE, "w") as handle:
        json.dump(
            {name: digest(name) for name in PROGRAMS},
            handle, indent=2, sort_keys=True,
        )
        handle.write("\n")
    print(f"wrote {TABLE}")
