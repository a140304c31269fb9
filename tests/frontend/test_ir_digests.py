"""Byte-identity gate for the IR the frontend and the optimizer produce.

``ir_digests.json`` next to this file records, for every registered
workload, two sha256 digests: of the printed module
``compile_source(source, name, optimize=False)`` returns (lowering and
SSA construction alone) and of the printed module
``compile_source(source, name)`` returns (after the pass pipeline).
Every other layer reads this IR, so a change meant to make lowering,
verification or the passes faster must leave both digests unchanged.

The test never writes the table.  After a deliberate change to the IR,
rewrite it with::

    PYTHONPATH=src python -m tests.frontend.test_ir_digests

Each workload compiles from a fresh SSA name counter, as a new process
does, so value names do not depend on which tests ran before.
"""

import hashlib
import itertools
import json
import os

import pytest

from repro.frontend import compile_source
from repro.ir import values
from repro.workloads import get_workload, workload_names

TABLE = os.path.join(os.path.dirname(__file__), "ir_digests.json")


def _sha(module):
    return hashlib.sha256(str(module).encode()).hexdigest()


def digests(name):
    """``[lowered, optimized]`` digests of one workload's module."""
    workload = get_workload(name)
    result = []
    for optimize in (False, True):
        saved = values._name_counter
        values._name_counter = itertools.count()
        try:
            module = compile_source(
                workload.source, workload.name, optimize=optimize
            )
            result.append(_sha(module))
        finally:
            values._name_counter = saved
    return result


def _recorded():
    with open(TABLE) as handle:
        return json.load(handle)


def test_table_covers_the_registry():
    assert sorted(_recorded()) == sorted(workload_names())


@pytest.mark.parametrize("name", workload_names())
def test_ir_matches_recorded_digests(name):
    assert digests(name) == _recorded().get(name), (
        f"{name}: IR differs from {os.path.basename(TABLE)}"
    )


if __name__ == "__main__":
    with open(TABLE, "w") as handle:
        json.dump(
            {name: digests(name) for name in workload_names()},
            handle, indent=2, sort_keys=True,
        )
        handle.write("\n")
    print(f"wrote {TABLE}")
