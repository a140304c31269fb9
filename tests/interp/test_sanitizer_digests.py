"""Byte-identity gate for sanitized runs.

``sanitizer_digests.json`` next to this file records, per sanitized run,
the sha256 of a canonical JSON rendering of what the run reports:

* ``report()`` (every check counter, violation and note);
* ``notes`` and ``violations``;
* ``observed_distances``, keyed by loop header and instruction positions;
* the return value.

The runs are every registered workload with no injection, and each
injected claim kind on the workload its CI gate uses.  Any change to what the sanitizer
checks, counts or reports changes a digest and fails this test.  A change
meant to make the sanitizer faster must leave every digest unchanged.

The test never writes the table.  After a deliberate change to the
sanitizer's output, rewrite it with::

    PYTHONPATH=src python -m tests.interp.test_sanitizer_digests

Each run starts from a fresh SSA name counter, as a new process does, so
value and block names do not depend on which tests ran before.
"""

import hashlib
import itertools
import json
import os

from repro.frontend import compile_source
from repro.interp.sanitizer import SanitizingInterpreter
from repro.ir import values
from repro.workloads import get_workload, workload_names

from ..conftest import sanitized_output

TABLE = os.path.join(os.path.dirname(__file__), "sanitizer_digests.json")

#: Each injected claim kind → the workload its CI gate sanitizes.
MODES = {
    "bitwidth": "bitwidth-adversary",
    "dependence": "wave-lag",
    "banking": "stride2-collider",
    "reuse": "stencil-reuse-3",
    "alias": "smooth-alias",
}


def runs():
    """``(key, workload, claim)`` for every pinned run; ``claim`` is the
    injected claim kind, or ``None``."""
    for name in workload_names():
        yield name, name, None
    for claim, name in MODES.items():
        yield f"{name}+{claim}", name, claim


def sanitize(name, claim=None, engine="compiled"):
    """Sanitize workload ``name`` from a fresh SSA name counter."""
    workload = get_workload(name)
    saved = values._name_counter
    values._name_counter = itertools.count()
    try:
        module = compile_source(workload.source, workload.name)
        interp = SanitizingInterpreter(
            module, fail_fast=False, engine=engine, inject_unsound=claim
        )
        returned = interp.run(workload.entry)
    finally:
        values._name_counter = saved
    return sanitized_output(interp, returned)


def digest(name, claim=None):
    text = json.dumps(sanitize(name, claim), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def digests():
    return {key: digest(name, claim) for key, name, claim in runs()}


def test_every_claim_kind_has_a_gate_workload():
    assert list(MODES) == list(SanitizingInterpreter.CLAIMS)


def test_sanitized_runs_match_recorded_digests():
    with open(TABLE) as handle:
        recorded = json.load(handle)
    current = digests()
    differing = sorted(
        key for key in set(recorded) | set(current)
        if recorded.get(key) != current.get(key)
    )
    assert not differing, (
        f"{len(differing)} sanitized run(s) differ from "
        f"{os.path.basename(TABLE)}: {differing}"
    )


if __name__ == "__main__":
    with open(TABLE, "w") as handle:
        json.dump(digests(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {TABLE}")
