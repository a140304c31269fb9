"""Byte-identity gate for the proof-ablation sections of a bench report.

``ablation_digests.json`` next to this file records, for every registered
workload, the sha256 of the canonical JSON (``sort_keys=True``) of each
section ``ablation_sections`` produces for its compiled module
(``area_narrowing``, ``pipeline_ii``, ``spad_banking``, ``reuse_buffers``).  Any change to what
those sections report changes a digest and fails this test.  A refactor of
the ablation driver must leave every digest unchanged.

The test never writes the table.  After a deliberate section change,
rewrite it with::

    PYTHONPATH=src python -m tests.reporting.test_ablation_digests

Each workload starts from a fresh SSA value-name counter, as a new
``python -m repro`` process does.
"""

import hashlib
import itertools
import json
import os

from repro.ir import values
from repro.reporting.bench import ABLATION_SECTIONS
from repro.workloads import workload_names

from .sections import ablation_stats

TABLE = os.path.join(os.path.dirname(__file__), "ablation_digests.json")


def sections(workload):
    """Each ablation section of ``workload``, computed in isolation."""
    saved = values._name_counter
    values._name_counter = itertools.count()
    try:
        stats = ablation_stats([workload])
    finally:
        values._name_counter = saved
    return {section: stats[section][workload] for section in stats}


def digests():
    table = {section: {} for section in ABLATION_SECTIONS}
    for name in workload_names():
        for section, entry in sections(name).items():
            blob = json.dumps(entry, sort_keys=True).encode()
            table[section][name] = hashlib.sha256(blob).hexdigest()
    return table


def test_sections_match_recorded_digests():
    with open(TABLE) as handle:
        recorded = json.load(handle)
    current = digests()
    differing = sorted(
        (section, name)
        for section in sorted(set(recorded) | set(current))
        for name in sorted(
            set(recorded.get(section, {})) | set(current.get(section, {}))
        )
        if recorded.get(section, {}).get(name)
        != current.get(section, {}).get(name)
    )
    assert not differing, (
        f"{len(differing)} section(s) differ from "
        f"{os.path.basename(TABLE)}: {differing}"
    )


if __name__ == "__main__":
    with open(TABLE, "w") as handle:
        json.dump(digests(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {TABLE}")
