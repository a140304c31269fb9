"""Bench-level validation of the datapath-narrowing area probe.

The acceptance bar for the bitwidth work: at least three PolyBench /
MachSuite workloads must show strictly smaller estimated datapath area at
equal schedule latency, and the ``area_narrowing`` section must be
deterministic enough for ``--compare-to`` to exact-compare it (the report
wiring is tested for every section in ``test_ablations.py``).
"""

import pytest

from .sections import ablation_stats

# trisolv/bicg/mvt are PolyBench, nw is MachSuite.
NARROWING_NAMES = ["trisolv", "bicg", "mvt", "nw"]


@pytest.fixture(scope="module")
def stats():
    return ablation_stats(NARROWING_NAMES)["area_narrowing"]


class TestAreaNarrowingStats:
    def test_every_workload_present(self, stats):
        assert sorted(stats) == sorted(NARROWING_NAMES)

    @pytest.mark.parametrize("name", NARROWING_NAMES)
    def test_strictly_smaller_area_at_equal_latency(self, stats, name):
        entry = stats[name]
        assert entry["proven_area_um2"] < entry["type_area_um2"]
        assert entry["latency_equal"]
        assert entry["latency_type"] == entry["latency_proven"]

    @pytest.mark.parametrize("name", NARROWING_NAMES)
    def test_narrowed_op_counts_consistent(self, stats, name):
        entry = stats[name]
        assert 0 < entry["narrowed_ops"] <= entry["int_ops"]
        assert 0.0 < entry["saving_pct"] < 100.0

    def test_deterministic_across_recomputation(self, stats):
        assert ablation_stats(NARROWING_NAMES)["area_narrowing"] == stats
