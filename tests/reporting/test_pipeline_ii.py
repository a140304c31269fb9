"""Tests for the ``pipeline_ii`` bench section: against dependence proofs
off (every recurrence at distance 1), proven dependence distances lower
the recurrence-bound II of the same priced loop (the report wiring is
tested for every section in ``test_ablations.py``)."""

import pytest

from .sections import ablation_stats

IMPROVED = [
    "seidel-1d", "conv-dilated", "iir-interleaved", "fwd-store-load",
    "wave-lag",
]


@pytest.fixture(scope="module")
def section():
    return ablation_stats(IMPROVED)["pipeline_ii"]


@pytest.mark.parametrize("name", IMPROVED)
def test_proven_distance_lowers_ii(section, name):
    entry = section[name]
    assert entry["improved_loops"] > 0
    assert entry["ii_after_total"] < entry["ii_before_total"]
    for loop in entry["loops"]:
        assert loop["ii_after"] <= loop["ii_before"], loop
        assert loop["rec_mii_after"] <= loop["rec_mii_before"], loop
    improved = [l for l in entry["loops"] if l["ii_after"] < l["ii_before"]]
    assert len(improved) == entry["improved_loops"]


def test_counts_are_consistent(section):
    for entry in section.values():
        assert entry["pipelined_loops"] == len(entry["loops"])
        assert entry["ii_before_total"] == sum(
            l["ii_before"] for l in entry["loops"]
        )
        assert entry["ii_after_total"] == sum(
            l["ii_after"] for l in entry["loops"]
        )
        for loop in entry["loops"]:
            assert loop["trip"] > 0 and loop["depth"] > 0
