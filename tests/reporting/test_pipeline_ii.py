"""Tests for the ``pipeline_ii`` bench section: proven dependence distances
lower the recurrence-bound II at equal area on the symbolic-stride
workloads, and repair the legacy test's unsound answer on ``wave-lag``
(the report wiring is tested for every section in
``test_ablations.py``)."""

import pytest

from repro.reporting.bench import ablation_stats

IMPROVED = ["seidel-1d", "conv-dilated", "iir-interleaved"]


@pytest.fixture(scope="module")
def section():
    return ablation_stats(IMPROVED + ["wave-lag"])["pipeline_ii"]


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


def test_wave_lag_ii_rises_under_the_sound_distance(section):
    # The legacy test wrongly calls the W[j] <- W[j-lag] pair disjoint; the
    # vector engine proves the finite distance, so the II goes up.
    entry = section["wave-lag"]
    assert entry["improved_loops"] == 0
    assert entry["ii_after_total"] > entry["ii_before_total"]


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
