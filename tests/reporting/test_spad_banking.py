"""Tests for the ``spad_banking`` bench section: claimed-against-proven
banking II semantics and determinism (the report wiring is tested for every section
in ``test_ablations.py``)."""

import json

import pytest

from .sections import ablation_stats

NAMES = ["stride2-collider", "bank-transpose", "trisolv"]


@pytest.fixture(scope="module")
def section():
    return ablation_stats(NAMES)["spad_banking"]


class TestSemantics:
    def test_collider_serializes_and_regresses(self, section):
        entry = section["stride2-collider"]
        assert entry["serialized_groups"] >= 1
        assert entry["regressed_loops"] >= 1
        assert entry["ii_after_total"] > entry["ii_before_total"]
        gather = [l for l in entry["loops"] if l["loop"] == "gather"]
        assert gather
        worst = max(gather, key=lambda l: l["factor"])
        assert worst["ii_after"] > worst["ii_before"]
        serialized = [g for g in worst["groups"] if g["base"] == "A"]
        assert serialized[0]["scheme"] == "serialized"
        assert serialized[0]["banks_proven"] == 1
        assert serialized[0]["banks_claimed"] == worst["factor"]

    def test_proven_workloads_unchanged_at_equal_area(self, section):
        for name in ("bank-transpose", "trisolv"):
            entry = section[name]
            assert entry["groups"] > 0
            assert entry["serialized_groups"] == 0
            assert entry["regressed_loops"] == 0
            assert entry["ii_after_total"] == entry["ii_before_total"]

    def test_block_scheme_survives_where_cyclic_cannot(self, section):
        rows = [l for l in section["bank-transpose"]["loops"]
                if l["loop"] == "rows_l"]
        assert rows
        schemes = {g["scheme"] for l in rows for g in l["groups"]
                   if g["base"] == "T"}
        assert "block-4" in schemes

    def test_counts_are_exact_ints(self, section):
        for entry in section.values():
            for key in ("probed_loops", "groups", "proven_groups",
                        "serialized_groups", "regressed_loops",
                        "ii_before_total", "ii_after_total"):
                assert isinstance(entry[key], int)
            for loop in entry["loops"]:
                assert isinstance(loop["ii_before"], int)
                assert isinstance(loop["ii_after"], int)
                assert loop["ii_after"] >= loop["ii_before"]


class TestDeterminism:
    def test_two_runs_identical(self, section):
        again = ablation_stats(NAMES)["spad_banking"]
        assert json.loads(json.dumps(section)) == json.loads(
            json.dumps(again)
        )
