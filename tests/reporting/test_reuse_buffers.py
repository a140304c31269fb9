"""Tests for the ``reuse_buffers`` bench section: proven pairs translate
into measured port/II drops, degraded workloads stay untouched, and
determinism (the report wiring is tested for every section in
``test_ablations.py``)."""

import json

import pytest

from .sections import ablation_stats

NAMES = ["stencil-reuse-3", "fwd-store-load", "reuse-breaker", "trisolv"]


@pytest.fixture(scope="module")
def section():
    return ablation_stats(NAMES)["reuse_buffers"]


class TestSemantics:
    def test_stencil_ports_and_ii_drop(self, section):
        entry = section["stencil-reuse-3"]
        assert entry["pairs_proven"] == 3
        assert entry["buffered_consumers"] == 2
        assert entry["ports_after_total"] < entry["ports_before_total"]
        assert entry["ii_after_total"] < entry["ii_before_total"]
        assert entry["improved_loops"] >= 1
        loop = entry["loops"][0]
        assert loop["loop"] == "st"
        assert loop["port_accesses_before"] == 3
        assert loop["port_accesses_after"] == 1
        assert loop["register_bits"] == 64  # d=1 + d=2 chains, 32b each

    def test_forwarding_drops_a_port(self, section):
        entry = section["fwd-store-load"]
        pairs = [p for g in entry["loops"][0]["groups"] for p in g["pairs"]]
        assert any(p["kind"] == "forward" and p["distance"] == 2
                   for p in pairs)
        assert entry["ports_after_total"] < entry["ports_before_total"]

    def test_degraded_workload_is_untouched(self, section):
        entry = section["reuse-breaker"]
        assert entry["pairs_proven"] == 0
        assert entry["pairs_unknown"] > 0
        assert entry["buffered_consumers"] == 0
        assert entry["register_bits"] == 0
        assert entry["improved_loops"] == 0
        assert entry["ports_after_total"] == entry["ports_before_total"]
        assert entry["ii_after_total"] == entry["ii_before_total"]

    def test_at_least_three_workloads_improve(self, section):
        improved = [
            name for name, entry in section.items()
            if entry["ports_after_total"] < entry["ports_before_total"]
            or entry["ii_after_total"] < entry["ii_before_total"]
        ]
        assert len(improved) >= 3

    def test_counts_are_exact_ints(self, section):
        for entry in section.values():
            for key in ("probed_loops", "pairs_proven", "pairs_unknown",
                        "pairs_broken", "buffered_consumers",
                        "register_bits", "improved_loops",
                        "ports_before_total", "ports_after_total",
                        "ii_before_total", "ii_after_total"):
                assert isinstance(entry[key], int)
            for loop in entry["loops"]:
                for key in ("port_accesses_before", "port_accesses_after",
                            "register_bits", "ii_before", "ii_after"):
                    assert isinstance(loop[key], int)
                # Buffers never hurt: same DFG, strictly fewer port users.
                assert loop["port_accesses_after"] <= (
                    loop["port_accesses_before"]
                )
                assert loop["ii_after"] <= loop["ii_before"]

    def test_buffered_consumers_only_from_proven_pairs(self, section):
        for entry in section.values():
            for loop in entry["loops"]:
                for group in loop["groups"]:
                    consumers = {p["consumer"] for p in group["pairs"]
                                 if p["status"] == "proven"}
                    assert set(group["buffered"]) <= consumers


class TestDeterminism:
    def test_two_runs_identical(self, section):
        again = ablation_stats(NAMES)["reuse_buffers"]
        assert json.loads(json.dumps(section)) == json.loads(
            json.dumps(again)
        )
