"""How every proof-ablation section travels through a bench report:
``build_report`` carries it only when it ran, it survives a JSON round
trip, and ``compare_reports`` flags a drifted field or a missing workload
in it by section and workload name."""

import copy
import json

import pytest

from repro.reporting.bench import (
    ABLATION_SECTIONS,
    EvaluationEngine,
    FlowParams,
    build_report,
    compare_reports,
)

from .sections import ablation_stats

NAMES = ["trisolv", "stride2-collider"]

#: A per-workload count or area of each section, to perturb.
DRIFT_FIELD = {
    "area_narrowing": "proven_area_um2",
    "pipeline_ii": "ii_after_total",
    "spad_banking": "ii_after_total",
    "reuse_buffers": "ports_after_total",
}


@pytest.fixture(scope="module")
def sections():
    return ablation_stats(NAMES)


def report_with(sections=None):
    engine = EvaluationEngine(FlowParams())
    engine.sections.update(sections or {})
    return build_report([], engine=engine, tag="t", wall_seconds=0.0)


def test_every_section_has_a_drift_field():
    assert sorted(DRIFT_FIELD) == sorted(ABLATION_SECTIONS)


@pytest.mark.parametrize("section", ABLATION_SECTIONS)
class TestWiring:
    def test_build_report_carries_section(self, sections, section):
        payload = report_with({section: sections[section]})
        assert payload[section] == sections[section]
        assert sorted(payload[section]) == sorted(NAMES)

    def test_build_report_omits_section(self, section):
        assert section not in report_with(None)
        assert section not in report_with({})

    def test_json_round_trips(self, sections, section):
        payload = report_with(sections)
        roundtrip = json.loads(json.dumps(payload))
        assert roundtrip[section] == sections[section]
        assert compare_reports(payload, roundtrip) == []

    def test_compare_flags_drift(self, sections, section):
        left = report_with(sections)
        right = copy.deepcopy(left)
        right[section]["trisolv"][DRIFT_FIELD[section]] += 1
        assert compare_reports(left, right) == [f"{section}/trisolv: differs"]

    def test_compare_flags_missing_workload(self, sections, section):
        left = report_with(sections)
        right = copy.deepcopy(left)
        del right[section]["stride2-collider"]
        assert compare_reports(left, right) == [
            f"{section}/stride2-collider: in only one report"
        ]
