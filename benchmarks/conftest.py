"""Shared fixtures for the benchmark harness.

Heavy workload evaluations are computed once per session and shared between
the Table II and Fig. 6 benches.
"""

import pytest

from repro.reporting import EvaluationEngine


@pytest.fixture(scope="session")
def engine():
    return EvaluationEngine()
