"""Property tests for the affine dependence-vector analysis.

The soundness contract of a *proven minimal carried distance* is purely
observational: every loop-carried conflict the interpreter witnesses
between a claimed pair must be at least the claimed distance apart.  The
sanitizing interpreter records the observed minimum per (loop, pair);
these tests assert the contract both on randomized strided-recurrence
kernels (distance, stride, and stride visibility drawn by hypothesis)
and on a cross-section of the workload registry.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import compile_source
from repro.interp.sanitizer import SanitizingInterpreter
from repro.workloads import get_workload

from ..conftest import sanitize_both


def observed_vs_claimed(interp):
    """[(claimed, observed)] for every observed conflict with a claim."""
    pairs = []
    for (loop, key), observed in interp.observed_distances.items():
        claimed = interp._dep_claims.get(loop, {}).get(key)
        if claimed is not None:
            pairs.append((claimed, observed))
    return pairs


@st.composite
def recurrence_kernels(draw):
    """An in-place strided recurrence ``A[j*s] = f(A[(j-d)*s])`` with drawn
    distance ``d``, stride ``s``, and stride visibility (literal in the
    source vs resolved interprocedurally from the call site)."""
    distance = draw(st.integers(min_value=1, max_value=4))
    stride = draw(st.integers(min_value=1, max_value=3))
    # A conflict at distance d needs both j and j-d past the loop start:
    # at least 2d+1 trips, with headroom so it is observed several times.
    trips = draw(st.integers(min_value=2 * distance + 2, max_value=24))
    symbolic = draw(st.booleans())
    s = "s" if symbolic else str(stride)
    params = "int s, int n" if symbolic else "int n"
    call = f"kern({stride}, {trips});" if symbolic else f"kern({trips});"
    source = f"""
float A[96];
void init(int n) {{
  for (int i = 0; i < n; i++) A[i] = (float)(i % 7);
}}
void kern({params}) {{
  for (int t = 0; t < 2; t++) {{
    inner: for (int j = {distance}; j < n; j++) {{
      A[j * {s}] = A[(j - {distance}) * {s}] * 0.5f + 0.25f;
    }}
  }}
}}
int main() {{ init(96); {call} return 0; }}
"""
    return source, distance


@given(recurrence_kernels())
@settings(max_examples=25, deadline=None)
def test_observed_distance_at_least_claimed(case):
    source, distance = case
    module = compile_source(source, "depprop")
    runs = sanitize_both(module)
    assert runs["reference"][0] == runs["compiled"][0], source
    interp = runs["compiled"][1]
    assert interp.violations == [], f"{interp.violations}\n{source}"
    checked = observed_vs_claimed(interp)
    assert checked, f"no claimed conflict observed\n{source}"
    for claimed, observed in checked:
        assert claimed <= observed, source
    # The recurrence really runs at the drawn distance, so the claim is
    # only useful if some pair is observed exactly there.
    assert any(observed == distance for _, observed in checked), source


@given(recurrence_kernels())
@settings(max_examples=10, deadline=None)
def test_injected_overclaim_never_survives(case):
    """Inflating every claim by one breaks the contract on the pair that
    runs at exactly its proven distance — the sanitizer must notice."""
    source, _ = case
    module = compile_source(source, "depprop-adv")
    runs = sanitize_both(module, inject_unsound="dependence")
    assert runs["reference"][0] == runs["compiled"][0], source
    interp = runs["compiled"][1]
    assert any("dependence-distance" in v for v in interp.violations), source


REGISTRY_CROSS_SECTION = [
    "trisolv",
    "nw",
    "smooth-alias",
    "seidel-1d",
    "wave-lag",
    "conv-dilated",
    "iir-interleaved",
]


@pytest.mark.parametrize("name", REGISTRY_CROSS_SECTION)
def test_registry_observed_distances_cover_claims(name):
    workload = get_workload(name)
    module = compile_source(workload.source, workload.name)
    interp = SanitizingInterpreter(module, fail_fast=False)
    interp.run(workload.entry)
    assert interp.violations == []
    for claimed, observed in observed_vs_claimed(interp):
        assert claimed <= observed
