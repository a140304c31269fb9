"""Lazy merging: the saving bound is admissible, and the lazy greedy takes
exactly the steps the all-pairs exact greedy takes."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import Novia, QsCores
from repro.framework import Cayman
from repro.hls import DEFAULT_TECHLIB
from repro.merging import AcceleratorMerger, match_units, op_index
from repro.merging.opmatch import saving_bound
from repro.telemetry import Telemetry, use
from repro.workloads.registry import get_workload, workload_names

from .eager_merger import EagerMerger
from .test_front_cache import outcome
from .test_merge_properties import narrowed_unit

#: The programs the ``merge-heavy`` benchmark workload runs.
MERGE_HEAVY = (
    "cjpeg", "cjpeg-rose7-preset", "epic", "deriche",
    "linear-alg-mid-100x100-sp", "loops-all-mid-10k-sp", "gramschmidt",
    "doitgen", "atax", "3mm", "bicg",
)


def _run(name, runner):
    workload = get_workload(name)
    return runner.run(workload.source, entry=workload.entry, name=name)


@pytest.mark.parametrize("name", workload_names())
def test_bound_admits_every_exact_match_on_the_front(name, monkeypatch):
    """Every pair the merger matches exactly saves no more than its bound
    promised, and matches no more ops than the bound allows."""
    exact = AcceleratorMerger._pair_saving
    checked = []

    def checked_saving(merger, unit_a, unit_b):
        saving, match = exact(merger, unit_a, unit_b)
        bound, pairs = saving_bound(
            unit_a.index, unit_b.index, merger.techlib)
        assert match.net_saving <= bound, (unit_a.name, unit_b.name)
        assert len(match.positions) <= pairs
        assert saving <= merger._pair_bound(unit_a, unit_b)
        checked.append(saving)
        return saving, match

    monkeypatch.setattr(AcceleratorMerger, "_pair_saving", checked_saving)
    result = _run(name, Cayman())
    if any(merged.merge_steps for merged in result.merged):
        assert checked


@given(narrowed_unit(), narrowed_unit())
@settings(max_examples=80, deadline=None)
def test_bound_admits_random_pairs(dfg_a, dfg_b):
    index_a, index_b = op_index(dfg_a), op_index(dfg_b)
    match = match_units(index_a, index_b, DEFAULT_TECHLIB)
    bound, pairs = saving_bound(index_a, index_b, DEFAULT_TECHLIB)
    assert match.net_saving <= bound
    assert match.shared_area <= bound
    assert len(match.positions) <= pairs


def _merged(merger_type, front, **options):
    merger = merger_type(DEFAULT_TECHLIB, **options)
    tele = Telemetry()
    with use(tele):
        results = [outcome(merger.merge(solution)) for solution in front]
    return results, tele.snapshot()["counters"]


@pytest.fixture(scope="module")
def merge_heavy_fronts():
    cayman = Cayman(merging=False)
    return {
        name: [s for s in _run(name, cayman).front if not s.is_empty]
        for name in MERGE_HEAVY
    }


@pytest.mark.parametrize("name", MERGE_HEAVY)
def test_lazy_merger_equals_eager_on_merge_heavy(merge_heavy_fronts, name):
    front = merge_heavy_fronts[name]
    eager, eager_counts = _merged(EagerMerger, front)
    lazy, lazy_counts = _merged(AcceleratorMerger, front)
    assert lazy == eager
    assert lazy_counts.get("merging.pairs_evaluated", 0) <= \
        eager_counts.get("merging.pairs_evaluated", 0)
    assert "merging.pairs_bounded" not in eager_counts
    if eager_counts.get("merging.pairs_evaluated", 0) > 100:
        assert lazy_counts["merging.pairs_bounded"] > 0


def _solution(dfgs, owners):
    """A duck-typed selection solution: one accelerator per owner, each
    holding its units' DFGs."""
    accelerators = []
    for owner in range(max(owners) + 1):
        units = [(f"u{i}", dfg) for i, (dfg, o) in enumerate(zip(dfgs, owners))
                 if o == owner]
        accelerators.append(SimpleNamespace(
            config=SimpleNamespace(kernel_name=f"k{owner}"),
            units=units,
            breakdown=SimpleNamespace(interfaces=100.0 * (owner + 1)),
        ))
    return SimpleNamespace(accelerators=accelerators, area=1e6)


@st.composite
def tied_pool(draw):
    """Random units plus copies of some of them, so that many pairs tie on
    their saving and only pool rank breaks the tie. A copy is structural
    or the same DFG, which the merger keys as one derivation."""
    originals = draw(st.lists(narrowed_unit(), min_size=2, max_size=5))
    dfgs = list(originals)
    for dfg in originals:
        for same in draw(st.lists(st.booleans(), max_size=2)):
            dfgs.append(dfg if same else dfg.replicate(1))
    order = draw(st.permutations(range(len(dfgs))))
    dfgs = [dfgs[i] for i in order]
    owners = [draw(st.integers(0, 2)) for _ in dfgs]
    return _solution(dfgs, owners)


@given(tied_pool(), st.sampled_from([0.0, 0.5, 0.9]),
       st.sampled_from([None, 1, 3]))
@settings(max_examples=60, deadline=None)
def test_lazy_merger_equals_eager_on_tied_pools(solution, fraction, steps):
    options = {"min_match_fraction": fraction, "max_steps": steps}
    assert _merged(AcceleratorMerger, [solution], **options)[0] == \
        _merged(EagerMerger, [solution], **options)[0]


@pytest.mark.parametrize("baseline", [Novia, QsCores], ids=["novia", "qscores"])
@pytest.mark.parametrize("name", ["atax", "gramschmidt", "doitgen"])
def test_lazy_merger_equals_eager_in_baselines(baseline, name, monkeypatch):
    """The baselines merge with ``min_match_fraction > 0``, through the
    merger the shared pipeline in :mod:`repro.framework` builds."""
    import repro.framework as framework

    assert baseline.MIN_MATCH_FRACTION > 0
    lazy = _run(name, baseline())
    monkeypatch.setattr(framework, "AcceleratorMerger", EagerMerger)
    eager = _run(name, baseline())
    assert [outcome(m) for m in lazy.merged] == \
        [outcome(m) for m in eager.merged]
    assert any(m.merge_steps for m in lazy.merged)
