"""Legal by construction: no generated config has an error-severity
config-rule finding.

Selection estimates every config ``generate_configs`` yields without
checking it first, so ``build_config`` itself must only unroll loops the
dependence analysis clears and only size scratchpads that fit (paper
§III-C).  This test checks that on every registered workload for the
three models the flows run: Cayman's, the coupled-only ablation's and the
QsCores baseline's.  The lint digests cover only the default model.  A
fourth model with a 256-byte scratchpad makes the capacity rule bite:
every registered workload fits the default 64 KiB.
"""

import pytest

from repro.analysis.wpst import WPST
from repro.baselines.qscores import QsCoresModel
from repro.diagnostics import Severity, config_diagnostics
from repro.frontend import compile_source
from repro.interp.profiler import profile_module
from repro.model.estimator import AcceleratorModel
from repro.workloads import get_workload, workload_names

MODELS = {
    "cayman": AcceleratorModel,
    "coupled_only": lambda module, profile: AcceleratorModel(
        module, profile, coupled_only=True
    ),
    "qscores": QsCoresModel,
    "small_spad": lambda module, profile: AcceleratorModel(
        module, profile, max_spad_bytes=256
    ),
}


@pytest.mark.parametrize("name", workload_names())
def test_generated_configs_have_no_errors(name):
    workload = get_workload(name)
    module = compile_source(workload.source, workload.name)
    profile = profile_module(module, entry=workload.entry)
    wpst = WPST(module, entry_function=workload.entry)
    for label, make_model in MODELS.items():
        model = make_model(module, profile)
        checked = 0
        for node in wpst.region_vertices():
            region = node.region
            if region is None or not model.is_candidate_region(region):
                continue
            for config in model.generate_configs(region):
                checked += 1
                errors = [
                    diag.render()
                    for diag in config_diagnostics(config, model)
                    if diag.severity is Severity.ERROR
                ]
                assert not errors, (label, config.label, errors)
        assert checked, f"{label} generated no config for {name}"
