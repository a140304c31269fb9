"""The proof-ablation sections of registered workloads, each workload
compiled on its own and priced by ``ablation_sections``."""

from repro.frontend import compile_source
from repro.reporting.bench import ABLATION_SECTIONS, ablation_sections
from repro.workloads import get_workload


def ablation_stats(names):
    """Section → workload → stats over ``names``."""
    stats = {section: {} for section in ABLATION_SECTIONS}
    for name in names:
        module = compile_source(get_workload(name).source, name)
        for section, entry in ablation_sections(module).items():
            stats[section][name] = entry
    return stats
