"""Shared fixtures and helpers for the test suite."""

import pytest

from repro.frontend import compile_source
from repro.interp import Interpreter, profile_module


FIG2_SOURCE = """
float x[100]; float y[100];
float A[30][30]; float B[30][30]; float z[30];

void initdata(int n, int m) {
  for (int i = 0; i < n; i++) {
    z[i] = 0.0f;
    for (int j = 0; j < n; j++) {
      A[i][j] = (float)(i + j);
      B[i][j] = (float)(i - j);
    }
  }
  for (int i = 0; i < m; i++) { x[i] = (float)i; y[i] = 0.0f; }
}

void func0(int n, float k, float b) {
  linear: for (int i = 0; i < n; i++) { y[i] = k * x[i] + b; }
}

void func1(int n, int m) {
  outer: for (int i = 0; i < n; i++) {
    dot_product: for (int j = 0; j < m; j++) {
      z[i] += A[i][j] * B[i][j];
    }
  }
}

int main() {
  initdata(30, 100);
  for (int r = 0; r < 4; r++) { func0(100, 2.0f, 1.0f); func1(30, 30); }
  return 0;
}
"""


@pytest.fixture(scope="session")
def fig2_module():
    """The paper's Fig. 2 example program, compiled (with -O3 passes)."""
    return compile_source(FIG2_SOURCE, "fig2")


@pytest.fixture(scope="session")
def fig2_module_noopt():
    """Fig. 2 example without the optimization pipeline."""
    return compile_source(FIG2_SOURCE, "fig2_noopt", optimize=False)


@pytest.fixture(scope="session")
def fig2_profile(fig2_module):
    return profile_module(fig2_module)


def run_c(source: str, entry: str = "main", args=None, optimize: bool = True):
    """Compile and execute a mini-C program; return (result, interpreter)."""
    module = compile_source(source, "test", optimize=optimize)
    interp = Interpreter(module)
    result = interp.run(entry, args or [])
    return result, interp


def sanitized_output(interp, returned):
    """What a sanitized run reports, as plain JSON-able values: the
    report, notes, violations, observed dependence distances (keyed by
    loop header and instruction positions) and the return value."""

    def position(inst):
        block = inst.parent
        return f"{block.name}:{block.instructions.index(inst)}"

    distances = sorted(
        [loop.header.name, sorted(position(inst) for inst in pair), dist]
        for (loop, pair), dist in interp.observed_distances.items()
    )
    return {
        "report": interp.report(),
        "notes": list(interp.notes),
        "violations": list(interp.violations),
        "observed_distances": distances,
        "returned": returned,
    }


def sanitize_both(module, calls=(("main", ()),), inject_unsound=None):
    """Run ``calls`` (``(entry, args)`` pairs, in order) on one
    ``SanitizingInterpreter`` per engine, with ``inject_unsound`` perturbing
    one claim kind or None; returns ``{engine: (output, interp)}`` with
    ``output`` as :func:`sanitized_output` after the last call."""
    from repro.interp.sanitizer import SanitizingInterpreter

    runs = {}
    for engine in ("reference", "compiled"):
        interp = SanitizingInterpreter(
            module, fail_fast=False, engine=engine,
            inject_unsound=inject_unsound,
        )
        returned = None
        for entry, args in calls:
            returned = interp.run(entry, list(args))
        runs[engine] = (sanitized_output(interp, returned), interp)
    return runs
