"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload merge-heavy --seed 1 --seconds 15 --trace 0

Closed loop with one caller: the drawn programs run back to back in this
process, through the public ``repro`` API and never through the bench
harness's record cache, so every pass does the full work.  Passes repeat
until ``--seconds`` have elapsed, and at least twice.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import calibration, metrics, pools  # noqa: E402  (standard library only)

#: Set-ups timed per run, each in a fresh process; ``setup_s`` is their
#: median.
SETUP_PROBES = 5

#: Untraced passes a run makes at least, so that every program's median
#: has two samples even when one pass outlasts ``--seconds``.
MIN_PASSES = 2


class SetupError(RuntimeError):
    """The checkout cannot provide the program under test."""


@dataclass
class Setup:
    workload: str
    #: Program name -> :class:`repro.workloads.Workload`.
    programs: Dict[str, object]
    #: The first pass's draw; later passes draw again from ``rng``.
    order: List[str]
    rng: random.Random


@dataclass
class ProgramRun:
    """One program in one pass."""

    name: str
    #: Host wall seconds, and how much slower than the reference the host
    #: ran meanwhile (see :mod:`perfbench.calibration`).
    seconds: float = 0.0
    slowdown: float = 1.0
    outcome: object = None
    failures: List[str] = field(default_factory=list)
    #: Traced passes only: telemetry counters and span call counts, which
    #: must repeat exactly in every traced pass.
    counts: Optional[tuple] = None

    @property
    def ref_seconds(self) -> float:
        return self.seconds / self.slowdown


def setup(workload: str, seed: int) -> Setup:
    """Imports, registry load, pool resolution and the seeded draw."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SetupError(f"no repro package under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SetupError(f"repro was imported from {repro.__file__}")
    from perfbench import programs, tracing  # noqa: F401  (import is set-up)
    from repro.workloads.registry import get_workload, workload_names

    pool = pools.resolve_pool(workload, workload_names())
    rng = random.Random(seed)
    order = pools.draw(pool, rng)
    return Setup(workload, {name: get_workload(name) for name in pool},
                 order, rng)


def time_setups(args) -> float:
    """Median time, in reference seconds, of :data:`SETUP_PROBES`
    fresh-process set-ups."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    walls = []
    for _ in range(SETUP_PROBES):
        before = calibration.sample()
        start = time.perf_counter()
        probe = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                               stderr=subprocess.PIPE, timeout=120)
        wall = time.perf_counter() - start
        walls.append(
            wall / calibration.slowdown([before, calibration.sample()]))
        if probe.returncode != 0:
            raise SetupError(
                "set-up probe failed: " + probe.stderr.decode().strip()
            )
    return metrics.median(walls)


def _run_program(ctx: Setup, name: str, runner, flow: bool,
                 tracer) -> ProgramRun:
    from perfbench import programs
    from repro.telemetry import Telemetry, use

    run = ProgramRun(name)
    workload = ctx.programs[name]
    try:
        if tracer is None:
            start = time.perf_counter()
            result = runner(workload)
            run.seconds = time.perf_counter() - start
        else:
            telemetry = Telemetry()
            with use(telemetry):
                start = time.perf_counter()
                result = tracer.run_program(name, runner, workload)
                run.seconds = time.perf_counter() - start
            run.counts = (telemetry.snapshot()["counters"], None)
        run.outcome = programs.flow_outcome(result) if flow else result
        if flow:
            run.failures += run.outcome.failures
    except Exception as error:  # one program's failure must not end the run
        traceback.print_exc(file=sys.stderr)
        run.failures.append(f"raised {type(error).__name__}: {error}")
    return run


def run_pass(ctx: Setup, order: List[str], tracer=None) -> List[ProgramRun]:
    """Every program of ``order`` once; traced when ``tracer`` is given."""
    from perfbench import programs

    flow = ctx.workload != "verify"
    runner = programs.run_flow if flow else programs.run_verify
    runs = []
    with calibration.Sampler() as sampler:
        before = sampler.quiet_sample()
        for name in order:
            runs.append(_run_program(ctx, name, runner, flow, tracer))
            during = sampler.take()
            after = sampler.quiet_sample()
            runs[-1].slowdown = calibration.slowdown([before, *during, after])
            before = after
    if tracer is not None:
        summary = tracer.summary()
        for run in runs:
            calls = {span: entry[0]
                     for span, entry in summary.get(run.name, {}).items()}
            run.counts = (run.counts[0] if run.counts else None, calls)
    return runs


def measure(ctx: Setup, seconds: float, traced: bool):
    """Untraced passes (and, when ``traced``, a traced pass after each)
    until ``seconds`` have elapsed; untraced runs make at least
    :data:`MIN_PASSES`."""
    from perfbench.tracing import Tracer

    untraced, traced_passes, tracers = [], [], []
    order = ctx.order
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(ctx, order))
        if traced:
            tracer = Tracer()
            with tracer.installed():
                traced_passes.append(run_pass(ctx, order, tracer))
            tracers.append(tracer)
        enough = traced or len(untraced) >= MIN_PASSES
        if enough and time.perf_counter() - start >= seconds:
            return untraced, traced_passes, tracers
        order = pools.draw(list(ctx.programs), ctx.rng)


def check_repeats(passes: List[List[ProgramRun]]) -> None:
    """Every pass, traced or not, must reproduce each program's first
    result exactly, and every traced pass its first traced counts."""
    digests: Dict[str, object] = {}
    counts: Dict[str, tuple] = {}
    for runs in passes:
        for run in runs:
            if run.outcome is not None:
                first = digests.setdefault(run.name, run.outcome.digest)
                if run.outcome.digest != first:
                    run.failures.append("result differs from an earlier pass")
            if run.counts is not None:
                first = counts.setdefault(run.name, run.counts)
                if run.counts != first:
                    run.failures.append(
                        "traced counts differ from an earlier traced pass"
                    )


def check_references(ctx: Setup, passes: List[List[ProgramRun]]) -> None:
    """Verify-path outputs against the reference interpreter, run once per
    program after the measured passes."""
    from perfbench import programs

    by_name: Dict[str, List[ProgramRun]] = defaultdict(list)
    for runs in passes:
        for run in runs:
            if run.outcome is not None:
                by_name[run.name].append(run)
    for name in sorted(by_name):
        try:
            reference = programs.reference_run(ctx.programs[name])
        except Exception as error:  # reported as a failed check, not a crash
            traceback.print_exc(file=sys.stderr)
            for run in by_name[name]:
                run.failures.append(f"reference run raised {error!r}")
            continue
        for run in by_name[name]:
            run.failures += programs.check_verify(run.outcome, reference)


def modelled(ctx: Setup, runs: List[ProgramRun]) -> Dict[str, float]:
    """Modelled metrics of one pass, over programs in name order.  The
    verify workload selects no accelerator, so it reads the CPU-only
    values: speedup 1 and merged area 100% of unmerged."""
    outcomes = sorted((run.name, run.outcome) for run in runs
                      if run.outcome is not None)
    if ctx.workload == "verify" or not outcomes:
        return {"speedup_b25.geomean": 1.0, "speedup_b65.geomean": 1.0,
                "merged_area_pct.mean": 100.0}
    return {
        "speedup_b25.geomean": metrics.geomean(o.speedup_b25 for _, o in outcomes),
        "speedup_b65.geomean": metrics.geomean(o.speedup_b65 for _, o in outcomes),
        "merged_area_pct.mean": sum(
            100.0 - o.saving_pct_b65 for _, o in outcomes) / len(outcomes),
    }


def end_to_end(untraced: List[List[ProgramRun]], setup_s: float,
               peak_rss_mb: float, ctx: Setup) -> Dict[str, float]:
    samples: Dict[str, List[float]] = defaultdict(list)
    for runs in untraced:
        for run in runs:
            samples[run.name].append(run.ref_seconds)
    values = {
        "setup_s": setup_s,
        # Each program's median over the passes, summed over the draw.
        "wall_s": sum(metrics.median(s) for s in samples.values()),
        "program_s.p50": metrics.median(
            second for s in samples.values() for second in s
        ),
        "peak_rss_mb": peak_rss_mb,
    }
    values.update(modelled(ctx, untraced[0]))
    return values


def _layer_totals(tracer, runs: List[ProgramRun]) -> Dict[str, List]:
    """``name -> [calls, self reference seconds]`` of one traced pass."""
    slowdown = {run.name: run.slowdown for run in runs}
    totals: Dict[str, List] = defaultdict(lambda: [0, 0.0])
    for program, names in tracer.summary().items():
        for name, (calls, self_s) in names.items():
            totals[name][0] += calls
            totals[name][1] += self_s / slowdown[program]
    return totals


def per_layer(untraced, traced_passes, tracers) -> Dict[str, float]:
    from perfbench.tracing import PROGRAM_SPAN

    totals = [_layer_totals(tracer, runs)
              for tracer, runs in zip(tracers, traced_passes)]

    def self_s(name: str) -> float:
        return metrics.median(t[name][1] for t in totals)

    values: Dict[str, float] = {}
    for name in metrics.SELF_TIMED:
        values[f"{name}.self_s"] = self_s(name)
    for name in metrics.CALL_COUNTED:
        values[f"{name}.calls"] = totals[0][name][0]

    counters: Dict[str, float] = defaultdict(int)
    for run in traced_passes[0]:
        if run.counts is not None and run.counts[0] is not None:
            for name, value in run.counts[0].items():
                counters[name] += value
    for name in metrics.COUNTERS:
        values[name] = counters[name]

    repeats = tracers[0].match_repeats
    values["merging.match_units.repeat_ratio"] = metrics.ratio(
        repeats.repeats, repeats.calls)
    values["merging.step_yield"] = metrics.ratio(
        counters["merging.steps"], counters["merging.pairs_evaluated"])
    values["model.dedup_ratio"] = metrics.ratio(
        counters["model.configs_deduped"], counters["model.configs_generated"])

    outcomes = [run.outcome for run in traced_passes[0]
                if run.outcome is not None]
    flow = [o for o in outcomes if hasattr(o, "front_len")]
    values["selection.front_len"] = sum(o.front_len for o in flow)
    values["merge_saving_pct.mean"] = (
        sum(o.saving_pct_b65 for o in flow) / len(flow) if flow else 0.0)
    values["diagnostics.findings"] = sum(
        o.findings for o in outcomes if hasattr(o, "findings"))
    values["interp.inst_per_s"] = metrics.ratio(
        values["interp.instructions"],
        values["interp.profile_module.self_s"]
        + values["interp.sanitize.self_s"])

    # Self times partition the program spans, so they sum to the traced
    # wall time of the pass.
    walls = [sum(entry[1] for entry in t.values()) for t in totals]
    plain = metrics.median(sum(r.ref_seconds for r in runs)
                           for runs in untraced)
    values["trace.wall_s"] = metrics.median(walls)
    values["trace.overhead_pct"] = 100.0 * (values["trace.wall_s"] / plain - 1.0)
    values["trace.coverage_pct"] = metrics.median(
        100.0 * (1.0 - t[PROGRAM_SPAN][1] / wall)
        for t, wall in zip(totals, walls))
    for layer in metrics.LAYERS:
        values[f"share.{layer}_pct"] = metrics.median(
            100.0 * sum(entry[1] for name, entry in t.items()
                        if name.split(".")[0] == layer) / wall
            for t, wall in zip(totals, walls))
    return values


def _report(title: str, values: Dict[str, float], specs, notes) -> None:
    print(title)
    for spec in specs:
        note = notes.get(spec.name, "")
        print(f"  {spec.name:40s} {values[spec.name]:>16.6g} {spec.unit:6s}"
              f" {note}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(pools.POOLS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up (used to time set-up)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        ctx = setup(args.workload, args.seed)
        if args.setup_only:
            return 0
        setup_s = time_setups(args) if not args.trace else 0.0
    except (SetupError, pools.PoolError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    untraced, traced_passes, tracers = measure(
        ctx, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = untraced + traced_passes
    if ctx.workload == "verify":
        check_references(ctx, passes)
    check_repeats(passes)

    runs = [run for pass_runs in passes for run in pass_runs]
    failed = [run for run in runs if run.failures]
    for run in failed:
        print(f"FAILED {run.name}: {'; '.join(run.failures)}", file=sys.stderr)
    print(f"workload {ctx.workload}, seed {args.seed}: {len(untraced)} "
          f"untraced and {len(traced_passes)} traced passes over "
          f"{len(ctx.programs)} programs; error_rate "
          f"{metrics.ratio(len(failed), len(runs))} ({len(failed)}/{len(runs)})")
    if args.trace:
        specs = metrics.PER_LAYER
        values = per_layer(untraced, traced_passes, tracers)
        _report("per-layer (traced passes)", values, specs, {})
    else:
        specs = metrics.END_TO_END
        values = end_to_end(untraced, setup_s, peak_rss_mb, ctx)
        samples = sum(len(runs) for runs in untraced)
        raw = metrics.median(sum(r.seconds for r in runs) for runs in untraced)
        slowdown = metrics.median(r.slowdown for r in runs)
        _report("end to end (untraced passes, times in reference seconds)",
                values, specs, {
                    "setup_s": f"median of {SETUP_PROBES} set-ups",
                    "wall_s": f"host wall {raw:.3f} s per pass, host "
                              f"{slowdown:.3f}x the reference time",
                    "program_s.p50": f"n={samples}",
                })
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": metrics.as_result(values, specs),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
