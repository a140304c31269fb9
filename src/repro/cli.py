"""Command-line interface: ``python -m repro <command>``.

``python -m repro --help`` lists the commands and ``python -m repro
<command> --help`` describes one.  The analysis reports (``deps``,
``banks``, ``reuse``, ``bitwidth``) are the rows of :data:`REPORTS`.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, List, NamedTuple, NoReturn, Optional


def _fail(message: str) -> NoReturn:
    """Exit with status 2 and a one-line message on standard error."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _check_workloads(names) -> None:
    """Exit 2 unless every name in ``names`` is a registered workload."""
    from .workloads import workload_names

    registered = workload_names()
    for name in names:
        if name not in registered:
            _fail(f"unknown workload {name!r} (see `repro bench-list`)")


def _check_writable(path: Optional[str]) -> None:
    """Exit 2 unless ``path`` (if given) can be written; the probe leaves
    no file behind.  Called before a flow runs, so a bad path costs none."""
    if path is None:
        return
    existed = os.path.exists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        _fail(f"cannot write {path!r}: {exc.strerror or exc}")
    if not existed:
        os.remove(path)


def _read_program(args) -> str:
    """The program text: a registered workload or a mini-C file.

    A ``source`` argument that is no file but names a registered workload
    reads that workload, as ``--workload`` would.
    """
    from .workloads import get_workload, workload_names

    name = getattr(args, "workload", None)
    source = args.source
    if (not name and source in workload_names()
            and not os.path.exists(source)):
        name = source
    if name:
        _check_workloads([name])
        return get_workload(name).source
    if not source:
        _fail("provide a source file or --workload NAME")
    try:
        with open(source) as handle:
            return handle.read()
    except OSError as exc:
        _fail(f"cannot read {source!r}: {exc.strerror or exc}; "
              "not a registered workload either")


def _cmd_run(args) -> int:
    from .framework import Cayman
    from .hls import CVA6_TILE_AREA_UM2

    source = _read_program(args)
    framework = Cayman(
        alpha=args.alpha,
        beta=args.beta,
        coupled_only=args.coupled_only,
        merging=not args.no_merging,
    )
    result = framework.run(
        source, entry=args.entry, name=args.source or args.workload
    )
    print(f"profiled time: {result.total_seconds * 1e6:.1f} us; "
          f"framework runtime: {result.runtime_seconds:.2f} s")
    print("\npareto front (area ratio vs CVA6, speedup):")
    for area, speedup in result.pareto_points():
        print(f"  {area:8.4f}  {speedup:8.2f}x")
    for budget in args.budgets:
        best = result.best_under_budget(budget)
        print(f"\nbudget {budget:.0%}: speedup "
              f"{best.speedup(result.total_seconds):.2f}x, "
              f"area {best.area_after / CVA6_TILE_AREA_UM2:.3f}, "
              f"merge saving {best.saving_pct:.0f}%")
        for accel in best.solution.accelerators:
            print(f"  {accel.describe()}")
    return 0


def _make_runner(args):
    """ComparisonRunner honoring the shared --cache-dir/--jobs options."""
    from .reporting import ComparisonRunner

    return ComparisonRunner(cache_dir=getattr(args, "cache_dir", None))


def _cmd_table2(args) -> int:
    from .reporting import (
        generate_table2, render_table2, table2_to_csv, table2_to_json,
    )

    _check_workloads(args.benchmarks)
    names = args.benchmarks or None
    rows = generate_table2(
        names,
        runner=_make_runner(args),
        progress=(
            (lambda name: print(f"  {name}...", file=sys.stderr, flush=True))
            if not args.quiet else None
        ),
        jobs=args.jobs,
    )
    if args.format == "csv":
        print(table2_to_csv(rows), end="")
    elif args.format == "json":
        print(table2_to_json(rows))
    else:
        print(render_table2(rows))
    return 0


def _cmd_fig6(args) -> int:
    from .reporting import (
        DEFAULT_FIG6_BENCHMARKS,
        figure6_to_csv,
        figure6_to_json,
        generate_figure6,
        render_figure6,
    )

    _check_workloads(args.benchmarks)
    names = args.benchmarks or DEFAULT_FIG6_BENCHMARKS
    series = generate_figure6(names, runner=_make_runner(args), jobs=args.jobs)
    if args.format == "csv":
        print(figure6_to_csv(series), end="")
    elif args.format == "json":
        print(figure6_to_json(series))
    else:
        print(render_figure6(series))
    return 0


def _cmd_table1(args) -> int:
    from .reporting import render_table1

    print(render_table1())
    return 0


def _cmd_dump(args) -> int:
    from .analysis import WPST
    from .frontend import compile_source
    from .ir import print_module

    source = _read_program(args)
    module = compile_source(source, args.source, optimize=not args.no_opt)
    print(print_module(module))
    print()
    print(WPST(module, entry_function=args.entry).dump())
    return 0


def _cmd_emit_rtl(args) -> int:
    from .framework import Cayman
    from .rtl import generate_solution

    source = _read_program(args)
    _check_writable(args.output)
    result = Cayman().run(
        source, entry=args.entry, name=args.source or args.workload
    )
    best = result.best_under_budget(args.budget)
    if best.solution.is_empty:
        print("no profitable accelerators under that budget", file=sys.stderr)
        return 1
    if args.reusable:
        from .rtl import generate_reusable_accelerator

        parts = [
            generate_reusable_accelerator(best, index, f"{args.top}_grp{index}")
            for index in range(len(best.accelerators))
        ]
        text = "\n\n".join(parts)
    else:
        text = generate_solution(best.solution, name=args.top)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {len(text.splitlines())} lines to {args.output}")
    else:
        print(text)
    return 0


def _cmd_exec(args) -> int:
    import time

    from .frontend import compile_source

    source = _read_program(args)
    name = args.source or args.workload
    module = compile_source(source, name, optimize=not args.no_opt)
    func = module.functions.get(args.entry)
    if func is None or func.is_declaration:
        _fail(f"no function {args.entry!r} defined in {name!r}")
    try:
        entry_args = [int(a) for a in args.args]
    except ValueError as exc:
        _fail(f"--args takes integers: {exc}")
    if len(entry_args) != len(func.arguments):
        _fail(f"@{args.entry} takes {len(func.arguments)} argument(s), "
              f"got {len(entry_args)}")
    if args.inject_unsound and not args.sanitize:
        _fail("--inject-unsound needs --sanitize")
    started = time.perf_counter()
    if args.sanitize:
        from .interp.sanitizer import SanitizerError, SanitizingInterpreter

        interp = SanitizingInterpreter(
            module, fail_fast=False, inject_unsound=args.inject_unsound,
            engine=args.engine,
        )
        try:
            result = interp.run(args.entry, entry_args)
        except SanitizerError:  # pragma: no cover - fail_fast disabled
            result = None
        wall = time.perf_counter() - started
        print(f"result: {result}")
        print(f"{interp.instructions} instructions in {wall:.3f}s "
              f"({interp.instructions / wall:,.0f} inst/s)")
        print(interp.report())
        return 1 if interp.violations else 0
    from .interp.interpreter import Interpreter

    bounds = None
    if not args.no_elide:
        from .analysis.facts import ModuleFacts

        bounds = ModuleFacts.of(module).bounds
    interp = Interpreter(module, bounds=bounds, engine=args.engine)
    result = interp.run(args.entry, entry_args)
    wall = time.perf_counter() - started
    print(f"result: {result}")
    print(f"{interp.instructions} instructions in {wall:.3f}s "
          f"({interp.instructions / wall:,.0f} inst/s)")
    if bounds is not None:
        proven, total = bounds.module_coverage()
        print(f"bounds: {proven}/{total} accesses statically proven; "
              f"{interp.elided_accesses} elided, "
              f"{interp.checked_accesses} checked at runtime")
    return 0


def _access_label(info) -> str:
    inst_name = info.inst.name or "?"
    base = getattr(info.base, "name", None) or "?"
    return f"{info.inst.opcode} %{inst_name}[{base}]"


def _deps_entry(facts, func):
    ctx = facts.context(func)
    loops = []
    for loop in sorted(ctx.loop_info.loops, key=lambda l: l.name):
        deps = []
        for dep in ctx.memdep.loop_carried(loop):
            vector = dep.vector
            deps.append({
                "kind": dep.kind,
                "source": _access_label(dep.source),
                "sink": _access_label(dep.sink),
                "distance": dep.distance,
                "exact": vector.exact if vector is not None else False,
                "via_alias": dep.via_alias,
                "vector": str(vector) if vector is not None else None,
                "levels": [
                    {
                        "loop": entry.loop.name,
                        "direction": entry.direction,
                        "distance": entry.distance,
                        "exact": entry.exact,
                    }
                    for entry in (vector.entries if vector else ())
                ],
            })
        loops.append({
            "name": loop.name,
            "depth": loop.depth,
            "innermost": loop.is_innermost,
            "deps": deps,
        })
    return {"name": func.name, "loops": loops}


def _deps_summary(functions):
    deps = [d for f in functions for loop in f["loops"] for d in loop["deps"]]
    return {
        "carried_deps": len(deps),
        "proven_distance": sum(1 for d in deps if d["distance"] is not None),
        "exact_vectors": sum(1 for d in deps if d["exact"]),
    }


def _deps_text(report) -> None:
    for func_entry in report["functions"]:
        loops = func_entry["loops"]
        if not loops:
            continue
        print(f"@{func_entry['name']}")
        for loop in loops:
            inner = " innermost" if loop["innermost"] else ""
            print(f"  loop {loop['name']} (depth {loop['depth']}{inner})")
            if not loop["deps"]:
                print("    no carried dependences")
                continue
            for d in loop["deps"]:
                dist = "?" if d["distance"] is None else str(d["distance"])
                vec = d["vector"] or "-"
                tags = []
                if d["exact"]:
                    tags.append("exact")
                if d["via_alias"]:
                    tags.append("via-alias")
                tag = f"  [{', '.join(tags)}]" if tags else ""
                print(f"    {d['kind']:6} {d['source']} -> {d['sink']}  "
                      f"vector {vec}  distance {dist}{tag}")
    s = report["summary"]
    print(f"deps: {s['carried_deps']} carried, "
          f"{s['proven_distance']} with proven distance, "
          f"{s['exact_vectors']} exact vectors")


def _groups_entry(func, probes):
    """A function's probe groups, or None (skip it) without probes."""
    if not probes:
        return None
    return {"name": func.name, "groups": [probe.to_dict() for probe in probes]}


def _banks_entry(facts, func):
    from .analysis.banking import probe_function

    return _groups_entry(func, probe_function(facts.context(func)))


def _banks_summary(functions):
    groups = [g for f in functions for g in f["groups"]]
    return {
        "groups": len(groups),
        "proven": sum(1 for g in groups if g["best"] is not None),
        "serialized": sum(1 for g in groups if g["best"] is None),
    }


def _banks_text(report) -> None:
    for func_entry in report["functions"]:
        print(f"@{func_entry['name']}")
        for group in func_entry["groups"]:
            chosen = group["best"] or "serialized (no proof)"
            print(f"  loop {group['loop']} x{group['factor']} "
                  f"@{group['base']}: {chosen}  "
                  f"({group['lanes']} lanes, word {group['word_bytes']}B)")
            for scheme in group["schemes"]:
                print(f"    {scheme['scheme']:10} "
                      f"{scheme['status']:13} {scheme['reason']}")
    s = report["summary"]
    print(f"banks: {s['groups']} group probes, {s['proven']} proven "
          f"conflict-free, {s['serialized']} serialized")


def _reuse_entry(facts, func):
    from .analysis.reuse import probe_function

    return _groups_entry(func, probe_function(facts.context(func)))


def _reuse_summary(functions):
    groups = [g for f in functions for g in f["groups"]]
    return {
        "groups": len(groups),
        "pairs_proven": sum(len(g["pairs"]) for g in groups),
        "pairs_unknown": sum(len(g["unknown"]) for g in groups),
        "pairs_broken": sum(len(g["broken"]) for g in groups),
    }


def _reuse_text(report) -> None:
    for func_entry in report["functions"]:
        print(f"@{func_entry['name']}")
        for group in func_entry["groups"]:
            print(f"  loop {group['loop']} @{group['base']}: "
                  f"{len(group['pairs'])} proven pair(s)")
            for pair in group["pairs"]:
                trip = (f"  (trip {pair['trip']})"
                        if pair["trip"] is not None else "")
                print(f"    {pair['kind']:7} %{pair['producer']} -> "
                      f"%{pair['consumer']}  distance "
                      f"{pair['distance']}{trip}")
            for cand in group["unknown"]:
                prod = f"%{cand['producer']} -> " if cand["producer"] else ""
                print(f"    unknown {prod}%{cand['consumer']}: "
                      f"{cand['reason']}")
            for cand in group["broken"]:
                print(f"    broken  %{cand['producer']} -> "
                      f"%{cand['consumer']}: {cand['reason']}")
    s = report["summary"]
    print(f"reuse: {s['groups']} group probes, {s['pairs_proven']} proven "
          f"pair(s), {s['pairs_unknown']} unknown, "
          f"{s['pairs_broken']} broken")


def _bitwidth_entry(facts, func):
    return {"name": func.name, **facts.bitwidth.function_summary(func)}


def _bitwidth_summary(functions):
    columns = ("int_ops", "narrowed_ops", "type_bits", "proven_bits",
               "type_area_um2", "proven_area_um2")
    return {key: sum(f[key] for f in functions) for key in columns}


def _bitwidth_row(label: str, s) -> float:
    """Print one table row; return its saved share of FU area (%)."""
    saved = s["type_area_um2"] - s["proven_area_um2"]
    pct = 100.0 * saved / s["type_area_um2"] if s["type_area_um2"] else 0.0
    print(f"{label:24} {s['int_ops']:8d} {s['narrowed_ops']:9d} "
          f"{s['type_bits']:6d}->{s['proven_bits']:<6d} "
          f"{s['type_area_um2']:9.0f}->{s['proven_area_um2']:<9.0f} "
          f"{pct:6.1f}%")
    return pct


def _bitwidth_text(report) -> None:
    print(f"{'function':24} {'int ops':>8} {'narrowed':>9} "
          f"{'bits':>13} {'fu area um2':>20} {'saved':>7}")
    for func_entry in report["functions"]:
        _bitwidth_row(f"@{func_entry['name']}", func_entry)
    s = report["summary"]
    pct = _bitwidth_row("total", s)
    print(f"\nestimated datapath FU area delta: "
          f"-{s['type_area_um2'] - s['proven_area_um2']:.0f} um2 "
          f"({pct:.1f}% of the type-width datapath)")


class Report(NamedTuple):
    """One analysis report subcommand: ``entry(facts, func)`` gives a
    function's JSON entry (None skips the function), ``summary`` totals
    the entries, and ``text`` prints the report in human-readable form."""

    help: str
    description: str
    entry: Callable
    summary: Callable
    text: Callable


#: The analysis report subcommands, each registered with ``source``,
#: ``--workload``, ``--no-opt`` and ``--json`` and run by :func:`_cmd_report`.
REPORTS = {
    "deps": Report(
        "dependence-vector table per loop nest",
        "Run the affine dependence-vector analysis and print, per "
        "function and loop, every loop-carried memory dependence with "
        "its per-level direction/distance vector and the proven "
        "minimal carried distance.",
        _deps_entry, _deps_summary, _deps_text,
    ),
    "banks": Report(
        "scratchpad bank-conflict verdicts per group",
        "Run the static bank-conflict analysis and print, per function "
        "and unrolled loop, every scratchpad group's candidate banking "
        "schemes (cyclic/block over power-of-two factors) with its "
        "conflict-free / conflicted / unknown verdict and the cheapest "
        "proven scheme the model may rely on.",
        _banks_entry, _banks_summary, _banks_text,
    ),
    "reuse": Report(
        "proven inter-iteration reuse pairs per scratchpad group",
        "Probe every call-free innermost loop's global-array groups "
        "with the data-reuse analysis: proven pairs (consumer at "
        "iteration i addresses what the producer addressed at i-d) "
        "become shift-register buffers in the accelerator model; "
        "unknown and broken candidates are reported with the reason "
        "the proof failed.",
        _reuse_entry, _reuse_summary, _reuse_text,
    ),
    "bitwidth": Report(
        "per-function bitwidth-narrowing report",
        "Run the known-bits ∧ demanded-bits analysis and print, per "
        "function, how many integer datapath ops narrow below their "
        "type width and the estimated functional-unit area recovered.",
        _bitwidth_entry, _bitwidth_summary, _bitwidth_text,
    ),
}


def _cmd_report(args) -> int:
    """Run one :data:`REPORTS` row.  ``--json`` prints the envelope every
    report shares, ``{"tool", "estimator_version", "workload", "data"}``,
    so consumers can dispatch on ``tool`` and detect model drift via
    ``estimator_version`` without per-command parsers."""
    import json

    from .analysis.facts import ModuleFacts
    from .frontend import compile_source
    from .model.estimator import ESTIMATOR_VERSION

    report = REPORTS[args.command]
    source = _read_program(args)
    name = args.source or args.workload
    module = compile_source(source, name, optimize=not args.no_opt)
    facts = ModuleFacts.of(module)
    entries = (report.entry(facts, func) for func in module.defined_functions())
    functions = [entry for entry in entries if entry is not None]
    data = {
        "program": name,
        "functions": functions,
        "summary": report.summary(functions),
    }
    if not args.json:
        report.text(data)
        return 0
    print(json.dumps({
        "tool": args.command,
        "estimator_version": ESTIMATOR_VERSION,
        "workload": name,
        "data": data,
    }, indent=2))
    return 0


def _cmd_lint(args) -> int:
    from .diagnostics import render_json, render_text, run_lint
    from .frontend import compile_source

    if args.explain:
        from .diagnostics.registry import all_rules, get_rule

        if args.explain.strip().lower() == "all":
            rules = all_rules()
        else:
            rules = []
            for code in args.explain.split(","):
                code = code.strip()
                if not code:
                    continue
                try:
                    rules.append(get_rule(code))
                except KeyError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 2
        for index, found in enumerate(rules):
            if index:
                print()
            print(f"{found.code} [{found.severity.name.lower()}] {found.name}")
            print(f"layer: {found.layer}")
            if found.requires:
                print(f"requires: {', '.join(sorted(found.requires))}")
            if found.paper_ref:
                print(f"paper: {found.paper_ref}")
            print()
            print(found.description)
        return 0

    source = _read_program(args)
    name = args.source or args.workload
    module = compile_source(source, name, optimize=not args.no_opt)
    profile = wpst = model = None
    if not args.no_profile:
        from .analysis import WPST
        from .interp.profiler import profile_module
        from .model.estimator import AcceleratorModel

        profile = profile_module(module, entry=args.entry)
        wpst = WPST(module, entry_function=args.entry)
        model = AcceleratorModel(module, profile)
    result = run_lint(module, profile=profile, wpst=wpst, model=model)
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return result.exit_code(strict=args.strict)


#: The summary line ``repro bench`` prints per workload of each proof
#: ablation section.
_ABLATION_LINES = {
    "area_narrowing": (
        "narrow {name}: {type_area_um2:.0f} -> {proven_area_um2:.0f} um2 "
        "(-{saving_pct:.1f}%), {narrowed_ops}/{int_ops} int ops narrowed, "
        "latency {latency_type} -> {latency_proven}"
    ),
    "pipeline_ii": (
        "pipeii {name}: II {ii_before_total} -> {ii_after_total} over "
        "{pipelined_loops} pipelined loops ({improved_loops} improved, "
        "equal area)"
    ),
    "spad_banking": (
        "banks  {name}: II {ii_before_total} -> {ii_after_total} over "
        "{probed_loops} probed loops ({proven_groups}/{groups} groups "
        "proven, {serialized_groups} serialized, equal area)"
    ),
    "reuse_buffers": (
        "reuse  {name}: ports {ports_before_total} -> {ports_after_total}, "
        "II {ii_before_total} -> {ii_after_total} over {probed_loops} "
        "probed loops ({pairs_proven} proven pairs, {buffered_consumers} "
        "buffered, {register_bits} register bits)"
    ),
}


def _cmd_bench(args) -> int:
    import time

    from .reporting.bench import (
        BenchCache,
        EvaluationEngine,
        FlowParams,
        ablation_stats,
        build_report,
        compare_reports,
        default_tag,
        interp_elision_stats,
        load_report,
        write_report,
    )
    from .workloads import all_workloads

    # Check every input before the (long) evaluation starts.
    if args.benchmarks:
        names = list(args.benchmarks)
        _check_workloads(names)
    else:
        workloads = all_workloads()
        if args.suite:
            workloads = [w for w in workloads if w.suite == args.suite]
            if not workloads:
                _fail(f"no workloads in suite {args.suite!r}")
        names = [w.name for w in workloads]
    baseline = None
    if args.compare_to:
        try:
            baseline = load_report(args.compare_to)
        except (OSError, ValueError) as exc:
            _fail(f"cannot read report {args.compare_to!r}: "
                  f"{getattr(exc, 'strerror', None) or exc}")

    params = FlowParams(
        alpha=args.alpha,
        beta=args.beta,
        prune_threshold=args.prune_threshold,
        budgets=tuple(args.budgets),
    )
    cache = None if args.no_cache else BenchCache(args.cache_dir)
    engine = EvaluationEngine(params, cache=cache)

    def progress(name: str, status: str) -> None:
        if not args.quiet and status in ("hit", "run"):
            print(f"  {name}: {'cache hit' if status == 'hit' else 'running'}",
                  file=sys.stderr, flush=True)

    started = time.perf_counter()
    records = engine.evaluate(names, jobs=args.jobs, progress=progress)
    wall = time.perf_counter() - started

    # The probes run on a bounded prefix to keep full-suite runs fast.
    sections = {}
    if not args.no_interp_bench:
        # Before/after interpreter throughput with bounds-check elision.
        sections["interp_elision"] = interp_elision_stats(
            names[: args.interp_bench_count]
        )
    if args.ablation_count > 0:
        # Each proof priced without and with it, at equal area.
        sections.update(ablation_stats(names[: args.ablation_count]))

    tag = args.tag or default_tag(params)
    payload = build_report(
        records, engine, tag=tag, wall_seconds=wall, sections=sections,
    )
    path = write_report(payload, directory=args.output_dir)

    top_budget = max(params.budgets)
    for record in records:
        marker = "cached" if record.name in engine.hit_names else "ran"
        speedup = record.speedup("cayman", top_budget)
        print(f"{record.suite:14} {record.name:28} {marker:6} "
              f"cayman@{top_budget:.0%} {speedup:8.2f}x")
    for name, stat in sections.get("interp_elision", {}).items():
        before = stat["baseline_inst_per_s"]
        after = stat["elided_inst_per_s"]
        gain = (after / before - 1.0) * 100.0 if before else 0.0
        print(f"interp {name}: {before / 1e3:.0f}k -> {after / 1e3:.0f}k "
              f"inst/s ({gain:+.0f}%), "
              f"{stat['elided']}/{stat['elided'] + stat['checked']} "
              f"accesses elided "
              f"({stat['proven_accesses']}/{stat['total_accesses']} "
              f"proven), compiled engine "
              f"{stat['engine_speedup']:.1f}x over reference")
    for section, line in _ABLATION_LINES.items():
        for name, stat in sections.get(section, {}).items():
            print(line.format(name=name, **stat))
    narrowing = sections.get("area_narrowing", {}).values()
    total_type = sum(s["type_area_um2"] for s in narrowing)
    total_proven = sum(s["proven_area_um2"] for s in narrowing)
    if total_type:
        print(f"narrow aggregate: {total_type:.0f} -> {total_proven:.0f} "
              f"um2 datapath FU area "
              f"(-{100.0 * (1.0 - total_proven / total_type):.1f}%)")
    stats = engine.cache_stats()
    print(f"\n{len(records)} workloads in {wall:.2f}s "
          f"(jobs={args.jobs}, cache hits {stats['hits']}, "
          f"misses {stats['misses']}, hit rate {stats['hit_rate']:.0%})")
    print(f"wrote {path}")

    status = 0
    if baseline is not None:
        problems = compare_reports(baseline, payload)
        if problems:
            print(f"\ndeterminism check FAILED against {args.compare_to}:",
                  file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            status = 1
        else:
            print(f"determinism check passed against {args.compare_to}")
    if args.min_hit_rate is not None and stats["hit_rate"] < args.min_hit_rate:
        print(f"\ncache hit rate {stats['hit_rate']:.0%} below required "
              f"{args.min_hit_rate:.0%}", file=sys.stderr)
        status = 1
    return status


def _cmd_trace(args) -> int:
    from .framework import Cayman
    from .telemetry import ChromeTraceSink, JsonlSink, Telemetry

    source = _read_program(args)
    name = args.source or args.workload
    _check_writable(args.jsonl)
    _check_writable(args.chrome)
    sinks = []
    if args.jsonl:
        sinks.append(JsonlSink(args.jsonl))
    if args.chrome:
        sinks.append(ChromeTraceSink(args.chrome))
    tele = Telemetry(sinks=sinks)

    framework = Cayman(
        alpha=args.alpha,
        beta=args.beta,
        lint=not args.no_lint,
        telemetry=tele,
    )
    result = framework.run(source, entry=args.entry, name=name)
    tele.close()

    print(f"trace of {name} "
          f"({result.runtime_seconds:.2f}s, "
          f"front size {len(result.front)})")
    print("\nspans (seconds):")
    for span in tele.walk_spans():
        attrs = ""
        if span.attrs:
            rendered = ", ".join(
                f"{key}={value}" for key, value in sorted(span.attrs.items())
            )
            attrs = f"  [{rendered}]"
        indent = "  " * span.depth
        print(f"  {span.duration_s:9.4f}  {indent}{span.name}{attrs}")

    snapshot = tele.snapshot()
    if snapshot["counters"]:
        print("\ncounters:")
        width = max(len(key) for key in snapshot["counters"])
        for key, value in snapshot["counters"].items():
            rendered = f"{value:.3f}" if isinstance(value, float) else value
            print(f"  {key:{width}}  {rendered}")
    if snapshot["timings"]:
        print("\ntimings (count, total seconds):")
        width = max(len(key) for key in snapshot["timings"])
        for key, stats in snapshot["timings"].items():
            print(f"  {key:{width}}  {stats['count']:4d}  "
                  f"{stats['total']:.4f}")
    for path, label in ((args.jsonl, "JSONL"), (args.chrome, "Chrome trace")):
        if path:
            print(f"\nwrote {label} to {path}")
    return 0


def _cmd_bench_list(args) -> int:
    from .workloads import all_workloads

    for workload in sorted(all_workloads(), key=lambda w: (w.suite, w.name)):
        print(f"{workload.suite:14} {workload.name:28} {workload.description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .interp.sanitizer import SanitizingInterpreter
    parser = argparse.ArgumentParser(
        prog="repro", description="Cayman accelerator-generation framework"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full flow on a mini-C file")
    run.add_argument("source", nargs="?")
    run.add_argument("--workload", help="run a registered benchmark instead")
    run.add_argument("--entry", default="main")
    run.add_argument("--alpha", type=float, default=1.1)
    run.add_argument("--beta", type=float, default=4.0)
    run.add_argument("--coupled-only", action="store_true")
    run.add_argument("--no-merging", action="store_true")
    run.add_argument("--budgets", type=float, nargs="+", default=[0.25, 0.65])
    run.set_defaults(func=_cmd_run)

    table2 = sub.add_parser("table2", help="regenerate Table II")
    table2.add_argument("benchmarks", nargs="*")
    table2.add_argument("--quiet", action="store_true")
    table2.add_argument("--format", choices=["text", "csv", "json"],
                        default="text")
    table2.add_argument("-j", "--jobs", type=int, default=1,
                        help="evaluate workloads across N processes")
    table2.add_argument("--cache-dir",
                        help="reuse/populate a persistent bench cache")
    table2.set_defaults(func=_cmd_table2)

    fig6 = sub.add_parser("fig6", help="regenerate Fig. 6 series")
    fig6.add_argument("benchmarks", nargs="*")
    fig6.add_argument("--format", choices=["text", "csv", "json"],
                      default="text")
    fig6.add_argument("-j", "--jobs", type=int, default=1,
                      help="evaluate workloads across N processes")
    fig6.add_argument("--cache-dir",
                      help="reuse/populate a persistent bench cache")
    fig6.set_defaults(func=_cmd_fig6)

    table1 = sub.add_parser("table1", help="print the Table I matrix")
    table1.set_defaults(func=_cmd_table1)

    dump = sub.add_parser("dump", help="print optimized IR and wPST")
    dump.add_argument("source")
    dump.add_argument("--entry", default="main")
    dump.add_argument("--no-opt", action="store_true")
    dump.set_defaults(func=_cmd_dump)

    rtl = sub.add_parser("emit-rtl",
                         help="generate Verilog for the selected accelerators")
    rtl.add_argument("source", nargs="?")
    rtl.add_argument("--workload", help="use a registered benchmark instead")
    rtl.add_argument("--entry", default="main")
    rtl.add_argument("--budget", type=float, default=0.65)
    rtl.add_argument("--top", default="cayman_solution")
    rtl.add_argument("--reusable", action="store_true",
                     help="emit merged reusable accelerators (Fig. 5 form)")
    rtl.add_argument("-o", "--output")
    rtl.set_defaults(func=_cmd_emit_rtl)

    lint = sub.add_parser(
        "lint",
        help="run static diagnostics over a mini-C program",
        description=(
            "Compile a mini-C program (or a registered workload) and run "
            "the Cayman Lint rules over its IR, analyses, and the "
            "accelerator configurations the model would generate.  Exits "
            "1 when error-severity findings are present (with --strict, "
            "warnings also fail)."
        ),
    )
    lint.add_argument("source", nargs="?")
    lint.add_argument("--workload", help="lint a registered benchmark instead")
    lint.add_argument("--entry", default="main")
    lint.add_argument("--no-opt", action="store_true",
                      help="lint the unoptimized IR")
    lint.add_argument("--no-profile", action="store_true",
                      help="skip profiling (disables profile/wPST/config rules)")
    lint.add_argument("--strict", action="store_true",
                      help="exit 1 on warnings as well as errors")
    lint.add_argument("--format", choices=["text", "json"], default="text")
    lint.add_argument("--explain", metavar="CODE",
                      help="print the rule-catalog entry for a diagnostic "
                           "code and exit (2 if the code is unknown)")
    lint.set_defaults(func=_cmd_lint)

    exec_ = sub.add_parser(
        "exec",
        help="interpret a program, with bounds-check elision or --sanitize",
        description=(
            "Run the reference interpreter.  By default, accesses the "
            "interval analysis proves in-bounds skip their runtime checks "
            "(--no-elide disables).  --sanitize keeps every check and "
            "cross-validates all static claims (value ranges, alias facts, "
            "dependence distances) against observed behavior, exiting 1 on "
            "any soundness violation; --inject-unsound <claim> mis-claims "
            "one kind of claim on purpose, so the run must fail."
        ),
    )
    exec_.add_argument("source", nargs="?")
    exec_.add_argument("--workload", help="run a registered benchmark instead")
    exec_.add_argument("--entry", default="main")
    exec_.add_argument("--args", nargs="*", default=[],
                       help="integer arguments for the entry function")
    exec_.add_argument("--no-opt", action="store_true",
                       help="interpret the unoptimized IR")
    exec_.add_argument("--no-elide", action="store_true",
                       help="keep every runtime bounds check")
    exec_.add_argument("--engine", choices=["compiled", "reference"],
                       default="compiled",
                       help="execution engine: 'compiled' translates each "
                            "function to specialized closures once "
                            "(default), 'reference' is the per-instruction "
                            "dispatch oracle")
    exec_.add_argument("--sanitize", action="store_true",
                       help="validate static analysis claims at runtime")
    exec_.add_argument("--inject-unsound",
                       choices=list(SanitizingInterpreter.CLAIMS),
                       help="with --sanitize: mis-claim one kind of claim on "
                            "purpose (self-test; the run must fail)")
    exec_.set_defaults(func=_cmd_exec)

    for command, report in REPORTS.items():
        tool = sub.add_parser(command, help=report.help,
                              description=report.description)
        tool.add_argument("source", nargs="?")
        tool.add_argument("--workload",
                          help="analyze a registered benchmark instead")
        tool.add_argument("--no-opt", action="store_true",
                          help="analyze the unoptimized IR")
        tool.add_argument("--json", action="store_true",
                          help="machine-readable report")
        tool.set_defaults(func=_cmd_report)

    bench = sub.add_parser(
        "bench",
        help="parallel, cached evaluation of the workload x flow matrix",
        description=(
            "Evaluate workloads across all four flows (full Cayman, "
            "coupled-only, NOVIA, QsCores), fanning cache misses across a "
            "process pool and persisting content-keyed records so re-runs "
            "only pay for what changed.  Writes BENCH_<tag>.json."
        ),
    )
    bench.add_argument("benchmarks", nargs="*",
                       help="workload names (default: all)")
    bench.add_argument("--suite", help="restrict to one benchmark suite")
    bench.add_argument("-j", "--jobs", type=int, default=1,
                       help="worker processes for cache misses")
    bench.add_argument("--cache-dir", default=".repro-cache",
                       help="persistent record cache directory")
    bench.add_argument("--no-cache", action="store_true",
                       help="disable the persistent cache")
    bench.add_argument("--tag", help="report tag (default: params digest)")
    bench.add_argument("--output-dir", default=".",
                       help="directory for BENCH_<tag>.json")
    bench.add_argument("--alpha", type=float, default=1.1)
    bench.add_argument("--beta", type=float, default=4.0)
    bench.add_argument("--prune-threshold", type=float, default=0.001)
    bench.add_argument("--budgets", type=float, nargs="+",
                       default=[0.25, 0.65])
    bench.add_argument("--compare-to", metavar="BENCH_JSON",
                       help="fail if deterministic sections differ from "
                            "a previous report")
    bench.add_argument("--min-hit-rate", type=float,
                       help="fail if the cache hit rate is below this")
    bench.add_argument("--quiet", action="store_true")
    bench.add_argument("--no-interp-bench", action="store_true",
                       help="skip the interpreter elision throughput probe")
    bench.add_argument("--interp-bench-count", type=int, default=2,
                       metavar="N",
                       help="probe elision throughput on the first N "
                            "workloads (default 2)")
    bench.add_argument("--ablation-count", type=int, default=6,
                       metavar="N",
                       help="price each proof without and with it "
                            "(area_narrowing, pipeline_ii, spad_banking, "
                            "reuse_buffers) on the first N workloads "
                            "(default 6; 0 skips)")
    bench.set_defaults(func=_cmd_bench)

    trace = sub.add_parser(
        "trace",
        help="run the full flow with telemetry and print/export the trace",
        description=(
            "Run the full Cayman flow on a workload (or mini-C file) with "
            "telemetry recording enabled, then print the hierarchical span "
            "tree, the exact counters of every pipeline layer, and the "
            "wall-time histograms.  --jsonl streams spans as JSON lines; "
            "--chrome writes Chrome trace-event JSON loadable in Perfetto "
            "(ui.perfetto.dev) or chrome://tracing."
        ),
    )
    trace.add_argument("source", nargs="?")
    trace.add_argument("--workload", help="trace a registered benchmark")
    trace.add_argument("--entry", default="main")
    trace.add_argument("--alpha", type=float, default=1.1)
    trace.add_argument("--beta", type=float, default=4.0)
    trace.add_argument("--no-lint", action="store_true",
                       help="skip the lint stage")
    trace.add_argument("--jsonl", metavar="FILE",
                       help="write one JSON line per span/counter to FILE")
    trace.add_argument("--chrome", metavar="FILE",
                       help="write Chrome trace-event JSON to FILE")
    trace.set_defaults(func=_cmd_trace)

    bench_list = sub.add_parser("bench-list", help="list benchmark workloads")
    bench_list.set_defaults(func=_cmd_bench_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from .frontend import FrontendError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. piping into `head`
        return 0
    except FrontendError as exc:
        _fail(f"invalid mini-C program: {exc}")


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
