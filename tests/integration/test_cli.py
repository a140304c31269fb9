"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def kernel_file(tmp_path):
    path = tmp_path / "kernel.c"
    path.write_text(
        """
        float x[64]; float y[64];
        void saxpy(int n, float k) {
          linear: for (int i = 0; i < n; i++) y[i] = k * x[i];
        }
        int main() {
          for (int i = 0; i < 64; i++) x[i] = (float)i;
          for (int r = 0; r < 8; r++) saxpy(64, 2.0f);
          return 0;
        }
        """
    )
    return str(path)


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_command(self, kernel_file, capsys):
        assert main(["run", kernel_file]) == 0
        out = capsys.readouterr().out
        assert "pareto front" in out
        assert "budget 25%" in out and "budget 65%" in out
        assert "saxpy" in out

    def test_run_coupled_only(self, kernel_file, capsys):
        assert main(["run", kernel_file, "--coupled-only"]) == 0
        out = capsys.readouterr().out
        assert "C/D/S=" in out
        # no decoupled/scratchpad interfaces in any printed accelerator
        for line in out.splitlines():
            if "C/D/S=" in line:
                counts = line.rsplit("C/D/S=", 1)[1].split("/")
                assert counts[1] == "0" and counts[2] == "0"

    def test_dump_command(self, kernel_file, capsys):
        assert main(["dump", kernel_file]) == 0
        out = capsys.readouterr().out
        assert "func void @saxpy" in out
        assert "[root]" in out and "region:linear" in out

    def test_table1_command(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Cayman" in out and "specialized" in out

    def test_bench_list(self, capsys):
        assert main(["bench-list"]) == 0
        out = capsys.readouterr().out
        assert "3mm" in out and "zip-test" in out

    def test_table2_subset(self, capsys):
        assert main(["table2", "trisolv", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "trisolv" in out and "over-NOVIA" in out

    def test_fig6_subset(self, capsys):
        assert main(["fig6", "trisolv"]) == 0
        out = capsys.readouterr().out
        assert "== trisolv ==" in out
        assert "cayman:" in out


@pytest.fixture()
def broken_file(tmp_path):
    path = tmp_path / "oob.c"
    path.write_text("int A[4]; int main() { return A[9]; }\n")
    return str(path)


@pytest.fixture()
def warning_file(tmp_path):
    path = tmp_path / "dead.c"
    path.write_text("int main() { int t[4]; t[0] = 5; return 0; }\n")
    return str(path)


class TestLintCommand:
    def test_clean_program_exits_zero(self, kernel_file, capsys):
        assert main(["lint", kernel_file]) == 0
        out = capsys.readouterr().out
        # A full (profiled) lint may print AN005 narrowing-opportunity
        # infos, but never errors or warnings on a clean program.
        assert "error:" not in out and "warning:" not in out

    def test_clean_program_no_profile_reports_clean(self, kernel_file, capsys):
        assert main(["lint", kernel_file, "--no-profile"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_error_finding_exits_one(self, broken_file, capsys):
        assert main(["lint", broken_file, "--no-profile"]) == 1
        out = capsys.readouterr().out
        assert "error: [IR004]" in out

    def test_json_format(self, broken_file, capsys):
        import json

        assert main(["lint", broken_file, "--no-profile",
                     "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["exit_code"] == 1
        assert any(d["code"] == "IR004" for d in data["diagnostics"])

    def test_strict_promotes_warnings(self, warning_file, capsys):
        args = ["lint", warning_file, "--no-profile", "--no-opt"]
        assert main(args) == 0
        assert "warning: [IR002]" in capsys.readouterr().out
        assert main(args + ["--strict"]) == 1

    def test_lint_workload(self, capsys):
        assert main(["lint", "--workload", "trisolv"]) == 0
        out = capsys.readouterr().out
        # Profiled runs may surface AN005 narrowing infos; still exit 0
        # with no errors or warnings.
        assert "error:" not in out and "warning:" not in out

    def test_lint_examples_are_clean(self, capsys):
        import pathlib

        examples = pathlib.Path(__file__).resolve().parents[2] / "examples"
        for source in sorted(examples.glob("*.c")):
            assert main(["lint", str(source)]) == 0, source.name

    def test_help_documents_lint(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint", "--help"])
        out = capsys.readouterr().out
        assert "--strict" in out and "--format" in out


class TestLintExplain:
    def test_explain_known_code(self, capsys):
        assert main(["lint", "--explain", "IR007"]) == 0
        out = capsys.readouterr().out
        assert "IR007" in out and "symbolic-out-of-bounds" in out
        assert "layer: ir" in out

    def test_explain_needs_no_source(self, capsys):
        # --explain must not require a program or workload argument.
        assert main(["lint", "--explain", "AN004"]) == 0
        assert "footprint" in capsys.readouterr().out

    def test_explain_unknown_code_exits_two(self, capsys):
        assert main(["lint", "--explain", "ZZ999"]) == 2
        assert "ZZ999" in capsys.readouterr().err

    def test_explain_comma_list(self, capsys):
        assert main(["lint", "--explain", "IR007,IR009"]) == 0
        out = capsys.readouterr().out
        assert "symbolic-out-of-bounds" in out
        assert "provable-truncation" in out

    def test_explain_comma_list_with_unknown_exits_two(self, capsys):
        assert main(["lint", "--explain", "IR007,ZZ999"]) == 2
        assert "ZZ999" in capsys.readouterr().err

    def test_explain_all_dumps_catalog(self, capsys):
        assert main(["lint", "--explain", "all"]) == 0
        out = capsys.readouterr().out
        # One entry per registered rule across all three layers.
        for code in ("IR001", "IR009", "AN005", "CF001"):
            assert code in out


class TestExecCommand:
    def test_exec_reports_elision(self, capsys):
        assert main(["exec", "--workload", "trisolv"]) == 0
        out = capsys.readouterr().out
        assert "result:" in out
        assert "accesses statically proven" in out

    def test_exec_no_elide(self, capsys):
        assert main(["exec", "--workload", "trisolv", "--no-elide"]) == 0
        assert "statically proven" not in capsys.readouterr().out

    def test_sanitize_clean_workload_exits_zero(self, capsys):
        assert main(["exec", "--workload", "trisolv", "--sanitize"]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out

    def test_sanitize_injected_alias_catches_aliasing(self, capsys):
        assert main(["exec", "--workload", "smooth-alias", "--sanitize",
                     "--inject-unsound", "alias"]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out

    def test_sanitize_points_to_clean_on_aliasing_workload(self, capsys):
        assert main(["exec", "--workload", "smooth-alias", "--sanitize"]) == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_sanitize_bitwidth_adversary_clean(self, capsys):
        assert main(["exec", "--workload", "bitwidth-adversary",
                     "--sanitize"]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out
        assert "known-bits checks" in out

    def test_sanitize_injected_unsound_bitwidth_exits_one(self, capsys):
        assert main(["exec", "--workload", "bitwidth-adversary", "--sanitize",
                     "--inject-unsound", "bitwidth"]) == 1
        assert "VIOLATION" in capsys.readouterr().out

    def test_sanitize_dependence_workload_clean(self, capsys):
        assert main(["exec", "--workload", "wave-lag", "--sanitize"]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out
        assert "loop-carried conflicts observed" in out

    def test_sanitize_injected_unsound_dependence_exits_one(self, capsys):
        assert main(["exec", "--workload", "wave-lag", "--sanitize",
                     "--inject-unsound", "dependence"]) == 1
        out = capsys.readouterr().out
        assert "dependence-distance violation" in out

    @pytest.mark.parametrize("argv, message", [
        (["--entry", "nosuch"], "no function 'nosuch'"),
        (["--args", "abc"], "--args takes integers"),
        (["--args", "1", "2"], "@main takes 0 argument(s), got 2"),
    ])
    @pytest.mark.parametrize("sanitize", [[], ["--sanitize"]])
    def test_bad_entry_or_args_exit_two_with_one_line(
        self, capsys, argv, message, sanitize
    ):
        with pytest.raises(SystemExit) as exc:
            main(["exec", "--workload", "trisolv", *argv, *sanitize])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert message in lines[0]

    def test_injection_without_sanitize_exits_two(self, capsys):
        """A gate that forgets --sanitize must not pass on a plain run."""
        with pytest.raises(SystemExit) as exc:
            main(["exec", "--workload", "wave-lag",
                  "--inject-unsound", "dependence"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --inject-unsound needs --sanitize\n"

    def test_unknown_injected_claim_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["exec", "--workload", "wave-lag", "--sanitize",
                  "--inject-unsound", "restrict"])
        assert exc.value.code == 2
        assert "invalid choice: 'restrict'" in capsys.readouterr().err


class TestDepsCommand:
    def test_workload_table(self, capsys):
        assert main(["deps", "--workload", "wave-lag"]) == 0
        out = capsys.readouterr().out
        # The inner update loop carries W[j] <- W[j-lag] at the
        # interprocedurally proven distance 6.
        assert "loop upd" in out
        assert "distance 6" in out and "exact" in out
        assert "deps:" in out

    def test_json_report(self, capsys):
        import json

        assert main(["deps", "--workload", "seidel-1d", "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["tool"] == "deps"
        assert envelope["workload"] == "seidel-1d"
        data = envelope["data"]
        assert data["summary"]["carried_deps"] > 0
        inner = [
            loop
            for func in data["functions"] for loop in func["loops"]
            if loop["name"] == "col_sweep"
        ]
        assert inner and any(
            d["distance"] == 2 and d["exact"] for d in inner[0]["deps"]
        )

    def test_source_file_report(self, kernel_file, capsys):
        assert main(["deps", kernel_file]) == 0
        out = capsys.readouterr().out
        assert "no carried dependences" in out


class TestBitwidthCommand:
    def test_workload_report(self, capsys):
        assert main(["bitwidth", "--workload", "trisolv"]) == 0
        out = capsys.readouterr().out
        assert "function" in out and "narrowed" in out
        assert "datapath FU area" in out

    def test_source_file_report(self, kernel_file, capsys):
        assert main(["bitwidth", kernel_file]) == 0
        out = capsys.readouterr().out
        assert "saxpy" in out


class TestTraceCommand:
    def test_trace_workload_summary(self, capsys):
        assert main(["trace", "--workload", "trisolv"]) == 0
        out = capsys.readouterr().out
        assert "trace of trisolv" in out
        assert "cayman.run" in out
        for stage in ("stage:compile", "stage:profile", "stage:analysis",
                      "stage:selection", "stage:merging", "stage:lint"):
            assert stage in out
        assert "counters:" in out
        assert "interp.instructions" in out

    def test_trace_no_lint(self, capsys):
        assert main(["trace", "--workload", "trisolv", "--no-lint"]) == 0
        assert "stage:lint" not in capsys.readouterr().out

    def test_trace_chrome_export_is_valid_and_deep(self, tmp_path, capsys):
        import json

        from repro.telemetry import validate_chrome_trace

        path = str(tmp_path / "trace.json")
        assert main(["trace", "--workload", "trisolv",
                     "--chrome", path]) == 0
        payload = json.load(open(path))
        assert validate_chrome_trace(payload) == []
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in complete}
        # Every pipeline stage appears as a span...
        for stage in ("stage:compile", "stage:profile", "stage:analysis",
                      "stage:selection", "stage:merging", "stage:lint"):
            assert stage in names
        # ...and the containment structure is at least four levels deep:
        # cayman.run > stage:compile > opt.pipeline > opt.pass:<name>.
        def contains(outer, inner):
            return (outer["ts"] <= inner["ts"] and
                    outer["ts"] + outer["dur"] >=
                    inner["ts"] + inner["dur"])

        by_name = {e["name"]: e for e in complete}
        chain = [by_name["cayman.run"], by_name["stage:compile"],
                 by_name["opt.pipeline"], by_name["opt.pass:dce"]]
        for outer, inner in zip(chain, chain[1:]):
            assert contains(outer, inner)

    def test_trace_jsonl_export(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "trace.jsonl")
        assert main(["trace", "--workload", "trisolv", "--jsonl", path]) == 0
        lines = [json.loads(line) for line in open(path)]
        spans = [l for l in lines if l["event"] == "span"]
        counters = [l for l in lines if l["event"] == "counter"]
        assert max(s["depth"] for s in spans) >= 3
        assert any(c["name"] == "interp.instructions" for c in counters)

    def test_trace_source_file(self, kernel_file, capsys):
        assert main(["trace", kernel_file]) == 0
        assert "cayman.run" in capsys.readouterr().out


class TestBanksCommand:
    def test_text_report(self, capsys):
        assert main(["banks", "--workload", "bank-transpose"]) == 0
        out = capsys.readouterr().out
        assert "@colsum" in out
        assert "block-4" in out
        assert "conflict-free" in out
        assert "banks:" in out and "proven conflict-free" in out

    def test_text_report_shows_serialization(self, capsys):
        assert main(["banks", "--workload", "stride2-collider"]) == 0
        out = capsys.readouterr().out
        assert "serialized (no proof)" in out
        assert "pigeonhole" in out or "share bank" in out

    def test_json_report(self, capsys):
        import json

        assert main(["banks", "--workload", "stride2-collider",
                     "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["tool"] == "banks"
        assert envelope["workload"] == "stride2-collider"
        report = envelope["data"]
        summary = report["summary"]
        assert summary["serialized"] >= 1
        assert summary["groups"] == summary["proven"] + summary["serialized"]
        groups = [g for f in report["functions"] for g in f["groups"]]
        assert any(g["best"] is None for g in groups)
        assert all("schemes" in g for g in groups)

    def test_source_file_input(self, kernel_file, capsys):
        assert main(["banks", kernel_file]) == 0
        assert "banks:" in capsys.readouterr().out

    def test_sanitize_banking_workload_clean(self, capsys):
        assert main(["exec", "--workload", "stride2-collider",
                     "--sanitize"]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out

    def test_sanitize_injected_unsound_banking_exits_one(self, capsys):
        assert main(["exec", "--workload", "stride2-collider", "--sanitize",
                     "--inject-unsound", "banking"]) == 1
        out = capsys.readouterr().out
        assert "bank-conflict violation" in out


class TestReuseCommand:
    def test_text_report_proven_pairs(self, capsys):
        assert main(["reuse", "--workload", "stencil-reuse-3"]) == 0
        out = capsys.readouterr().out
        assert "3 proven pair(s)" in out
        assert "distance 1" in out and "distance 2" in out
        assert "reuse:" in out

    def test_text_report_shows_degradation(self, capsys):
        assert main(["reuse", "--workload", "reuse-breaker"]) == 0
        out = capsys.readouterr().out
        assert "0 proven pair(s)" in out
        assert "may-alias" in out

    def test_forwarding_pair_reported(self, capsys):
        assert main(["reuse", "--workload", "fwd-store-load"]) == 0
        out = capsys.readouterr().out
        assert "forward" in out
        assert "distance 2" in out

    def test_json_report(self, capsys):
        import json

        assert main(["reuse", "--workload", "stencil-reuse-3",
                     "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["tool"] == "reuse"
        assert envelope["workload"] == "stencil-reuse-3"
        report = envelope["data"]
        assert report["summary"]["pairs_proven"] == 3
        groups = [g for f in report["functions"] for g in f["groups"]]
        assert any(
            p["status"] == "proven" and p["distance"] == 2
            for g in groups for p in g["pairs"]
        )

    def test_source_file_input(self, kernel_file, capsys):
        assert main(["reuse", kernel_file]) == 0
        assert "reuse:" in capsys.readouterr().out

    def test_sanitize_reuse_workloads_clean(self, capsys):
        for name in ("stencil-reuse-3", "fwd-store-load", "reuse-breaker"):
            assert main(["exec", "--workload", name, "--sanitize"]) == 0
            out = capsys.readouterr().out
            assert "0 violation(s)" in out

    def test_sanitize_injected_unsound_reuse_exits_one(self, capsys):
        assert main(["exec", "--workload", "stencil-reuse-3", "--sanitize",
                     "--inject-unsound", "reuse"]) == 1
        out = capsys.readouterr().out
        assert "reuse-address violation" in out


class TestJsonEnvelope:
    """The analysis commands share one JSON envelope so downstream
    tooling can dispatch on ``tool`` and pin ``estimator_version``."""

    CASES = [
        (["deps", "--workload", "seidel-1d", "--json"], "deps",
         "seidel-1d"),
        (["banks", "--workload", "stride2-collider", "--json"], "banks",
         "stride2-collider"),
        (["reuse", "--workload", "stencil-reuse-3", "--json"], "reuse",
         "stencil-reuse-3"),
        (["bitwidth", "--workload", "trisolv", "--json"], "bitwidth",
         "trisolv"),
    ]

    @pytest.mark.parametrize("argv,tool,workload", CASES)
    def test_envelope_shape(self, argv, tool, workload, capsys):
        import json

        from repro.model.estimator import ESTIMATOR_VERSION

        assert main(argv) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert list(envelope) == [
            "tool", "estimator_version", "workload", "data"
        ]
        assert envelope["tool"] == tool
        assert envelope["estimator_version"] == ESTIMATOR_VERSION
        assert envelope["workload"] == workload
        assert isinstance(envelope["data"], dict)
        # The payload is pure JSON: a dump/load round-trip is lossless.
        assert json.loads(json.dumps(envelope["data"])) == envelope["data"]


class TestProgramArgument:
    """Every subcommand that takes a program resolves a registered workload
    name given positionally, and turns a missing file or an unknown name
    into a one-line error with exit status 2."""

    COMMANDS = ["run", "emit-rtl", "lint", "exec", "deps", "banks", "reuse",
                "bitwidth", "trace", "dump"]

    @staticmethod
    def _exit_status(argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err
        assert err.startswith("error: ")
        return info.value.code

    @pytest.mark.parametrize("command", COMMANDS)
    def test_positional_workload_name_resolves(self, command):
        from repro.cli import _read_program
        from repro.workloads import get_workload

        args = build_parser().parse_args([command, "trisolv"])
        assert _read_program(args) == get_workload("trisolv").source

    @pytest.mark.parametrize("command", COMMANDS)
    def test_missing_file_exits_two(self, command, tmp_path, capsys):
        missing = str(tmp_path / "missing.c")
        assert self._exit_status([command, missing], capsys) == 2

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unknown_name_exits_two(self, command, capsys):
        assert self._exit_status([command, "no-such-workload"], capsys) == 2

    @pytest.mark.parametrize("command", COMMANDS)
    def test_syntax_error_exits_two(self, command, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int main( { return 0 }")
        assert self._exit_status([command, str(bad)], capsys) == 2

    @pytest.mark.parametrize("command", [c for c in COMMANDS if c != "dump"])
    def test_unknown_workload_option_exits_two(self, command, capsys):
        argv = [command, "--workload", "no-such-workload"]
        assert self._exit_status(argv, capsys) == 2

    def test_existing_file_wins_over_workload_name(self, tmp_path,
                                                   monkeypatch):
        from repro.cli import _read_program

        monkeypatch.chdir(tmp_path)
        (tmp_path / "trisolv").write_text("int main() { return 0; }")
        args = build_parser().parse_args(["dump", "trisolv"])
        assert _read_program(args) == "int main() { return 0; }"

    def test_trace_runs_a_positional_workload(self, capsys):
        assert main(["trace", "trisolv", "--no-lint"]) == 0
        assert "merging.solution" in capsys.readouterr().out


class TestEarlyErrors:
    """Bad workload names and unwritable output paths are one-line errors
    with exit status 2, raised before any flow runs."""

    @pytest.fixture(autouse=True)
    def no_flow(self, monkeypatch):
        from repro.framework import Cayman

        def run(*args, **kwargs):
            raise AssertionError("the flow ran before the input check")

        monkeypatch.setattr(Cayman, "run", run)

    @pytest.mark.parametrize("command", ["table2", "fig6"])
    def test_unknown_workload_exits_two(self, command, capsys):
        argv = [command, "trisolv", "nosuch"]
        assert TestProgramArgument._exit_status(argv, capsys) == 2

    def test_unknown_workload_message_matches_bench(self, capsys):
        with pytest.raises(SystemExit):
            main(["table2", "nosuch"])
        assert capsys.readouterr().err == (
            "error: unknown workload 'nosuch' (see `repro bench-list`)\n"
        )

    @pytest.mark.parametrize("option", [
        ["trace", "--jsonl"], ["trace", "--chrome"], ["emit-rtl", "-o"],
    ])
    def test_unwritable_output_exits_two(self, option, tmp_path, capsys):
        path = str(tmp_path / "no-dir" / "out")
        with pytest.raises(SystemExit) as info:
            main([option[0], "--workload", "trisolv", option[1], path])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {path!r}: ")
        assert len(err.splitlines()) == 1

    def test_writable_probe_leaves_no_file(self, tmp_path, capsys):
        path = tmp_path / "out.v"
        with pytest.raises(AssertionError, match="the flow ran"):
            main(["emit-rtl", "--workload", "trisolv", "-o", str(path)])
        assert not path.exists()


class TestBenchInput:
    """``repro bench`` checks its inputs before evaluating anything: a bad
    one is a one-line error with exit status 2 and writes no report."""

    @staticmethod
    def _exit_status(argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bench", "--no-cache", "--quiet",
                  "--output-dir", str(tmp_path), *argv])
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err
        assert err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []
        return info.value.code

    def test_unknown_workload_exits_two(self, tmp_path, capsys):
        argv = ["trisolv", "nosuch-wl"]
        assert self._exit_status(argv, tmp_path, capsys) == 2

    def test_empty_suite_exits_two(self, tmp_path, capsys):
        argv = ["--suite", "nosuch"]
        assert self._exit_status(argv, tmp_path, capsys) == 2

    def test_missing_compare_to_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "BENCH_missing.json")
        argv = ["trisolv", "--compare-to", missing]
        assert self._exit_status(argv, tmp_path, capsys) == 2

    def test_ablation_count_bounds_and_skips_the_sections(self, tmp_path):
        import json

        from repro.reporting.bench import ABLATION_SECTIONS

        def sections(count, tag):
            argv = ["bench", "trisolv", "bicg", "--no-cache", "--quiet",
                    "--no-interp-bench", "--output-dir", str(tmp_path),
                    "--tag", tag, "--ablation-count", str(count)]
            assert main(argv) == 0
            with open(tmp_path / f"BENCH_{tag}.json") as handle:
                report = json.load(handle)
            return {s: sorted(report[s]) for s in ABLATION_SECTIONS
                    if s in report}

        assert sections(1, "one") == dict.fromkeys(
            ABLATION_SECTIONS, ["trisolv"]
        )
        assert sections(0, "none") == {}
