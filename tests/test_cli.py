"""The command-line interface."""

import io

import pytest

from repro.batch import PAYLOAD_STAGE
from repro.cli import build_parser, main
from tests.conftest import L1_SOURCE, L2_SOURCE


@pytest.fixture
def l2_file(tmp_path):
    path = tmp_path / "l2.loop"
    path.write_text(L2_SOURCE)
    return str(path)


@pytest.fixture
def scalar_file(tmp_path):
    path = tmp_path / "scaled.loop"
    path.write_text("do s:\n  X[i] = Q * Y[i] + X[i-1]\n")
    return str(path)


def run(argv):
    out = io.StringIO()
    status = main(argv, out=out)
    return status, out.getvalue()


def profile_rows(text, title="Wall-clock profile: compiler stages"):
    """``(timer, calls)`` rows of one ``--profile`` table."""
    rows = []
    for line in text[text.index(title):].splitlines()[3:]:
        if not line.strip():
            break
        name, calls = line.split()[:2]
        rows.append((name, int(calls)))
    return rows


class TestSchedule:
    def test_basic(self, l2_file):
        status, text = run(["schedule", l2_file, "--abstract"])
        assert status == 0
        assert "II=3" in text
        assert "optimal rate 1/3" in text

    def test_with_stages(self, l2_file):
        status, text = run(["schedule", l2_file, "--abstract", "--stages", "2"])
        assert status == 0
        assert "clean pipeline" in text
        assert "utilisation" in text

    def test_scalars_bound(self, scalar_file):
        status, text = run(["schedule", scalar_file, "--scalar", "Q=2.5"])
        assert status == 0

    def test_missing_scalar_fails(self, scalar_file):
        status, _ = run(["schedule", scalar_file])
        assert status == 1

    def test_bad_scalar_syntax_fails(self, scalar_file):
        status, _ = run(["schedule", scalar_file, "--scalar", "Q"])
        assert status == 1

    def test_unroll_auto_reports_the_closed_rate(self, tmp_path):
        path = tmp_path / "interleave.loop"
        path.write_text(
            "do interleave:\n"
            "  A[i] = C[i-1] + IN[i]\n"
            "  B[i] = A[i-1] * 2\n"
            "  C[i] = B[i] + 1\n"
        )
        status, text = run(
            ["schedule", str(path), "--abstract", "--unroll", "auto"]
        )
        assert status == 0
        assert "unrolled x2" in text
        assert "per-instruction rate 2/3" in text
        assert "dependence bound 2/3" in text

    def test_unroll_zero_is_a_clean_error(self, l2_file, capsys):
        # 0 parses as an integer; the shared range validation rejects
        # it downstream with the usual diagnostic exit, not a traceback
        status, _ = run(["schedule", l2_file, "--abstract", "--unroll", "0"])
        assert status == 1
        assert "must be >= 1" in capsys.readouterr().err

    def test_unroll_garbage_is_a_clean_usage_error(self, l2_file):
        with pytest.raises(SystemExit) as err:
            run(["schedule", l2_file, "--abstract", "--unroll", "lots"])
        assert err.value.code == 2

    def test_missing_file(self):
        status, _ = run(["schedule", "/nonexistent/loop.txt"])
        assert status == 2


class TestAnalyze:
    def test_reports_classification_and_cycles(self, l2_file):
        status, text = run(["analyze", l2_file, "--abstract"])
        assert status == 0
        assert "loop-carried" in text
        assert "E -> C (carried, distance 1)" in text
        assert "cycle time     : 3" in text
        # the cycle may be reported starting from any of its nodes
        assert any(
            f"critical: {rotation}" in text
            for rotation in ("C -> D -> E", "D -> E -> C", "E -> C -> D")
        )

    def test_doall_classification(self, tmp_path):
        path = tmp_path / "l1.loop"
        path.write_text(L1_SOURCE)
        status, text = run(["analyze", str(path), "--abstract"])
        assert status == 0
        assert "DOALL" in text


class TestStorage:
    def test_reports_savings_and_balance(self, l2_file):
        status, text = run(["storage", l2_file, "--abstract"])
        assert status == 0
        assert "6 -> 4" in text
        assert "cycle time preserved at 3" in text
        assert "buffer balancing" in text


class TestDot:
    def test_dataflow_dot(self, l2_file):
        status, text = run(["dot", l2_file])
        assert status == 0
        assert text.startswith("digraph")
        assert "style=dashed" in text

    def test_net_dot(self, l2_file):
        status, text = run(["dot", l2_file, "--what", "net", "--abstract"])
        assert status == 0
        assert "shape=circle" in text


class TestTrace:
    def test_chrome_trace_written_and_valid(self, l2_file, tmp_path):
        import json

        target = tmp_path / "trace.json"
        status, text = run(
            ["trace", l2_file, "--abstract", "--format", "chrome",
             "-o", str(target)]
        )
        assert status == 0
        assert "perfetto" in text
        document = json.loads(target.read_text())
        slices = [
            e for e in document["traceEvents"]
            if e["ph"] == "X" and e.get("cat") == "firing"
        ]
        assert slices and all(e["dur"] >= 1 for e in slices)

    def test_jsonl_trace_written(self, l2_file, tmp_path):
        import json

        target = tmp_path / "trace.jsonl"
        status, text = run(
            ["trace", l2_file, "--abstract", "--format", "jsonl",
             "-o", str(target)]
        )
        assert status == 0
        lines = target.read_text().splitlines()
        assert any(
            json.loads(line)["event"] == "FrustumDetected" for line in lines
        )

    def test_default_output_path_derives_from_loop_file(self, l2_file):
        import os

        status, text = run(["trace", l2_file, "--abstract"])
        assert status == 0
        expected = f"{l2_file}.trace.json"
        assert expected in text
        assert os.path.exists(expected)

    def test_scp_trace_with_stages(self, l2_file, tmp_path):
        target = tmp_path / "scp.json"
        status, text = run(
            ["trace", l2_file, "--abstract", "--stages", "2",
             "-o", str(target)]
        )
        assert status == 0
        assert "SDSP-SCP-PN" in text
        assert target.exists()


class TestProfile:
    def test_schedule_profile_prints_phase_table(self, l2_file):
        status, text = run(["schedule", l2_file, "--abstract", "--profile"])
        assert status == 0
        assert "Wall-clock profile" in text
        assert "stage.simulate" in text
        assert "stage.parse" in text

    def test_analyze_profile_prints_phase_table(self, l2_file):
        status, text = run(["analyze", l2_file, "--abstract", "--profile"])
        assert status == 0
        assert "Wall-clock profile" in text

    def test_profile_flag_leaves_registry_disabled(self, l2_file):
        from repro.obs import default_registry

        status, _ = run(["schedule", l2_file, "--abstract", "--profile"])
        assert status == 0
        assert not default_registry().enabled

    def test_without_profile_no_table(self, l2_file):
        status, text = run(["schedule", l2_file, "--abstract"])
        assert status == 0
        assert "Wall-clock profile" not in text

    def test_profile_rows_sum_to_the_compile_total(self):
        import pathlib

        from repro.compiler import split_timers
        from repro.obs import default_registry

        loop = pathlib.Path(__file__).resolve().parents[1] / "examples/l2.loop"
        status, text = run(
            ["schedule", str(loop), "--unroll", "8", "--profile"]
        )
        assert status == 0
        assert profile_rows(text) == [
            (name, 1)
            for name in (
                "stage.parse", "stage.translate", "stage.rate_analysis",
                "stage.unroll", "stage.build_pn", "stage.simulate",
                "stage.extract_kernel", "stage.rate", "stage.verify",
                "stage.summarize", "compile.unattributed", "compile.total",
            )
        ]
        breakdown, library = split_timers(default_registry().dump()["timers"])
        *rows, total = (timer["total"] for timer in breakdown.values())
        assert sum(rows) == pytest.approx(total)
        # Howard and the bounds run inside the rate stage: listed apart
        apart = [name for name, _ in profile_rows(text, "Other timers")]
        assert {"core.optimal_rate", "core.theoretical_bounds"} <= set(apart)
        assert {"core.optimal_rate", "core.theoretical_bounds"} <= set(library)

    def test_every_entry_point_prints_the_same_stage_rows(
        self, l2_file, tmp_path
    ):
        import json

        manifest = tmp_path / "one.json"
        manifest.write_text(json.dumps([{"name": "l2", "file": l2_file}]))
        sweep = ["sweep", str(manifest), "--no-cache", "--no-progress",
                 "--profile", "--workers"]
        blocks = [
            profile_rows(run(argv)[1])
            for argv in (
                ["schedule", l2_file, "--profile"],
                ["compile", l2_file, "--no-cache", "--profile"],
                sweep + ["1"],
                sweep + ["2"],
            )
        ]
        assert blocks[0][-2:] == [
            ("compile.unattributed", 1), ("compile.total", 1)
        ]
        assert all(block == blocks[0] for block in blocks)

    def test_command_with_no_phases_prints_clear_notice(self, gate_dirs):
        # bench-check compiles nothing, so instead of an empty or
        # degenerate table the profile explains why there is no data
        results, baseline = gate_dirs
        status, text = run(
            ["bench-check", "--results", results, "--baseline", baseline,
             "--profile"]
        )
        assert status == 0
        assert "no timings were recorded" in text
        assert "Wall-clock profile" not in text


@pytest.fixture
def gate_dirs(tmp_path):
    """A results directory and matching baseline file for bench-check."""
    from repro.obs import make_run_record, stable_json

    record = make_run_record(
        kind="bench", name="fig_x", payload={"cycle_time": 2}
    )
    results = tmp_path / "results"
    results.mkdir()
    (results / "fig_x.json").write_text(stable_json(record, indent=2))
    baseline = tmp_path / "baseline.jsonl"
    baseline.write_text(stable_json(record) + "\n")
    return str(results), str(baseline)


class TestBenchCheck:
    def test_clean_results_exit_zero(self, gate_dirs):
        results, baseline = gate_dirs
        status, text = run(
            ["bench-check", "--results", results, "--baseline", baseline]
        )
        assert status == 0
        assert "OK: current results match the baseline" in text

    def test_perturbed_cycle_time_exits_nonzero(self, gate_dirs, tmp_path):
        import json

        results, baseline = gate_dirs
        path = tmp_path / "results" / "fig_x.json"
        record = json.loads(path.read_text())
        record["payload"]["cycle_time"] = 3
        path.write_text(json.dumps(record))
        status, text = run(
            ["bench-check", "--results", results, "--baseline", baseline]
        )
        assert status == 1
        assert "cycle_time" in text and "HARD" in text

    def test_wall_clock_soft_fails_only_with_wall_hard(self, tmp_path):
        from repro.obs import make_run_record, stable_json

        def rec(seconds):
            return make_run_record(
                kind="bench",
                name="b",
                payload={"v": 1},
                phase_wall_clock={"phase.x": {"total": seconds}},
            )

        results = tmp_path / "results"
        results.mkdir()
        (results / "b.json").write_text(stable_json(rec(10.0), indent=2))
        baseline = tmp_path / "baseline.jsonl"
        baseline.write_text(stable_json(rec(1.0)) + "\n")
        argv = ["bench-check", "--results", str(results),
                "--baseline", str(baseline)]
        status, text = run(argv)
        assert status == 0 and "SOFT" in text
        status, _ = run(argv + ["--wall-hard"])
        assert status == 1

    def test_update_baseline_writes_jsonl(self, gate_dirs, tmp_path):
        results, _ = gate_dirs
        new_baseline = tmp_path / "fresh" / "baseline.jsonl"
        status, text = run(
            ["bench-check", "--results", results,
             "--baseline", str(new_baseline), "--update-baseline"]
        )
        assert status == 0
        assert "wrote 1 baseline record(s)" in text
        status, _ = run(
            ["bench-check", "--results", results,
             "--baseline", str(new_baseline)]
        )
        assert status == 0

    def test_missing_baseline_is_an_error(self, gate_dirs, tmp_path):
        results, _ = gate_dirs
        status, _ = run(
            ["bench-check", "--results", results,
             "--baseline", str(tmp_path / "none.jsonl")]
        )
        assert status == 1


class TestDash:
    def test_writes_self_contained_html(self, l2_file, tmp_path):
        output = tmp_path / "dash.html"
        status, text = run(
            ["dash", l2_file, "--abstract", "-o", str(output)]
        )
        assert status == 0
        assert "3 bottleneck transition(s) on C*: C, D, E" in text
        html = output.read_text()
        assert html.startswith("<!DOCTYPE html>")
        for needle in ("http://", "https://", "src=", "<script"):
            assert needle not in html

    def test_zero_slack_marks_exactly_the_critical_transitions(
        self, l2_file, tmp_path
    ):
        output = tmp_path / "dash.html"
        status, _ = run(["dash", l2_file, "--abstract", "-o", str(output)])
        assert status == 0
        html = output.read_text()
        assert html.count("0 (critical)") == 3  # C, D, E and nothing else

    def test_default_output_path(self, l2_file):
        status, text = run(["dash", l2_file, "--abstract"])
        assert status == 0
        assert f"{l2_file}.dash.html" in text

    def test_history_feeds_trend_charts(self, l2_file, tmp_path):
        # two ledger runs for the same loop unlock the trend section
        for _ in range(2):
            status, _ = run(
                ["schedule", l2_file, "--abstract",
                 "--ledger", str(tmp_path / "ledger")]
            )
            assert status == 0
        output = tmp_path / "dash.html"
        status, text = run(
            ["dash", l2_file, "--abstract", "-o", str(output),
             "--history", str(tmp_path / "ledger" / "runs.jsonl")]
        )
        assert status == 0
        assert "2 ledger run(s) in trend history" in text
        assert "Cycle time across commits" in output.read_text()

    def test_missing_history_renders_placeholder(self, l2_file, tmp_path):
        output = tmp_path / "dash.html"
        status, text = run(
            ["dash", l2_file, "--abstract", "-o", str(output),
             "--history", str(tmp_path / "nowhere" / "runs.jsonl")]
        )
        assert status == 0
        assert "0 ledger run(s) in trend history" in text
        assert "Not enough ledger history" in output.read_text()

    def test_empty_history_renders_placeholder(self, l2_file, tmp_path):
        ledger = tmp_path / "runs.jsonl"
        ledger.write_text("")
        output = tmp_path / "dash.html"
        status, text = run(
            ["dash", l2_file, "--abstract", "-o", str(output),
             "--history", str(ledger)]
        )
        assert status == 0
        assert "0 ledger run(s) in trend history" in text
        assert "Not enough ledger history" in output.read_text()

    def test_corrupt_history_degrades_to_placeholder(self, l2_file, tmp_path):
        ledger = tmp_path / "runs.jsonl"
        ledger.write_text("this is not json\n")
        output = tmp_path / "dash.html"
        status, text = run(
            ["dash", l2_file, "--abstract", "-o", str(output),
             "--history", str(ledger)]
        )
        assert status == 0
        assert "ignoring unreadable ledger history" in text
        assert "Not enough ledger history" in output.read_text()


class TestEngineFlag:
    def test_engines_print_identical_schedules(self, l2_file):
        status_e, text_e = run(
            ["schedule", l2_file, "--abstract", "--engine", "event"]
        )
        status_s, text_s = run(
            ["schedule", l2_file, "--abstract", "--engine", "step"]
        )
        assert status_e == status_s == 0
        assert text_e == text_s

    def test_trace_accepts_engine(self, l2_file, tmp_path):
        target = tmp_path / "trace.jsonl"
        status, text = run(
            ["trace", l2_file, "--abstract", "--format", "jsonl",
             "--engine", "step", "-o", str(target)]
        )
        assert status == 0
        assert target.exists()

    def test_ledger_records_the_engine(self, l2_file, tmp_path):
        from repro.obs import load_records

        ledger = tmp_path / "ledger"
        for engine in ("event", "step"):
            status, _ = run(
                ["schedule", l2_file, "--abstract",
                 "--engine", engine, "--ledger", str(ledger)]
            )
            assert status == 0
        first, second = load_records(ledger / "runs.jsonl")
        assert first["payload"]["engine"] == "event"
        assert second["payload"]["engine"] == "step"
        # engine choice must not change any scheduling fact
        volatile = {"engine"}
        assert {
            k: v for k, v in first["payload"].items() if k not in volatile
        } == {
            k: v for k, v in second["payload"].items() if k not in volatile
        }


class TestLedgerFlag:
    def test_schedule_appends_normalized_record(self, l2_file, tmp_path):
        from repro.obs import load_records

        ledger = tmp_path / "ledger"
        status, text = run(
            ["schedule", l2_file, "--abstract", "--ledger", str(ledger)]
        )
        assert status == 0
        assert "appended run record" in text
        (record,) = load_records(ledger / "runs.jsonl")
        assert record["kind"] == "cli"
        assert record["name"] == "schedule:L2"
        assert record["payload"]["cycle_time"] == 3
        assert record["payload"]["frustum_length"] == 3
        assert "stage.simulate" in (
            record["timing"]["phase_wall_clock"]
        )

    def test_ledger_is_append_only(self, l2_file, tmp_path):
        from repro.obs import load_records

        ledger = tmp_path / "ledger"
        for argv in (
            ["schedule", l2_file, "--abstract", "--ledger", str(ledger)],
            ["analyze", l2_file, "--abstract", "--ledger", str(ledger)],
        ):
            status, _ = run(argv)
            assert status == 0
        names = [r["name"] for r in load_records(ledger / "runs.jsonl")]
        assert names == ["schedule:L2", "analyze:L2"]

    def test_schedule_and_compile_record_the_same_payload(
        self, l2_file, tmp_path
    ):
        """Both read their ledger facts from the compile payload, so
        ``schedule`` and a cold or warm ``compile`` record one payload;
        the warm hit shows only among the volatile counters."""
        from repro.obs import load_records

        ledger, cache = str(tmp_path / "ledger"), str(tmp_path / "cache")
        for argv in (
            ["schedule", l2_file, "--abstract"],
            ["compile", l2_file, "--abstract", "--cache-dir", cache],
            ["compile", l2_file, "--abstract", "--cache-dir", cache],
        ):
            status, _ = run(argv + ["--ledger", ledger])
            assert status == 0
        schedule, cold, warm = load_records(
            tmp_path / "ledger" / "runs.jsonl"
        )
        assert schedule["payload"] == cold["payload"] == warm["payload"]
        assert cold["timing"]["metrics"]["stage.cache.miss.summarize"] == 1
        assert warm["timing"]["metrics"]["stage.cache.hit.summarize"] == 1

    def test_ledger_flag_leaves_registry_disabled(self, l2_file, tmp_path):
        from repro.obs import default_registry

        status, _ = run(
            ["schedule", l2_file, "--abstract",
             "--ledger", str(tmp_path / "led")]
        )
        assert status == 0
        assert not default_registry().enabled

    def test_no_ledger_no_append(self, l2_file, tmp_path):
        status, text = run(["schedule", l2_file, "--abstract"])
        assert status == 0
        assert "appended run record" not in text


class TestSweep:
    @pytest.fixture
    def manifest(self, tmp_path):
        import json

        path = tmp_path / "sweep.json"
        path.write_text(
            json.dumps(
                {
                    "items": [
                        {
                            "name": "l1",
                            "source": L1_SOURCE,
                            "include_io": False,
                        },
                        {
                            "name": "l2",
                            "source": L2_SOURCE,
                            "include_io": False,
                        },
                    ]
                }
            )
        )
        return str(path)

    def test_sweep_compiles_and_reports(self, manifest):
        status, text = run(["sweep", manifest, "--no-cache"])
        assert status == 0
        assert "l1" in text and "l2" in text
        assert "2 item(s), 0 error(s)" in text
        assert "cache off" in text

    def test_output_identical_across_workers_and_cache_state(
        self, manifest, tmp_path
    ):
        cache = tmp_path / "cache"
        outputs = []
        for index, argv in enumerate(
            [
                ["sweep", manifest, "--no-cache", "--workers", "1"],
                ["sweep", manifest, "--cache-dir", str(cache)],
                ["sweep", manifest, "--cache-dir", str(cache)],
                ["sweep", manifest, "--no-cache", "--workers", "2"],
            ]
        ):
            out = tmp_path / f"merged-{index}.json"
            status, _ = run(argv + ["-o", str(out)])
            assert status == 0
            outputs.append(out.read_bytes())
        assert len(set(outputs)) == 1

    def test_require_hits_fails_cold_passes_warm(self, manifest, tmp_path):
        cache = tmp_path / "cache"
        status, _ = run(
            ["sweep", manifest, "--cache-dir", str(cache), "--require-hits"]
        )
        assert status == 1  # cold: nothing was served from the cache
        status, text = run(
            ["sweep", manifest, "--cache-dir", str(cache), "--require-hits"]
        )
        assert status == 0  # warm: 100% hit rate
        assert "2 hit(s), 0 miss(es)" in text

    def test_item_error_is_isolated_and_reported(self, manifest, tmp_path):
        import json

        path = tmp_path / "broken.json"
        path.write_text(
            json.dumps(
                [
                    {"name": "ok", "source": L1_SOURCE, "include_io": False},
                    {"name": "broken", "source": "not a loop"},
                ]
            )
        )
        out = tmp_path / "merged.json"
        status, text = run(["sweep", str(path), "-o", str(out)])
        assert status == 1  # some item failed
        assert "ERROR" in text and "LoopIRError" in text
        merged = json.loads(out.read_text())
        assert merged["n_errors"] == 1
        assert merged["items"][0]["status"] == "ok"
        assert merged["items"][1]["status"] == "error"
        assert merged["items"][1]["error"]["type"] == "LoopIRError"

    def test_ledger_gets_a_sweep_record_with_cache_counters(
        self, manifest, tmp_path
    ):
        from repro.obs import load_records

        ledger = tmp_path / "ledger"
        cache = tmp_path / "cache"
        for _ in range(2):  # cold then warm
            status, text = run(
                [
                    "sweep",
                    manifest,
                    "--cache-dir",
                    str(cache),
                    "--ledger",
                    str(ledger),
                ]
            )
            assert status == 0
        cold, warm = load_records(ledger / "runs.jsonl")
        assert cold["kind"] == warm["kind"] == "sweep"
        assert cold["name"] == "sweep:sweep"
        # stable payloads agree; the volatile cache counters differ
        assert cold["payload"] == warm["payload"]
        assert cold["timing"]["metrics"]["cache"]["miss"] == 2
        assert warm["timing"]["metrics"]["cache"]["hit"] == 2

    def test_repro_cache_env_toggle_is_shared(
        self, manifest, tmp_path, monkeypatch
    ):
        cache = tmp_path / "envcache"
        monkeypatch.setenv("REPRO_CACHE", str(cache))
        status, text = run(["sweep", manifest])
        assert status == 0
        assert "miss(es)" in text
        assert any((cache / PAYLOAD_STAGE).glob("*.json"))
        # falsy spellings must NOT create a directory named "0"
        monkeypatch.setenv("REPRO_CACHE", "0")
        status, text = run(["sweep", manifest])
        assert status == 0
        assert "cache off" in text
        assert not (pathlib_cwd() / "0").exists()

    def test_missing_manifest_errors(self, tmp_path):
        status, _ = run(["sweep", str(tmp_path / "nope.json")])
        assert status == 1

    def test_bad_worker_count_errors(self, manifest):
        status, _ = run(["sweep", manifest, "--workers", "0"])
        assert status == 1

    def test_trace_writes_lint_clean_merged_trace(self, manifest, tmp_path):
        import json
        import sys

        sys.path.insert(0, "tools")
        try:
            from trace_lint import lint_trace
        finally:
            sys.path.remove("tools")

        trace = tmp_path / "sweep.trace.json"
        status, text = run(
            [
                "sweep",
                manifest,
                "--no-cache",
                "--workers",
                "2",
                "--no-progress",
                "--trace",
                str(trace),
            ]
        )
        assert status == 0
        assert "wrote merged trace" in text
        assert "critical path:" in text
        assert "stage percentiles" in text
        assert lint_trace(trace, require_lanes=2, strict=True) == []
        document = json.loads(trace.read_text())
        lanes = document["otherData"]["lanes"]
        assert lanes["0"] == "parent"
        workers = [n for n in lanes.values() if n.startswith("worker-")]
        assert len(workers) == 2

    def test_serial_trace_has_parent_lane_only(self, manifest, tmp_path):
        import json

        trace = tmp_path / "serial.trace.json"
        status, _ = run(
            ["sweep", manifest, "--no-cache", "--no-progress",
             "--trace", str(trace)]
        )
        assert status == 0
        document = json.loads(trace.read_text())
        assert document["otherData"]["lanes"] == {"0": "parent"}
        items = [
            e for e in document["traceEvents"]
            if e.get("cat") == "span" and e["name"].startswith("item:")
        ]
        assert len(items) == 2

    def test_metrics_out_is_valid_openmetrics(self, manifest, tmp_path):
        from repro.obs import parse_exposition

        target = tmp_path / "metrics.txt"
        status, text = run(
            ["sweep", manifest, "--no-cache", "--metrics-out", str(target)]
        )
        assert status == 0
        assert "wrote OpenMetrics exposition" in text
        families = parse_exposition(target.read_text())
        assert "batch_sweep_items" in families

    def test_ledger_record_carries_span_summary(self, manifest, tmp_path):
        from repro.obs import load_records

        ledger = tmp_path / "ledger"
        status, _ = run(["sweep", manifest, "--ledger", str(ledger)])
        assert status == 0
        record = load_records(ledger / "runs.jsonl")[-1]
        spans = record["timing"]["spans"]
        assert spans["n_items"] == 2
        assert spans["critical_path"]["items"]
        assert "payload" not in spans  # volatile section only

    def test_require_hits_lists_only_ok_misses(self, tmp_path):
        import json

        path = tmp_path / "mixed.json"
        path.write_text(
            json.dumps(
                [
                    {"name": "ok", "source": L1_SOURCE, "include_io": False},
                    {"name": "broken", "source": "not a loop"},
                ]
            )
        )
        cache = tmp_path / "cache"
        run(["sweep", str(path), "--cache-dir", str(cache)])  # warm ok item
        status, _ = run(
            ["sweep", str(path), "--cache-dir", str(cache), "--require-hits"]
        )
        # the ok item hits; only the error keeps the exit non-zero, not
        # an unsatisfiable --require-hits over the never-cached failure
        assert status == 1


class TestMetricsCommand:
    def _ledger_with_sweep(self, tmp_path):
        import json

        manifest = tmp_path / "m.json"
        manifest.write_text(
            json.dumps(
                [{"name": "l1", "source": L1_SOURCE, "include_io": False}]
            )
        )
        ledger = tmp_path / "ledger"
        status, _ = run(
            ["sweep", str(manifest), "--no-cache", "--ledger", str(ledger)]
        )
        assert status == 0
        return ledger / "runs.jsonl"

    def test_renders_latest_record(self, tmp_path):
        from repro.obs import parse_exposition

        runs = self._ledger_with_sweep(tmp_path)
        status, text = run(["metrics", "--from-ledger", str(runs)])
        assert status == 0
        families = parse_exposition(text)
        assert "sweep_total_seconds" in families

    def test_name_filter_and_output_file(self, tmp_path):
        from repro.obs import parse_exposition

        runs = self._ledger_with_sweep(tmp_path)
        target = tmp_path / "exposition.txt"
        status, text = run(
            [
                "metrics",
                "--from-ledger",
                str(runs),
                "--name",
                "sweep:m",
                "-o",
                str(target),
            ]
        )
        assert status == 0
        assert "wrote OpenMetrics exposition" in text
        parse_exposition(target.read_text())

    def test_unknown_name_errors(self, tmp_path):
        runs = self._ledger_with_sweep(tmp_path)
        status, _ = run(
            ["metrics", "--from-ledger", str(runs), "--name", "nope"]
        )
        assert status == 1

    def test_missing_ledger_errors(self, tmp_path):
        status, _ = run(
            ["metrics", "--from-ledger", str(tmp_path / "none.jsonl")]
        )
        assert status == 1


def pathlib_cwd():
    import pathlib

    return pathlib.Path.cwd()


class TestExplain:
    def test_text_report_names_the_critical_path(self, l2_file):
        status, text = run(["explain", l2_file, "--abstract"])
        assert status == 0
        assert "observed critical path : C -> D -> E" in text
        assert "matches the Howard witness C*" in text
        assert "wait states per transition" in text
        assert "blame chain" in text

    def test_json_report(self, l2_file):
        import json

        status, text = run(["explain", l2_file, "--abstract", "--json"])
        assert status == 0
        payload = json.loads(text)
        assert payload["schema_version"] == 1
        assert payload["observed"]["transitions"] == ["C", "D", "E"]
        assert payload["matches_howard"] is True
        waits = payload["wait_states"]
        for profile in waits.values():
            total = (
                profile["executing"]
                + profile["idle"]
                + sum(profile["waits"].values())
            )
            assert total == payload["horizon"]

    def test_flow_trace_is_lint_clean(self, l2_file, tmp_path):
        import json
        import sys

        sys.path.insert(0, "tools")
        try:
            from trace_lint import lint_trace
        finally:
            sys.path.remove("tools")

        trace = tmp_path / "flow.json"
        status, text = run(
            ["explain", l2_file, "--abstract", "--trace", str(trace)]
        )
        assert status == 0
        assert "wrote flow trace" in text
        assert lint_trace(trace, strict=True) == []
        document = json.loads(trace.read_text())
        phases = {e["ph"] for e in document["traceEvents"]}
        assert {"X", "s", "f"} <= phases
        assert document["otherData"]["flows"] > 0

    def test_metrics_out_round_trips(self, l2_file, tmp_path):
        from repro.obs import parse_exposition, parse_labels

        metrics = tmp_path / "explain.om"
        status, _ = run(
            ["explain", l2_file, "--abstract", "--metrics-out", str(metrics)]
        )
        assert status == 0
        families = parse_exposition(metrics.read_text())
        samples = families["repro_explain_wait_cycles"]["samples"]
        transitions = {
            parse_labels(labels)["transition"]
            for (_name, labels, _value) in samples
        }
        assert {"A", "B", "C", "D", "E"} <= transitions

    def test_ledger_record_carries_blame_summary(self, l2_file, tmp_path):
        from repro.obs.ledger import load_records

        ledger = tmp_path / "ledger"
        status, text = run(
            ["explain", l2_file, "--abstract", "--ledger", str(ledger)]
        )
        assert status == 0
        assert "appended run record" in text
        (record,) = load_records(ledger / "runs.jsonl")
        blame = record["timing"]["blame"]
        assert blame["schema_version"] == 1
        assert blame["observed_cycle"]["transitions"] == ["C", "D", "E"]

    def test_scp_mode_reports_the_resource_bound(self, l2_file):
        status, text = run(
            ["explain", l2_file, "--abstract", "--stages", "4"]
        )
        assert status == 0
        assert "SDSP-SCP-PN (l=4)" in text
        assert "SCP resource bound" in text

    def test_bad_periods_rejected(self, l2_file):
        status, _ = run(["explain", l2_file, "--abstract", "--periods", "0"])
        assert status == 1


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_module_entry_point_importable(self):
        import repro.__main__  # noqa: F401
