"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main

DEMO = """
#pragma acc kernels
void demo(float *a, const float *b, int n) {
  int i;
  #pragma acc loop independent
  for (i = 0; i < n; i++) {
    a[i] = b[i] * 2.0f;
  }
}
"""


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.c"
    path.write_text(DEMO)
    return str(path)


class TestCompile:
    def test_caps(self, demo_file, capsys):
        assert main(["compile", demo_file]) == 0
        out = capsys.readouterr().out
        assert "CAPS -> cuda" in out and "gridify 1D" in out

    def test_pgi_with_ptx(self, demo_file, capsys):
        assert main(["compile", demo_file, "--compiler", "pgi", "--ptx"]) == 0
        out = capsys.readouterr().out
        assert ".visible .entry demo(" in out


class TestAnalyze:
    def test_reports_verdicts(self, demo_file, capsys):
        assert main(["analyze", demo_file]) == 0
        out = capsys.readouterr().out
        assert "loop over 'i': independent" in out


class TestBadSource:
    """Mini-C that does not lex or parse is a one-line usage error (exit
    2) from a real ``python -m repro`` process, never a traceback."""

    @pytest.mark.parametrize("command", ["compile", "analyze"])
    @pytest.mark.parametrize("line, where", [
        ("    a[i] = 1.0f @ 2;", "line 7, col 17"),
        ("    a[i] = $n;", "line 7, col 12"),
    ], ids=["at-sign", "dollar"])
    def test_exits_2_naming_the_position(self, command, line, where,
                                         tmp_path):
        path = tmp_path / "bad.c"
        path.write_text(DEMO.replace("    a[i] = b[i] * 2.0f;", line))
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", command, str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("repro: bad source: ")
        assert where in proc.stderr


class TestExperiment:
    def test_single(self, capsys):
        assert main(["experiment", "table2"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_unknown_id(self, capsys):
        assert main(["experiment", "fig99"]) == 2

    def test_multiple(self, capsys):
        assert main(["experiment", "table1", "table3"]) == 0


class TestBenchAndTools:
    def test_bench_bfs(self, capsys):
        assert main(["bench", "bfs", "--size", "16384"]) == 0
        out = capsys.readouterr().out
        assert "indep" in out and "dataregion" in out

    def test_heatmap(self, capsys):
        assert main(["heatmap", "--size", "512"]) == 0
        assert "best:" in capsys.readouterr().out

    def test_autotune(self, capsys):
        assert main(["autotune", "--size", "512"]) == 0
        out = capsys.readouterr().out
        assert "exhaustive" in out and "portable" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestResilienceFlags:
    def test_heatmap_with_faults_heals_and_reports(self, capsys):
        assert main(["heatmap", "--size", "512",
                     "--faults", "transient:p=0.3,seed=11",
                     "--retries", "3"]) == 0
        out = capsys.readouterr().out
        assert "best:" in out
        assert "resilience:" in out and "0 errors" in out

    def test_faulted_heatmap_output_matches_clean(self, capsys):
        assert main(["heatmap", "--size", "512"]) == 0
        clean = capsys.readouterr().out
        assert main(["heatmap", "--size", "512",
                     "--faults", "transient:p=0.3,seed=11"]) == 0
        faulted = capsys.readouterr().out
        # the heat map itself is byte-identical; only the appended
        # service-stats section differs
        assert faulted.startswith(clean.split("\n-- compile service --")[0]
                                  .rstrip("\n"))

    def test_unhealable_sweep_exits_1_cleanly(self, capsys):
        """A fault plan no retry budget can beat (p=1) must exit 1 with
        a one-line error, not a traceback."""
        assert main(["heatmap", "--size", "512",
                     "--faults", "transient:p=1.0",
                     "--retries", "2"]) == 1
        err = capsys.readouterr().err
        assert "sweep failed after retries" in err
        assert "Traceback" not in err

    def test_bad_fault_spec_exits_2(self, capsys):
        assert main(["heatmap", "--size", "512",
                     "--faults", "warp-drive:p=0.5"]) == 2
        assert "bad --faults spec" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        "slow:p=0.1", "transient:p=0.0;transient:p=1.0",
        "transient:p=0.3,p=0.5",
    ])
    def test_dropped_or_removed_clause_exits_2(self, spec, capsys):
        assert main(["heatmap", "--size", "64", "--faults", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: bad --faults spec:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_faulted_heatmap_numbers_are_pinned(self, jobs, tmp_path,
                                                capsys):
        """Fault decisions are counter hashes of (seed, fingerprint,
        attempt): the same plan injects the same faults, cold and warm,
        at any --jobs."""
        import hashlib

        from repro.telemetry import reset_registry

        argv = ["heatmap", "--size", "256", "--jobs", jobs,
                "--faults", "transient:p=0.3,seed=11;cache:p=0.1",
                "--retries", "3", "--cache-dir", str(tmp_path)]
        expected = [
            ("requests 72: 0 cache hits, 0 dedup hits, 72 compiles "
             "(0 errors)",
             "resilience: 42 faults injected (13 cache I/O), 29 retries",
             "cache: 0 memory hits, 0 disk hits, 66 misses, 0 evictions "
             "(65 resident entries)"),
            ("requests 72: 60 cache hits, 0 dedup hits, 12 compiles "
             "(0 errors)",
             "resilience: 20 faults injected (13 cache I/O), 7 retries",
             "cache: 0 memory hits, 60 disk hits, 6 misses, 0 evictions "
             "(65 resident entries)"),
        ]
        for counts in expected:
            reset_registry()
            assert main(argv) == 0
            grid, stats = capsys.readouterr().out.split(
                "-- compile service --")
            assert hashlib.sha256(grid.encode()).hexdigest().startswith(
                "8990cde9ba58dfe4")
            lines = stats.strip().splitlines()
            assert (lines[0], lines[2], lines[3]) == counts
        reset_registry()

    def test_negative_retries_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["heatmap", "--size", "256", "--retries", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --retries: expected a non-negative integer" in err
        assert "Traceback" not in err

    def test_difftest_rerun_on_cache_dir_compiles_nothing(self, tmp_path,
                                                           capsys):
        """Rerunning a sweep on the same --cache-dir is how a killed
        sweep resumes: finished points (refusals included) come back
        from the store."""
        from repro.telemetry import get_registry, reset_registry

        argv = ["difftest", "--seeds", "2", "--cache-dir", str(tmp_path)]
        outputs, compiles = [], []
        for _ in range(2):
            reset_registry()
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
            compiles.append(get_registry().counter("service.compiles").value)
        reset_registry()
        assert compiles == [8, 0]  # 2 cases x 4 pairs, then all from disk
        assert outputs[0].split("\n-- compile service --")[0] == \
            outputs[1].split("\n-- compile service --")[0]


class TestFlagBounds:
    """Count and size flags reject a value below their minimum, --port
    one outside 0..65535, and the quota flags one that is not a positive
    finite number, as a usage error (exit 2) before the command runs."""

    @pytest.mark.parametrize("argv", [
        ["heatmap", "--jobs", "0"],
        ["heatmap", "--jobs", "-3"],
        ["heatmap", "--size", "0"],
        ["heatmap", "--size", "-5"],
        ["compile", "demo.c", "--size", "0"],
        ["bench", "lud", "--size", "0"],
        ["matrix", "--size", "0"],
        ["autotune", "--size", "0"],
        ["exec-sweep", "--size", "0"],
        ["exec-sweep", "--size", "1"],
        ["exec-sweep", "--repeats", "-1"],
        ["difftest", "--seeds", "-2"],
        ["difftest", "--start", "-1"],
        ["serve", "--self-test", "--clients", "0"],
        ["serve", "--self-test", "--points", "0"],
        ["serve", "--self-test", "--queue-depth", "0"],
        ["client", "--spawn", "sweep", "--points", "0"],
        ["telemetry", "trace.jsonl", "--limit", "0"],
        ["serve", "--port", "0", "--shards", "0"],
        ["serve", "--self-test", "--shards", "-2"],
    ])
    def test_below_minimum_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "expected a" in err and "integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["serve", "--port", "-1"],
        ["serve", "--port", "70000"],
        ["client", "--port", "65536", "status"],
        ["client", "--port", "-1", "status"],
    ])
    def test_port_out_of_range_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --port: expected an integer in 0..65535" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["serve", "--port", "0", "--quota-rate", "-1"],
        ["serve", "--port", "0", "--quota-rate", "0"],
        ["serve", "--port", "0", "--quota-burst", "0"],
        ["serve", "--port", "0", "--quota-burst", "-0.5"],
        ["serve", "--port", "0", "--quota-rate", "inf"],
        ["serve", "--port", "0", "--quota-burst", "nan"],
    ])
    def test_quota_not_positive_finite_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "expected a positive finite number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, dest, value", [
        (["exec-sweep", "--size", "2"], "size", 2),
        (["heatmap", "--jobs", "1"], "jobs", 1),
        (["heatmap", "--retries", "0"], "retries", 0),
        (["difftest", "--start", "0"], "start", 0),
        (["serve", "--port", "0"], "port", 0),
        (["client", "--port", "65535", "status"], "port", 65535),
        (["serve", "--shards", "1"], "shards", 1),
        (["serve", "--quota-rate", "1e9"], "quota_rate", 1e9),
        (["serve", "--quota-burst", "0.5"], "quota_burst", 0.5),
    ])
    def test_minimum_is_accepted(self, argv, dest, value):
        assert getattr(build_parser().parse_args(argv), dest) == value

    def test_non_integer_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["heatmap", "--jobs", "two"])
        assert exc.value.code == 2
        assert "invalid int value: 'two'" in capsys.readouterr().err

    def test_non_number_quota_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--quota-rate", "fast"])
        assert exc.value.code == 2
        assert "invalid float value: 'fast'" in capsys.readouterr().err


class TestExecBackendScope:
    def test_exec_backend_does_not_outlive_the_command(self, capsys):
        from repro.runtime import executor

        before = executor._default_backend
        assert main(["difftest", "--seeds", "1",
                     "--exec-backend", "check"]) == 0
        assert executor._default_backend == before


class TestTelemetryCli:
    def test_trace_into_missing_directory_exits_2_before_running(
            self, tmp_path, capsys):
        path = tmp_path / "absent" / "t.jsonl"
        assert main(["heatmap", "--size", "64", "--trace", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # the sweep never ran
        assert captured.err.startswith("repro: bad --trace:")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_missing_trace_exits_2(self, tmp_path, capsys):
        assert main(["telemetry", str(tmp_path / "absent.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: bad trace: cannot read")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("text, message", [
        ('{"type": "metrics", "snapshot": {}}\nnot json\n', ":2: not JSON"),
        ('{"type": "metrics", "snapshot": {}}\n[1]\n',
         ":2: not a JSON object"),
        ('{"traceEvents": [\n', ": not JSON"),
        ('{"type": "span", "name": "x"}\n', ": not a trace (KeyError"),
        ('{"traceEvents": [1]}\n', ": not a trace (AttributeError"),
    ])
    def test_undecodable_trace_exits_2(self, tmp_path, capsys, text,
                                       message):
        path = tmp_path / "trace.jsonl"
        path.write_text(text)
        assert main(["telemetry", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro: bad trace: {path}{message}")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestServerCli:
    def test_unwritable_cache_dir_exits_2(self, tmp_path, capsys):
        occupied = tmp_path / "occupied"
        occupied.write_text("a file, not a directory")
        # the same convention as a bad --faults spec: usage error, exit 2,
        # one clean line on stderr — never a traceback
        code = main(["heatmap", "--cache-dir", str(occupied / "sub")])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad --cache-dir" in err
        assert "Traceback" not in err

    def test_unwritable_cache_dir_exits_2_for_serve(self, tmp_path, capsys):
        occupied = tmp_path / "occupied"
        occupied.write_text("a file")
        code = main(["serve", "--self-test", "--points", "1",
                     "--cache-dir", str(occupied / "sub")])
        assert code == 2
        assert "bad --cache-dir" in capsys.readouterr().err

    def test_serve_self_test_passes(self, capsys):
        code = main(["serve", "--self-test", "--clients", "2",
                     "--points", "4", "--jobs", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "server self-test: PASS" in out
        assert "byte-identical=yes" in out
        assert "rejected with 429" in out

    def test_client_spawn_compile(self, demo_file, capsys):
        assert main(["client", "--spawn", "compile", demo_file]) == 0
        out = capsys.readouterr().out
        assert "CAPS -> cuda (via daemon)" in out

    def test_client_spawn_sweep(self, capsys):
        assert main(["client", "--spawn", "sweep", "--points", "3"]) == 0
        out = capsys.readouterr().out
        assert "sweep: 3 points, 0 failed" in out
        assert "result digest" in out

    def test_client_spawn_status(self, capsys):
        assert main(["client", "--spawn", "status"]) == 0
        out = capsys.readouterr().out
        assert '"draining": false' in out

    def test_client_connection_refused_is_a_clean_error(self, capsys):
        from repro.server.daemon import free_port

        code = main(["client", "--port", str(free_port()), "status"])
        assert code == 1
        err = capsys.readouterr().err
        assert "cannot reach server" in err
        assert "Traceback" not in err


class TestExecSweep:
    @pytest.fixture(autouse=True)
    def _clean(self):
        from repro.runtime.executor import clear_kernel_cache
        from repro.telemetry import reset_registry

        clear_kernel_cache()
        reset_registry()
        yield
        clear_kernel_cache()
        reset_registry()

    def test_digest_stable_across_runs(self, capsys):
        import json

        from repro.runtime.executor import clear_kernel_cache
        from repro.telemetry import reset_registry

        payloads = []
        for _ in range(2):
            clear_kernel_cache()
            reset_registry()
            assert main(["exec-sweep", "--size", "48"]) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        assert payloads[0]["digest"] == payloads[1]["digest"]
        assert payloads[0]["counters"] == payloads[1]["counters"]
        assert len(payloads[0]["tasks"]) == 6
        assert "jobs" not in payloads[0]

    @pytest.mark.parametrize("argv", [
        ["exec-sweep", "--exec-jobs", "2"],
        ["heatmap", "--hedge", "0.1"],
        ["heatmap", "--resume", "j.jsonl"],
        ["serve", "--resume", "j.jsonl"],
        ["serve", "--batch-window", "0.1"],
        ["serve", "--max-batch", "4"],
        ["bench", "lud", "--exec-backend", "vector"],
        ["heatmap", "--exec-backend", "check"],
        ["autotune", "--exec-backend", "scalar"],
    ])
    def test_removed_options_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["jit-bench", "jit-stats"])
    def test_removed_subcommands_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def _sweep(self, capsys, *extra: str) -> tuple[dict, int]:
        """One fresh-process-like ``exec-sweep --size 48`` run: its JSON
        payload and the number of service compiles it made."""
        import json

        from repro.runtime.executor import clear_kernel_cache
        from repro.telemetry import get_registry, reset_registry

        clear_kernel_cache()
        reset_registry()
        assert main(["exec-sweep", "--size", "48", *extra]) == 0
        compiles = get_registry().snapshot()["counters"].get(
            "service.compiles", 0)
        return json.loads(capsys.readouterr().out), compiles

    def test_cache_dir_rerun_compiles_nothing(self, tmp_path, capsys):
        """--cache-dir is the compile service's artifact store only: a
        rerun is all cache hits, and no kernel plan is written."""
        cache = tmp_path / "cache"
        cold, cold_compiles = self._sweep(capsys, "--cache-dir", str(cache))
        warm, warm_compiles = self._sweep(capsys, "--cache-dir", str(cache))
        assert cold_compiles == 3
        assert warm_compiles == 0
        assert warm["digest"] == cold["digest"]
        assert not (cache / "plans").exists()

    def test_planted_plan_files_never_execute(self, tmp_path, capsys):
        """Files shaped like persisted executor plans (JSON with a Python
        ``source``, named by the SHA-256 of the memo key) are never read
        back, so their code never runs."""
        import hashlib
        import json

        from repro.runtime.executor import _semantics_key
        from repro.runtime.parallel import _sweep_tasks
        from repro.service import CompileService
        from repro.service.fingerprint import fingerprint_kernel

        clean, _ = self._sweep(capsys)
        marker = tmp_path / "plan-ran"
        plans = tmp_path / "cache" / "plans"
        plans.mkdir(parents=True)
        tasks = _sweep_tasks(CompileService(),
                             {"ge": 48, "lud": 48, "hydro": 48}, 1)
        for task in tasks:
            key = (fingerprint_kernel(task.kernel),
                   _semantics_key(task.kernel, task.semantics), "vector")
            name = hashlib.sha256(
                "\x00".join([key[0], repr(key[1]), key[2]]).encode()
            ).hexdigest()
            source = (f"open({str(marker)!r}, 'a').write('x')\n"
                      "def _kernel(*args, **kwargs):\n    pass\n")
            (plans / f"{name}.json").write_text(json.dumps({
                "schema": "exec-plan-v1", "fingerprint": key[0],
                "semantics": [list(item) for item in key[1]],
                "backend": key[2], "source": source,
            }, sort_keys=True))
        assert len(list(plans.glob("*.json"))) == 6

        planted, _ = self._sweep(capsys, "--cache-dir",
                                 str(tmp_path / "cache"))
        assert not marker.exists(), "a planted plan file was executed"
        assert planted["digest"] == clean["digest"]

    def test_bad_cache_dir_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["exec-sweep", "--cache-dir", str(blocker / "x")])
        assert code == 2
        assert "bad --cache-dir" in capsys.readouterr().err
