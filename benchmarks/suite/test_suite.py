"""Self-test of the benchmark suite: ``pytest benchmarks/suite -q``.

Runs every workload end to end at a tiny op count (``--seconds 0``: one
round per client), untraced and traced, and checks the pieces the
numbers rest on: seeded op streams, the self-time arithmetic, the span
wrappers, and the rename trick of ``daemon-mixed``.
"""

from __future__ import annotations

import collections
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import ledger  # noqa: E402
import workloads  # noqa: E402
from repro.service import CompileService  # noqa: E402
from repro.telemetry.spans import Span, configure_tracer, reset_tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_suite(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "suite" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_spec_names_the_suite_workloads():
    assert NAMES == list(workloads.WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/suite"]


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", NAMES)
def test_every_workload_prints_every_metric_with_its_unit(workload, traced):
    args = ["--workload", workload, "--seed", "1", "--seconds", "0",
            "--trace", "1" if traced else "0"]
    proc = run_suite(*args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if traced else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert any(line.startswith(f"  {metric['name']} = ")
                   and line.endswith(f" {metric['unit']}") for line in lines)
        if not traced:
            assert got["value"] > 0
    if traced:
        assert result["metrics"]["trace.unattributed_ratio"]["value"] <= 0.10
        out = SUITE / "out"
        assert (out / f"{workload}-seed1-load.jsonl").is_file()
        if workload.startswith("daemon-"):
            assert (out / f"{workload}-seed1-daemon.jsonl").is_file()


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_suite("--workload", NAMES[0], "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- op streams -----------------------------------------------------------------

def head(name: str, seed: int, client: int, count: int = 400) -> list:
    return list(itertools.islice(
        workloads.make(name).ops(seed, client), count))


@pytest.mark.parametrize("name", NAMES)
def test_op_streams_are_a_pure_function_of_the_seed(name):
    for client in range(workloads.make(name).clients):
        assert head(name, 7, client) == head(name, 7, client)
    if name != "exec-hot":  # exec-hot ignores the seed by design
        assert head(name, 7, 0) != head(name, 8, 0)


def round_mix(name: str, seed: int, rounds: int) -> collections.Counter:
    ops = head(name, seed, 0, workloads.make(name).round_size * rounds)
    if name.startswith("daemon-"):  # (key, rename suffix)
        return collections.Counter((key, bool(suffix)) for key, suffix in ops)
    return collections.Counter(ops)


@pytest.mark.parametrize("name", NAMES)
def test_whole_rounds_hold_the_same_mix_whatever_the_seed(name):
    for rounds in (1, 2, 5):
        assert round_mix(name, 3, rounds) == round_mix(name, 4, rounds)


def test_daemon_workloads_draw_the_same_keys_and_mixed_renames_a_quarter():
    size = workloads.make("daemon-mixed").round_size
    warm = head("daemon-warm", 5, 1, 4 * size)
    mixed = head("daemon-mixed", 5, 1, 4 * size)
    assert [key for key, _ in warm] == [key for key, _ in mixed]
    assert not any(suffix for _, suffix in warm)
    for cycle in range(4):
        ops = mixed[cycle * size:(cycle + 1) * size]
        assert sorted(key for key, _ in ops) == list(range(size))
        assert {key for key, suffix in ops if suffix} == {
            key for key in range(size) if key % 4 == cycle}
    renamed = [suffix for _, suffix in mixed if suffix]
    assert len(set(renamed)) == len(renamed) == size  # each fresh, once


# -- self-time arithmetic ----------------------------------------------------

def span(span_id, parent_id, start, end, name, category=""):
    return Span(name=name, span_id=span_id, parent_id=parent_id,
                start_s=start, end_s=end, category=category)


def test_self_time_counts_overlaps_once_drops_modeled_and_clips_children():
    spans = [
        span(1, None, 0.0, 10.0, "bench.op"),
        span(2, 1, 1.0, 4.0, "service.compile"),  # overlaps span 3:
        span(3, 1, 3.0, 5.0, "frontend.parse"),   # [1, 5] covered once
        span(4, 1, 5.0, 9.0, "runtime.launch", category="modeled"),
        span(5, 1, 8.0, 12.0, "exec.sweep"),      # clipped to [8, 10]
        span(6, 2, 2.0, 3.0, "ir.print_module"),
    ]
    got = {s.span_id: (bucket, seconds)
           for s, bucket, seconds in ledger.self_times(spans)}
    assert 4 not in got
    assert got[1] == ("bench", pytest.approx(10.0 - 4.0 - 2.0))
    assert got[2] == ("service", pytest.approx(2.0))
    assert got[3] == ("frontend", pytest.approx(2.0))
    assert got[5] == ("runtime", pytest.approx(4.0))
    metrics = ledger.layer_metrics([spans], ops=2)
    assert metrics["bench.self_ms_per_op"] == pytest.approx(2e3)
    assert metrics["runtime.calls_per_op"] == pytest.approx(0.5)
    assert metrics["trace.unattributed_ratio"] == pytest.approx(0.4)


def test_layer_map_follows_names_categories_and_waits():
    def bucket(name, category=""):
        return ledger.bucket_of(span(1, None, 0.0, 1.0, name, category))

    assert bucket("caps-tile", "pass") == "passes"
    assert bucket("compile.caps", "compile") == "compilers"
    assert bucket("ptx.codegen", "codegen") == "ptx"
    assert bucket("halo.pack", "halo") == "perf"
    assert bucket("search.heatmap", "search") == "core"
    assert bucket("execute.vectorize", "executor") == "runtime"
    assert bucket("client.request", "server") == "client.wait"
    assert bucket("server.BatchTicket.wait") == "server.wait"
    assert bucket("exec.task", "exec") is None
    assert bucket("jit.call", "jit") == "bench"


def test_wrappers_rebind_imported_names_and_record_spans():
    import repro.ir.printer as printer
    import repro.server.protocol as protocol
    from repro.service.cache import ArtifactCache

    original_print = printer.print_module
    original_get = ArtifactCache.get
    ledger.install()
    try:
        assert protocol.print_module is printer.print_module
        assert printer.print_module is not original_print
        tracer = configure_tracer(enabled=True)
        ArtifactCache().get("0" * 64)
        assert [s.name for s in tracer.spans()] == ["service.ArtifactCache.get"]
    finally:
        reset_tracer()
        ledger.uninstall()
    assert printer.print_module is original_print
    assert protocol.print_module is original_print
    assert ArtifactCache.get is original_get


# -- the rename trick ----------------------------------------------------------

def test_rename_changes_the_fingerprint_but_keeps_the_golden_signature():
    workload = workloads.make("daemon-mixed")
    # a few grid points, and every hydro stage: the PGI refusals among them
    picks = ([k for k in workload.keys if k.startswith("fig4/")][:4]
             + [k for k in workload.keys if k.startswith("hydro/")])
    requests = workloads.daemon_requests(picks)
    twins = [workloads.renamed(r, "~0.0") for r in requests]
    slots = CompileService().sweep(requests + twins)
    assert any(isinstance(s, workloads.JobError) for s in slots)
    for key, request, twin, slot, twin_slot in zip(
            picks, requests, twins, slots, slots[len(picks):]):
        assert twin.fingerprint != request.fingerprint
        assert workloads.slot_signature(slot) == workload.golden[key]
        assert workloads.slot_signature(twin_slot) == workload.golden[key]
