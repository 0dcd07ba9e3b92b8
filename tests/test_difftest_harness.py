"""The differential harness: classification, shrinking, replay, CLI."""

import pytest

from repro.difftest import (
    PAIRS,
    generate_case,
    replay_file,
    run_case,
    run_difftest,
)
from repro.difftest.shrink import shrink_case, write_reproducer
from repro.ir.expr import BinOp, FloatLit
from repro.ir.stmt import Assign
from repro.service import CompileService
from repro.service.scheduler import _default_compile_fn


def _buggy_compile_fn(request):
    """A deliberately broken CAPS/CUDA backend: the first plain store in
    the first kernel gets an extra ``+ 1.0`` (a transform bug)."""
    result = _default_compile_fn(request)
    if request.compiler == "caps" and request.target == "cuda":
        for compiled in result.kernels[:1]:
            for stmt in compiled.ir.body.walk():
                if isinstance(stmt, Assign) and stmt.op is None:
                    stmt.value = BinOp("+", stmt.value, FloatLit(1.0))
                    break
    return result


class TestPairs:
    def test_full_compiler_target_matrix(self):
        assert {(c, t) for c, t, _d in PAIRS} == {
            ("caps", "cuda"), ("caps", "opencl"),
            ("pgi", "cuda"), ("pgi", "opencl"),
        }

    def test_pgi_opencl_is_expected_compile_error(self):
        result = run_case(generate_case(0), CompileService())
        by_pair = {(p.compiler, p.target): p for p in result.pairs}
        assert by_pair[("pgi", "opencl")].status == "compile-error-expected"
        assert "NVIDIA" in by_pair[("pgi", "opencl")].detail


class TestClassification:
    def test_clean_seeds_are_explained(self):
        report = run_difftest(range(10), service=CompileService())
        assert report.unexplained == []

    def test_wrong_answers_are_reproduced_and_explained(self):
        # the corpus must actually hit the paper V-D2 scenario
        report = run_difftest(range(10), service=CompileService())
        assert report.count("wrong-answer") > 0
        for case in report.cases:
            for pair in case.pairs:
                for diff in pair.kernels:
                    if diff.status == "wrong-answer":
                        assert diff.prediction.wrong_answer
                        assert diff.mismatched

    def test_injected_transform_bug_is_unexplained(self):
        service = CompileService(compile_fn=_buggy_compile_fn)
        result = run_case(generate_case(2), service)
        assert not result.explained
        statuses = {
            diff.status
            for pair in result.pairs
            for diff in pair.kernels
        }
        assert "transform-bug" in statuses


class TestShrinkAndReplay:
    def test_shrunk_reproducer_replays(self, tmp_path):
        service = CompileService(compile_fn=_buggy_compile_fn)
        case = generate_case(2)
        result = run_case(case, service)
        assert not result.explained
        path = write_reproducer(case, result, service, str(tmp_path))

        source = open(path).read()
        assert source.startswith("// difftest reproducer for seed 2")
        assert len(source.splitlines()) < len(case.source.splitlines()) + 3

        # same failure with the buggy compiler...
        replayed = replay_file(path, CompileService(
            compile_fn=_buggy_compile_fn))
        assert not replayed.explained
        # ...and a *valid, clean* program with the real compilers
        clean = replay_file(path, CompileService())
        assert clean.explained

    def test_shrink_preserves_failure_signature(self):
        service = CompileService(compile_fn=_buggy_compile_fn)
        case = generate_case(2)
        shrunk = shrink_case(
            case, compile_fn=_buggy_compile_fn, max_evals=60
        )
        result = run_case(shrunk, CompileService(
            compile_fn=_buggy_compile_fn))
        statuses = {
            diff.status
            for pair in result.pairs
            for diff in pair.kernels
        }
        assert "transform-bug" in statuses

    def test_run_difftest_shrink_flag_writes_reproducer(self, tmp_path):
        service = CompileService(compile_fn=_buggy_compile_fn)
        report = run_difftest(
            [2], service=service, shrink=True, out_dir=str(tmp_path)
        )
        (case,) = report.unexplained
        assert case.reproducer
        assert open(case.reproducer).read().startswith("//")


class TestCli:
    def test_difftest_subcommand_clean_sweep(self, capsys):
        from repro.cli import main

        assert main(["difftest", "--seeds", "5"]) == 0
        out = capsys.readouterr().out
        assert "UNEXPLAINED divergences: 0" in out

    def test_difftest_subcommand_replay(self, tmp_path, capsys):
        from repro.cli import main

        case = generate_case(0)
        path = tmp_path / "case.c"
        path.write_text(case.source)
        assert main(["difftest", "--replay", str(path)]) == 0
        assert "EXPLAINED" in capsys.readouterr().out

    def test_difftest_subcommand_jobs(self, capsys):
        from repro.cli import main

        assert main(["difftest", "--seeds", "4", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "UNEXPLAINED divergences: 0" in out
        assert "compile service" in out  # --jobs prints service stats
