"""Tests for the auto-tuner (future-work counterpart of the hand method)."""

import pytest

from repro.core.autotune import (
    TuneResult,
    exhaustive_tune,
    hill_climb_tune,
    make_lud_evaluator,
    portable_tune,
)
from repro.devices import K40, PHI_5110P
from repro.kernels import get_benchmark
from repro.service import CompileService


def quadratic_objective(opt_gang=128, opt_worker=16):
    """A synthetic convex-ish objective with a known optimum."""
    import math

    def evaluate(gang, worker):
        return (math.log2(max(gang, 1) / opt_gang) ** 2
                + math.log2(max(worker, 1) / opt_worker) ** 2 + 1.0)

    return evaluate


class TestExhaustive:
    def test_finds_grid_optimum(self):
        result = exhaustive_tune(
            quadratic_objective(), gangs=(32, 64, 128, 256),
            workers=(4, 8, 16, 32),
        )
        assert (result.gang, result.worker) == (128, 16)
        assert result.evaluations == 16
        assert len(result.history) == 16

    def test_best_matches_history_minimum(self):
        result = exhaustive_tune(
            quadratic_objective(), gangs=(1, 64), workers=(1, 16),
        )
        assert result.seconds == min(h[2] for h in result.history)


class TestHillClimb:
    def test_converges_to_optimum_from_nearby(self):
        result = hill_climb_tune(quadratic_objective(), seed=(64, 8))
        assert (result.gang, result.worker) == (128, 16)

    def test_cheaper_than_exhaustive(self):
        climb = hill_climb_tune(quadratic_objective(), seed=(64, 8))
        grid = exhaustive_tune(quadratic_objective())
        assert climb.evaluations < grid.evaluations

    def test_never_repeats_a_configuration(self):
        result = hill_climb_tune(quadratic_objective(), seed=(32, 4))
        seen = [h[:2] for h in result.history]
        assert len(seen) == len(set(seen))

    def test_respects_bounds(self):
        result = hill_climb_tune(
            quadratic_objective(opt_gang=1 << 20), seed=(512, 16),
            max_gang=1024,
        )
        assert result.gang <= 1024


class TestPortable:
    def test_minimizes_worst_case(self):
        gpu = quadratic_objective(opt_gang=256, opt_worker=32)
        mic = quadratic_objective(opt_gang=64, opt_worker=4)
        result, per_device = portable_tune(
            {"gpu": gpu, "mic": mic},
            gangs=(64, 128, 256), workers=(4, 8, 16, 32),
        )
        # the portable optimum sits between the two device optima
        assert 64 <= result.gang <= 256 and 4 <= result.worker <= 32
        assert set(per_device) == {"gpu", "mic"}
        assert result.seconds == pytest.approx(max(per_device.values()))


class TestLudEvaluator:
    def test_times_positive_and_config_sensitive(self):
        bench = get_benchmark("lud")
        evaluate = make_lud_evaluator(bench, K40, n=512, samples=4,
                                      service=CompileService())
        serialish = evaluate(1, 1)
        parallel = evaluate(256, 16)
        assert parallel < serialish

    def test_mic_evaluator(self):
        bench = get_benchmark("lud")
        evaluate = make_lud_evaluator(bench, PHI_5110P, n=512, samples=4,
                                      service=CompileService())
        assert evaluate(240, 1) > 0

    def test_describe(self):
        result = TuneResult(128, 16, 1.5, 9, "K40")
        assert "gang(128)" in result.describe()
