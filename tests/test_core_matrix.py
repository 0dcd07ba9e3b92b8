"""The portability matrix end-to-end, and its determinism battery:
byte-identical digests at jobs 1 vs 4, cold vs a rerun on the same
cache directory, and
under a seeded transient fault plan with retries."""

import json

import pytest

from repro.core import run_matrix
from repro.core.matrix import MATRIX_PAIRS, device_for_target, matrix_requests
from repro.devices import K40, NVLINK_LINK, PHI_5110P
from repro.faults.plan import parse_fault_spec
from repro.kernels import MATRIX_FAMILIES
from repro.service import ArtifactCache, CompileService, RetryPolicy
from repro.telemetry import Tracer, configure_tracer, reset_tracer

SMALL = dict(families=("stencil", "pic"), n=8, device_counts=(1, 2))


def small_matrix(service=None, **overrides):
    kwargs = dict(SMALL)
    kwargs.update(overrides)
    return run_matrix(service=service or CompileService(), **kwargs)


class TestMatrixShape:
    def test_full_matrix_covers_every_cell(self):
        report = run_matrix(n=8, device_counts=(1, 2, 4),
                            service=CompileService())
        assert len(report.cells) == len(MATRIX_FAMILIES) * len(MATRIX_PAIRS) * 3
        for family in MATRIX_FAMILIES:
            for compiler, target in MATRIX_PAIRS:
                for devices in (1, 2, 4):
                    assert report.cell(family, compiler, target,
                                       devices) is not None

    def test_pgi_opencl_is_unsupported_not_an_exception(self):
        report = small_matrix()
        for family in SMALL["families"]:
            for devices in SMALL["device_counts"]:
                cell = report.cell(family, "pgi", "opencl", devices)
                assert cell.status == "unsupported"
                assert cell.detail  # the refusal text survives

    def test_supported_cells_are_ok(self):
        report = small_matrix()
        for family in SMALL["families"]:
            for compiler, target in MATRIX_PAIRS:
                if (compiler, target) == ("pgi", "opencl"):
                    continue
                for devices in SMALL["device_counts"]:
                    cell = report.cell(family, compiler, target, devices)
                    assert cell.status == "ok"
                    assert cell.elapsed_s > 0

    def test_device_for_target(self):
        assert device_for_target("cuda") is K40
        assert device_for_target("opencl") is PHI_5110P

    def test_one_request_per_family_pair(self):
        requests = matrix_requests(("stencil",), MATRIX_PAIRS)
        assert len(requests) == len(MATRIX_PAIRS)
        assert requests[0].label == "stencil/caps-cuda"


class TestCostModel:
    def test_single_device_pays_no_exchange(self):
        report = small_matrix()
        cell = report.cell("stencil", "caps", "cuda", 1)
        assert cell.exchange_s == 0.0
        assert cell.elapsed_s == pytest.approx(cell.single_device_s)

    def test_scaling_is_sublinear(self):
        report = small_matrix()
        cell = report.cell("stencil", "caps", "cuda", 2)
        assert 1.0 < cell.speedup < 2.0

    def test_overlap_flag_tracks_the_proof(self):
        report = small_matrix()
        assert report.cell("stencil", "caps", "cuda", 2).overlap
        assert not report.cell("pic", "caps", "cuda", 2).overlap
        # x1 never overlaps: there is nothing to hide
        assert not report.cell("stencil", "caps", "cuda", 1).overlap

    def test_pic_exposed_exchange_slows_it_down(self):
        report = run_matrix(families=("stencil", "pic"), n=8,
                            device_counts=(1, 4), service=CompileService())
        stencil = report.cell("stencil", "caps", "cuda", 4)
        pic = report.cell("pic", "caps", "cuda", 4)
        assert pic.speedup < stencil.speedup

    def test_peer_link_helps_wide_nodes(self):
        flat = run_matrix(families=("stencil",), n=8, device_counts=(4,),
                          service=CompileService())
        peered = run_matrix(families=("stencil",), n=8, device_counts=(4,),
                            service=CompileService(), peer=NVLINK_LINK)
        assert (peered.cell("stencil", "caps", "cuda", 4).elapsed_s
                <= flat.cell("stencil", "caps", "cuda", 4).elapsed_s)

    def test_ppr_entries_cover_each_family_and_width(self):
        report = small_matrix()
        entries = report.ppr_entries()
        keys = {(e.family, e.devices) for e in entries}
        assert keys == {(f, d) for f in SMALL["families"]
                        for d in SMALL["device_counts"]}
        assert all(e.ppr > 0 for e in entries)


class TestDeterminism:
    """The three byte-identity legs of the matrix digest."""

    def test_jobs_1_vs_4(self):
        serial = small_matrix(service=CompileService(jobs=1))
        with CompileService(jobs=4) as service:
            pooled = small_matrix(service=service)
        assert pooled.render() == serial.render()
        assert pooled.digest() == serial.digest()

    def test_cold_vs_rerun(self, tmp_path):
        cold = small_matrix(service=CompileService(
            cache=ArtifactCache(cache_dir=tmp_path)))
        assert any(tmp_path.iterdir())
        rerun_service = CompileService(cache=ArtifactCache(cache_dir=tmp_path))
        rerun = small_matrix(service=rerun_service)
        assert rerun.digest() == cold.digest()
        assert rerun_service.metrics.compiles == 0

    def test_under_seeded_fault_plan(self):
        baseline = small_matrix()
        plan = parse_fault_spec("transient:p=0.3,seed=11")
        faulted = small_matrix(
            service=CompileService(jobs=4, fault_plan=plan,
                                   retry=RetryPolicy(max_retries=3)),
        )
        assert faulted.digest() == baseline.digest()


class TestTelemetryLanes:
    def test_each_device_gets_a_lane(self):
        reset_tracer()
        tracer = configure_tracer(enabled=True)
        try:
            small_matrix(families=("stencil",), device_counts=(2,))
            spans = tracer.spans()
        finally:
            reset_tracer()
        lanes = {span.attributes.get("lane") for span in spans
                 if "lane" in span.attributes}
        assert lanes == {"device:0", "device:1"}
        names = {span.name for span in spans}
        assert {"matrix.compute", "halo.pack", "halo.transfer",
                "halo.unpack"} <= names

    def test_chrome_export_names_the_lanes(self, tmp_path):
        from repro.telemetry import write_chrome_trace

        reset_tracer()
        tracer = configure_tracer(enabled=True)
        try:
            small_matrix(families=("stencil",), device_counts=(2,))
            out = tmp_path / "trace.json"
            write_chrome_trace(str(out), tracer.spans())
        finally:
            reset_tracer()
        events = json.loads(out.read_text())["traceEvents"]
        thread_names = {e["args"]["name"] for e in events
                        if e.get("name") == "thread_name"}
        assert {"device:0", "device:1"} <= thread_names
