"""Regenerate BENCH_matrix.json: the portability-matrix trajectory.

Runs the full N-device portability matrix (``repro.core.matrix``) —
stencil/LBM/PIC x CAPS/PGI x CUDA/OpenCL x {1, 2, 4} devices — three
ways:

* **serial** — ``jobs=1`` through the CompileService;
* **pooled** — ``jobs=4`` (compiles fan out to the worker pool);
* **faulted** — ``jobs=4`` under the seeded transient fault plan
  ``transient:p=0.3,seed=11`` with the default retry kit.

All three must produce the byte-identical report digest: the matrix is
closed-form and content-addressed, so neither scheduling nor healed
transient faults may leave a trace in the output.  The record also pins
the scaling/overlap structure (stencil and LBM overlap their halo
exchange, PIC's atomic scatter keeps it exposed, PGI-OpenCL cells are
``unsupported``) so a cost-model regression is caught even when the
digest is deliberately re-pinned.

Run from the repo root:

    PYTHONPATH=src python benchmarks/bench_matrix_seed.py

CI regression gate (compares against the committed baseline):

    PYTHONPATH=src python benchmarks/bench_matrix_seed.py --check-baseline
"""

import json
import sys
import time
from pathlib import Path

from repro.core import run_matrix
from repro.faults.plan import parse_fault_spec
from repro.service import CompileService

BASELINE = Path(__file__).resolve().parent.parent / "BENCH_matrix.json"
POOL_JOBS = 4
FAULT_SPEC = "transient:p=0.3,seed=11"


def _run(service: CompileService) -> tuple:
    start = time.perf_counter()
    with service:
        report = run_matrix(service=service)
    return report, time.perf_counter() - start


def run_bench() -> dict:
    serial, serial_s = _run(CompileService(jobs=1))
    pooled, pooled_s = _run(CompileService(jobs=POOL_JOBS))
    faulted, faulted_s = _run(
        CompileService(
            jobs=POOL_JOBS,
            fault_plan=parse_fault_spec(FAULT_SPEC),
            retries=3,
        )
    )

    digests = {serial.digest(), pooled.digest(), faulted.digest()}
    assert len(digests) == 1, f"matrix digests disagree: {digests}"

    statuses = sorted(
        {(c.compiler, c.target, c.status) for c in serial.cells}
    )
    overlap_families = sorted(
        {c.family for c in serial.cells if c.overlap}
    )
    exposed_families = sorted(
        {c.family for c in serial.cells
         if c.status == "ok" and c.devices > 1 and not c.overlap}
    )
    speedups = {
        f"{c.family}/x{c.devices}": round(c.speedup, 3)
        for c in serial.cells
        if (c.compiler, c.target) == ("caps", "cuda") and c.status == "ok"
    }
    assert overlap_families == ["lbm", "stencil"], overlap_families
    assert exposed_families == ["pic"], exposed_families
    for cell in serial.cells:
        if (cell.compiler, cell.target) == ("pgi", "opencl"):
            assert cell.status == "unsupported", cell.key
        elif cell.status != "ok":
            raise AssertionError(f"unexpected cell status: {cell.key}")

    return {
        "benchmark": "portability-matrix",
        "digest": serial.digest(),
        "cells": len(serial.cells),
        "statuses": [list(s) for s in statuses],
        "overlap_families": overlap_families,
        "exposed_families": exposed_families,
        "caps_cuda_speedups": speedups,
        "ppr": {
            f"{e.family}/x{e.devices}": round(e.ppr, 3)
            for e in serial.ppr_entries()
        },
        "latency_s": {
            "serial": round(serial_s, 4),
            "pooled": round(pooled_s, 4),
            "faulted_retries": round(faulted_s, 4),
        },
        "fault_spec": FAULT_SPEC,
        "notes": (
            "One digest across jobs=1, jobs=4, and the seeded transient "
            "fault plan with retries. Overlap: stencil/lbm hide the halo "
            "transfer under compute, pic's atomic scatter stays exposed. "
            "PGI has no OpenCL backend: those 9 cells are 'unsupported'."
        ),
    }


def check_baseline(record: dict) -> int:
    """Deterministic fields must match the committed baseline exactly;
    latencies are recorded but never gated (machines differ)."""
    if not BASELINE.exists():
        print(f"no baseline at {BASELINE}; run without --check-baseline "
              "first", file=sys.stderr)
        return 2
    baseline = json.loads(BASELINE.read_text())
    failures = []
    for key in ("digest", "cells", "statuses", "overlap_families",
                "exposed_families", "caps_cuda_speedups", "ppr"):
        if record[key] != baseline[key]:
            failures.append(
                f"{key} drift: {record[key]!r} != baseline "
                f"{baseline[key]!r}"
            )
    if failures:
        for failure in failures:
            print(f"BENCH_matrix regression: {failure}", file=sys.stderr)
        return 1
    print(f"BENCH_matrix gate OK: digest {record['digest'][:16]}..., "
          f"{record['cells']} cells, overlap={record['overlap_families']}, "
          f"exposed={record['exposed_families']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    record = run_bench()
    if "--check-baseline" in argv:
        return check_baseline(record)
    BASELINE.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"digest": record["digest"],
                      "caps_cuda_speedups": record["caps_cuda_speedups"],
                      "ppr": record["ppr"]}, indent=2))
    print(f"wrote {BASELINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
