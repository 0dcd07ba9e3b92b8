"""Regenerate BENCH_exec.json: the raw-speed trajectory of the executor.

Runs the execution-heavy GE/LUD/Hydro sweep (repro.runtime.parallel)
through two regimes, each on a cold memo cache:

* **scalar** — the interpreter-grade scalar backend;
* **vector** — the vectorizing NumPy backend.

Both regimes must produce byte-identical buffers (one shared digest).

Run from the repo root:

    PYTHONPATH=src python benchmarks/bench_exec_seed.py

CI regression gate (compares against the committed baseline):

    PYTHONPATH=src python benchmarks/bench_exec_seed.py --check-baseline
"""

import json
import sys
import time
from pathlib import Path

from repro.runtime.executor import clear_kernel_cache
from repro.runtime.parallel import run_exec_sweep
from repro.service import CompileService
from repro.telemetry import get_registry, reset_registry

SIZES = {"ge": 512, "lud": 768, "hydro": 512}
REPEATS = 4
BASELINE = Path(__file__).resolve().parent.parent / "BENCH_exec.json"


def _cold(backend: str) -> dict:
    clear_kernel_cache()
    reset_registry()
    start = time.perf_counter()
    result = run_exec_sweep(service=CompileService(), backend=backend,
                            sizes=SIZES, repeats=REPEATS)
    result["wall_s"] = time.perf_counter() - start
    result["counters"] = dict(get_registry().snapshot()["counters"])
    return result


def run_bench() -> dict:
    scalar = _cold(backend="scalar")
    vector = _cold(backend="vector")

    assert scalar["digest"] == vector["digest"], (
        f"regimes disagree bytewise: {scalar['digest']} != "
        f"{vector['digest']}"
    )
    # "seconds" is execution-only (run_tasks); wall_s includes the cold
    # compile, which is identical across regimes and would dilute the
    # execution-bound comparison the paper's Fig. 4 grids care about
    vector_speedup = scalar["seconds"] / vector["seconds"]
    assert vector_speedup >= 2.0, (
        f"vector backend only {vector_speedup:.2f}x over scalar"
    )

    return {
        "benchmark": "exec-raw-speed",
        "sizes": SIZES,
        "repeats": REPEATS,
        "digest": vector["digest"],
        "tasks": len(vector["tasks"]),
        "latency_s": {
            "scalar": round(scalar["seconds"], 4),
            "vector_cold": round(vector["seconds"], 4),
        },
        "vector_speedup": round(vector_speedup, 1),
        "counters": {"cold": vector["counters"]},
        "notes": (
            "scalar/vector each run on a cold memo cache; both regimes "
            "are byte-identical (one digest)."
        ),
    }


def check_baseline(record: dict) -> int:
    """Fail loudly if the fresh run regressed against the committed
    baseline.  Deterministic fields must match exactly; perf ratios get
    tolerance (CI machines differ from the machine that wrote the
    baseline)."""
    if not BASELINE.exists():
        print(f"no baseline at {BASELINE}; run without --check-baseline "
              "first", file=sys.stderr)
        return 2
    baseline = json.loads(BASELINE.read_text())
    failures = []
    if record["digest"] != baseline["digest"]:
        failures.append(
            f"digest drift: {record['digest'][:16]} != "
            f"baseline {baseline['digest'][:16]}"
        )
    if record["counters"]["cold"] != baseline["counters"]["cold"]:
        failures.append(
            f"cold counter drift: {record['counters']['cold']} != "
            f"{baseline['counters']['cold']}"
        )
    floor = max(2.0, baseline["vector_speedup"] * 0.5)
    if record["vector_speedup"] < floor:
        failures.append(
            f"vector speedup {record['vector_speedup']}x below "
            f"tolerated floor {floor}x (baseline "
            f"{baseline['vector_speedup']}x)"
        )
    if failures:
        for failure in failures:
            print(f"BENCH_exec regression: {failure}", file=sys.stderr)
        return 1
    print(f"BENCH_exec gate OK: digest + counters match baseline, "
          f"vector {record['vector_speedup']}x (floor {floor}x)")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    record = run_bench()
    if "--check-baseline" in argv:
        return check_baseline(record)
    BASELINE.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"latency_s": record["latency_s"],
                      "vector_speedup": record["vector_speedup"]}, indent=2))
    print(f"wrote {BASELINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
