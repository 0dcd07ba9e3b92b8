"""The benchmark suite's one command.

    python3 benchmarks/suite/run.py --workload NAME --seed N \\
        [--seconds S] [--trace 0|1]
    python3 benchmarks/suite/run.py --seed N [--traced] [--runs K]

Without ``--workload`` every workload in ``BENCHMARK.json`` runs.  Each
run of a workload happens in fresh processes (``load.py``):

* an untraced run measures the end-to-end metrics.  It also sets the
  workload up in two more processes and reports the median of the three
  set-up times as ``setup_s``;
* a traced run (``--trace 1`` or ``--traced``) gives half of
  ``--seconds`` to an untraced process and half to a traced one.  The
  per-layer metrics come from the traced process, and
  ``trace.overhead_ratio`` is the untraced throughput over the traced
  one, minus one.

``--runs K`` repeats each workload K times with the same seed and ends
with an agreement report: every metric's values, and their spread
(max - min over the median) against the bound in ``BENCHMARK.json``.

Every metric is printed by name with its unit.  The last line of
standard output is one JSON object: for one workload and one run
``{"correct", "attempted", "failed", "metrics"}``; otherwise
``{"runs": [...]}`` with one such object per workload and run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_RUNS = 3
#: one run of one workload must end well inside three minutes
RUN_DEADLINE_S = 170.0
#: metrics that must not differ between runs of the same seed
EXACT_METRICS = ("failed", "service.compiles_per_op",
                 "service.cache_hit_ratio")


class BenchError(RuntimeError):
    """A run that produced no result."""


def _stop_group(proc: subprocess.Popen) -> None:
    """Stop the load process and anything it left behind (its daemon)."""
    for sig, grace in ((signal.SIGTERM, 10.0), (signal.SIGKILL, 5.0)):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            break
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            continue
        # the group outlives its leader while an orphaned daemon runs
        until = time.monotonic() + grace
        while time.monotonic() < until:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


def spawn(workload: str, seed: int, seconds: float, trace: bool,
          deadline: float, setup_only: bool = False) -> dict:
    """One load process; returns its JSON result."""
    cmd = [sys.executable, str(SUITE / "load.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", "1" if trace else "0"]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--launched-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(
            timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: load process passed the deadline") \
            from None
    finally:
        _stop_group(proc)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload}: load process exited with "
                         f"{proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_once(spec: dict, workload: str, seed: int, seconds: float,
             traced: bool) -> tuple[dict, list[str]]:
    """One run of one workload: the result object of the contract, and
    lines to print with it."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    if traced:
        plain = spawn(workload, seed, seconds / 2, False, deadline)
        result = spawn(workload, seed, seconds / 2, True, deadline)
        values = dict(result["layers"])
        values["trace.overhead_ratio"] = (
            plain["ops_per_s"] / result["ops_per_s"] - 1.0)
        wanted = spec["per_layer"]
        parts = (plain, result)
        notes = []
    else:
        setups = [spawn(workload, seed, 0.0, False, deadline,
                        setup_only=True)["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
        result = spawn(workload, seed, seconds, False, deadline)
        values = dict(result)
        values["setup_s"] = statistics.median(setups + [result["setup_s"]])
        wanted = spec["end_to_end"]
        parts = (result,)
        # the tail is printed, not gated: its run-to-run spread on the
        # sizing runner is wider than the largest bound allowed
        notes = [f"  latency_p90_ms = {result['latency_p90_ms']:.6g} ms "
                 f"(over {result['calls']} calls; not gated)"]
    attempted = sum(part["ops"] for part in parts)
    failed = sum(part["failed"] for part in parts)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }, notes


def print_result(workload: str, seed: int, result: dict,
                 notes: list[str]) -> None:
    print(f"{workload} seed={seed}: {result['attempted']} ops attempted, "
          f"{result['failed']} failed "
          f"(failed_ratio {result['failed'] / result['attempted']:g})")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for line in notes:
        print(line)


def agreement(spec: dict, workload: str, results: list[dict]) -> list[str]:
    """Per-metric values of repeated runs, and their spread against the
    metric's bound (timing metrics) or exact equality (EXACT_METRICS)."""
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    lines = [f"agreement of {len(results)} runs of {workload}:"]
    series = {"failed": [r["failed"] for r in results]}
    for name in results[0]["metrics"]:
        series[name] = [r["metrics"][name]["value"] for r in results]
    for name, values in series.items():
        shown = ", ".join(f"{v:.6g}" for v in values)
        if name in EXACT_METRICS:
            verdict = "same" if len(set(values)) == 1 else "DIFFERS"
        else:
            middle = statistics.median(values)
            spread = (max(values) - min(values)) / middle if middle else 0.0
            bound = bounds.get(name)
            verdict = f"spread {spread:.1%}"
            if bound is not None:
                verdict += (f" {'within' if spread <= bound else 'OVER'} "
                            f"bound {bound:.0%}")
        lines.append(f"  {name}: [{shown}] {verdict}")
    return lines


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="Run the benchmark suite (see BENCHMARK.json).")
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload (default: all)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="seconds a run is sized to take (whole "
                             "rounds; at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, with an agreement report")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    program = ROOT / "src" / "repro" / "__init__.py"
    if not program.is_file():
        print(f"run.py: the program is missing ({program})", file=sys.stderr)
        return 2
    traced = bool(args.trace) or args.traced
    selected = [args.workload] if args.workload else names
    runs = []
    reports = []
    try:
        for workload in selected:
            results = []
            for _ in range(max(args.runs, 1)):
                result, notes = run_once(spec, workload, args.seed,
                                         args.seconds, traced)
                print_result(workload, args.seed, result, notes)
                results.append(result)
                runs.append({"workload": workload, "seed": args.seed,
                             **result})
            if len(results) > 1:
                reports.extend(agreement(spec, workload, results))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for line in reports:
        print(line)
    if len(runs) == 1:
        print(json.dumps({k: v for k, v in runs[0].items()
                          if k not in ("workload", "seed")}))
    else:
        print(json.dumps({"runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
