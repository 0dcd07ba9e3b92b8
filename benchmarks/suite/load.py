"""The load process: one workload in one fresh process.

    python3 benchmarks/suite/load.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --launched-at T [--setup-only]

Sets the workload up, drives its closed-loop clients, checks every
output, and prints one JSON object as the last line of standard output.
A run is a fixed number of whole rounds, sized so that it takes
``--seconds`` on the runner the suite was sized on (at least one round
per client): every run of a workload does the same work, so the daemon's
growing cache, and with it peak memory, does not depend on how fast the
run went.  ``run.py`` starts this script; ``--launched-at`` is its
``time.monotonic()`` just before the start, so ``setup_s`` covers
interpreter start-up too.

With ``--trace 1`` the program's tracer and the ledger's span wrappers
are on for the measured window only, the spans of this process (and of
the daemon, for the daemon workloads) are written under
``benchmarks/suite/out/``, and the result carries per-layer metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
sys.path.insert(0, str(SUITE.parents[1] / "src"))

import ledger  # noqa: E402
import workloads  # noqa: E402
from repro.telemetry import (  # noqa: E402
    configure_tracer,
    get_registry,
    get_tracer,
    load_trace,
    reset_tracer,
    write_jsonl,
)

OUT_DIR = SUITE / "out"


def measure(workload: workloads.Workload, seed: int, rounds: int) -> dict:
    """Drive every client through *rounds* rounds of its op stream.

    Throughput is the median over all clients' rounds of ops per second,
    times the client count: a burst of outside load that slows one round
    does not move it.
    """
    tracer = get_tracer()
    lock = threading.Lock()
    latencies: list[float] = []
    round_rates: list[float] = []
    totals = {"calls": 0, "ops": 0, "failed": 0}
    errors: list[BaseException] = []
    start = time.perf_counter()

    def drive(client: int) -> None:
        try:
            stream = workload.ops(seed, client)
            for _ in range(rounds):
                round_start = time.perf_counter()
                round_ops = 0
                for op in itertools.islice(stream, workload.round_size):
                    began = time.perf_counter()
                    with tracer.span("bench.op", category="bench"):
                        try:
                            result = workload.invoke(client, op)
                        except Exception as exc:  # checked, counted below
                            result = exc
                    elapsed = time.perf_counter() - began
                    ops, failures = workload.check(op, result)
                    for failure in failures:
                        print(f"{workload.name}: FAILED {failure}",
                              file=sys.stderr)
                    round_ops += ops
                    with lock:
                        latencies.append(elapsed)
                        totals["calls"] += 1
                        totals["ops"] += ops
                        totals["failed"] += ops if failures else 0
                with lock:
                    round_rates.append(
                        round_ops / (time.perf_counter() - round_start))
        except BaseException as exc:  # re-raised on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=drive, args=(client,))
               for client in range(1, workload.clients)]
    for thread in threads:
        thread.start()
    drive(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    ms = sorted(latency * 1e3 for latency in latencies)
    return {
        **totals,
        "elapsed_s": time.perf_counter() - start,
        "ops_per_s": workload.clients * statistics.median(round_rates),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": (statistics.quantiles(ms, n=10,
                                                method="inclusive")[8]
                           if len(ms) > 1 else ms[0]),
        "latency_mean_ms": statistics.fmean(ms),
    }


def counter_metrics(before: dict, after: dict, ops: int) -> dict[str, float]:
    """Per-layer counter metrics over the measured window."""
    delta = {key: after.get(key, 0) - before.get(key, 0)
             for key in set(before) | set(after)}

    def ratio(num: str, den: str) -> float:
        return delta.get(num, 0) / delta[den] if delta.get(den) else 0.0

    # answered without a compile: a cache hit, a join onto an in-flight
    # compile in the service, or one coalesced by the daemon's batcher.
    # Which of the three answers a request depends on timing; the sum
    # does not.
    delta["answered"] = sum(delta.get(key, 0) for key in
                            ("cache_hits", "dedup_hits", "coalesced"))
    delta["decided"] = delta["answered"] + delta.get("compiles", 0)
    executor = get_registry().snapshot()["counters"]
    vectorized = executor.get("executor.vectorized", 0)
    lowered = vectorized + executor.get("executor.fallback", 0)
    return {
        "service.cache_hit_ratio": ratio("answered", "decided"),
        "service.compiles_per_op": delta.get("compiles", 0) / max(ops, 1),
        "server.points_per_batch": ratio("batched_points", "batches"),
        "server.coalesced_ratio": ratio("coalesced", "submitted"),
        # plans this process lowered, warm-up included: the window
        # itself re-enters plans that are already lowered
        "runtime.vectorized_ratio": vectorized / lowered if lowered else 0.0,
        "difftest.unexplained_ratio": delta.get("unexplained", 0) / max(ops, 1),
    }


def daemon_window(path: Path) -> list:
    """The daemon's spans between its two ``stats`` requests, which the
    load process sends right before and right after its window."""
    spans, _metrics = load_trace(str(path))
    marks = sorted(
        (s for s in spans
         if s.name == "server.request" and s.attributes.get("op") == "stats"),
        key=lambda s: s.start_s,
    )
    return ledger.in_window(spans, marks[0].end_s, marks[-1].start_s)


def run(args: argparse.Namespace) -> dict:
    workload = workloads.make(args.workload)
    traced = bool(args.trace)
    base = OUT_DIR / f"{args.workload}-seed{args.seed}"
    daemon_trace = None
    if traced and isinstance(workload, workloads.Daemon):
        OUT_DIR.mkdir(exist_ok=True)
        daemon_trace = base.with_name(base.name + "-daemon.jsonl")
    try:
        workload.setup(daemon_trace)
        setup_s = time.monotonic() - args.launched_at
        if args.setup_only:
            return {"setup_s": setup_s}
        before = workload.counters()
        if traced:
            ledger.install()
            tracer = configure_tracer(enabled=True)
        result = measure(workload, args.seed,
                         workload.rounds(args.seconds))
        if traced:
            load_spans = tracer.spans()
            reset_tracer()
        after = workload.counters()
    finally:
        workload.close()
    for line in workload.notes():
        print(line, file=sys.stderr)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result.update(setup_s=setup_s, peak_rss_mb=rss_kb / 1024.0)
    if not traced:
        return result

    OUT_DIR.mkdir(exist_ok=True)
    write_jsonl(str(base.with_name(base.name + "-load.jsonl")), load_spans)
    processes = [load_spans]
    transport_ms = 0.0
    if daemon_trace is not None:
        daemon_spans = daemon_window(daemon_trace)
        processes.append(daemon_spans)
        served = [s.duration_s * 1e3 for s in daemon_spans
                  if s.name == "server.request"
                  and s.attributes.get("op") == "compile"]
        if served:
            transport_ms = result["latency_mean_ms"] - statistics.fmean(served)
    layers = ledger.layer_metrics(processes, result["ops"])
    layers.update(counter_metrics(before, after, result["ops"]))
    layers["server.transport_ms_per_op"] = transport_ms
    result["layers"] = layers
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # a terminated run still stops its daemon (the finally in run())
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    print(json.dumps(run(args), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
