"""Regenerate BENCH_server.json: the daemon's latency trajectory.

Measures the 72-point Fig. 4 LUD sweep through a real daemon (TCP,
ephemeral port) in three regimes:

* **cold** — fresh daemon, one client, empty cache: every point
  compiles;
* **warm** — the same daemon again: every point is a cache hit,
  answered by fingerprint on the connection thread (no source on the
  wire, no parse, no batch window);
* **coalesced_4_clients** — a fresh daemon swept by 4 concurrent
  clients at once: cross-client coalescing folds 288 requests into 72
  compiles.

Run from the repo root:

    PYTHONPATH=src python benchmarks/bench_server_seed.py

CI regression gate (the warm sweep must stay at least
``MIN_WARM_SPEEDUP`` times faster than the cold one, with byte-identical
slots, and the coalesced run must still compile each point once):

    PYTHONPATH=src python benchmarks/bench_server_seed.py --check-baseline
"""

import json
import sys
import threading
import time
from pathlib import Path

from repro.server import ServerClient, ServerConfig, spawn_local
from repro.server.daemon import ReproServer
from repro.server.smoke import artifact_signature, fig4_requests

POINTS = 72
CLIENTS = 4
#: the warm-vs-cold floor the gate holds (measured 6-8x on a 2-core VM)
MIN_WARM_SPEEDUP = 5.0
BASELINE = Path(__file__).resolve().parent.parent / "BENCH_server.json"


def timed_sweep(client: ServerClient, requests) -> tuple[float, list[str]]:
    start = time.perf_counter()
    slots = client.sweep(requests)
    elapsed = time.perf_counter() - start
    assert len(slots) == len(requests)
    return elapsed, [artifact_signature(slot) for slot in slots]


def run_bench() -> dict:
    requests = fig4_requests(POINTS)

    with spawn_local(ServerConfig(jobs=4), client_id="seed") as (_s, client):
        cold, cold_slots = timed_sweep(client, requests)
        warm, warm_slots = timed_sweep(client, requests)

    server = ReproServer(
        ServerConfig(port=0, jobs=4,
                     max_queue_depth=CLIENTS * POINTS)
    ).start()
    try:
        host, port = server.address
        clients = [ServerClient(host, port, client_id=f"seed-{i}")
                   for i in range(CLIENTS)]
        barrier = threading.Barrier(CLIENTS + 1)

        def drive(c: ServerClient) -> None:
            barrier.wait(timeout=30)
            assert len(c.sweep(requests)) == POINTS

        threads = [threading.Thread(target=drive, args=(c,)) for c in clients]
        for thread in threads:
            thread.start()
        barrier.wait(timeout=30)
        start = time.perf_counter()
        for thread in threads:
            thread.join(timeout=300)
        coalesced_wall = time.perf_counter() - start
        counters = {
            "compiles": int(server.service.metrics.snapshot()["compiles"]),
            "coalesced": int(server.batcher.snapshot()["coalesced"]),
            "batches": int(server.batcher.snapshot()["batches"]),
        }
        for c in clients:
            c.close()
    finally:
        server.drain()

    return {
        "benchmark": "server-fig4-sweep",
        "points": POINTS,
        "clients": CLIENTS,
        "jobs": 4,
        "latency_s": {
            "cold": round(cold, 4),
            "warm": round(warm, 4),
            "coalesced_4_clients": round(coalesced_wall, 4),
        },
        "warm_speedup": round(cold / warm, 2),
        "warm_identical": warm_slots == cold_slots,
        "counters": counters,
        "notes": (
            "cold = fresh daemon, 1 client, empty cache; warm = same "
            "daemon re-swept (cache hits answered by fingerprint); "
            f"coalesced_4_clients = fresh daemon, {CLIENTS} concurrent "
            f"clients x {POINTS} points (cross-client coalescing). "
            "Measured on a 2-core VM."
        ),
    }


def check_baseline(record: dict) -> int:
    """Fail loudly if the fresh run lost the warm path or coalescing."""
    failures = []
    if not record["warm_identical"]:
        failures.append("warm slots differ from the cold sweep's")
    if record["warm_speedup"] < MIN_WARM_SPEEDUP:
        failures.append(
            f"warm sweep only {record['warm_speedup']}x faster than cold "
            f"(floor {MIN_WARM_SPEEDUP}x; cold "
            f"{record['latency_s']['cold']}s, warm "
            f"{record['latency_s']['warm']}s)"
        )
    if record["counters"]["compiles"] != POINTS:
        failures.append(
            f"{record['counters']['compiles']} compiles for {CLIENTS} "
            f"clients x {POINTS} points (want exactly {POINTS})"
        )
    if record["counters"]["coalesced"] <= 0:
        failures.append("no cross-client coalescing observed")
    if failures:
        for failure in failures:
            print(f"BENCH_server regression: {failure}", file=sys.stderr)
        return 1
    print(f"BENCH_server gate OK: warm {record['warm_speedup']}x faster "
          f"than cold (floor {MIN_WARM_SPEEDUP}x), byte-identical slots, "
          f"{record['counters']['compiles']} compiles, "
          f"{record['counters']['coalesced']} coalesced")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    record = run_bench()
    if "--check-baseline" in argv:
        return check_baseline(record)
    BASELINE.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(record["latency_s"], indent=2))
    print(f"wrote {BASELINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
