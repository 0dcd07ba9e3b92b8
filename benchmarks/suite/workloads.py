"""The five workloads of the benchmark suite.

Every workload is closed-loop: a client sends its next call only after
the previous one returned.  :meth:`Workload.ops` is a pure function of
the seed, and every output is checked against an expected file, never
against the run under test:

* ``fig4-cold`` — per-pair heat-map digests in ``expected.json``;
* ``daemon-*`` — ``tests/passes/golden_fingerprints.json`` (sha256 of
  ``artifact_signature``, or of ``"compile-error|" + message`` for the
  documented refusals);
* ``exec-hot`` — the exec-sweep digest in ``expected.json`` (the
  ``digest`` of ``BENCH_exec.json``);
* ``difftest`` — per-case racecheck verdicts in ``expected.json``.

``expected.json`` is written by ``gen_expected.py``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
import threading
from pathlib import Path
from typing import Any, Iterator

from repro.core.ladder import ladder_stages
from repro.core.search import lud_heatmap
from repro.devices.specs import K40, PHI_5110P
from repro.difftest.harness import run_difftest
from repro.ir.stmt import Module
from repro.kernels import get_benchmark
from repro.runtime.executor import clear_kernel_cache
from repro.runtime.parallel import run_exec_sweep
from repro.server import ServerClient, artifact_signature, fig4_requests
from repro.service import CompileRequest, CompileService, JobError

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
EXPECTED_PATH = SUITE / "expected.json"
GOLDEN_PATH = ROOT / "tests" / "passes" / "golden_fingerprints.json"

#: the Fig. 4 pairs, in the order ``fig4-cold`` shuffles them
FIG4_PAIRS = (("caps", K40), ("pgi", K40), ("caps", PHI_5110P))
FIG4_POINTS = 72

#: ``exec-hot``: the kernels' fixed sizes pin the digest
EXEC_SIZES = {"ge": 512, "lud": 768, "hydro": 512}
EXEC_REPEATS = 4
EXEC_TASKS = 24

#: ``difftest``: generator seeds whose verdicts ``expected.json`` pins;
#: one round runs them all
DIFFTEST_POOL = range(100000, 100200)
#: warms lazy set-up without running a pool case before the window
DIFFTEST_WARMUP_SEED = 99999

#: ``daemon-mixed`` renames one key in this many into a guaranteed miss
MIXED_RENAME_EVERY = 4

#: points per warm-up sweep request: well inside the daemon's default
#: admission queue depth
WARM_CHUNK = 64

DAEMON_START_TIMEOUT_S = 60.0
DAEMON_STOP_TIMEOUT_S = 60.0


class SetupError(RuntimeError):
    """The workload could not reach its first measured op."""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected() -> dict[str, Any]:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class Workload:
    """One workload: set-up, a seeded op stream per client, a timed call
    per op, and a check of that call's output."""

    name = ""
    #: closed-loop clients, each on its own thread and connection
    clients = 1
    #: calls per round.  The first k rounds of a client's op stream hold
    #: the same mix of ops whatever the seed, and a run is a whole number
    #: of rounds, so runs with different seeds do the same work.
    round_size = 1
    #: seconds one round takes on the 2-core runner the suite was sized
    #: on: a run of ``--seconds S`` makes ``S / round_s`` rounds
    round_s = 1.0

    def rounds(self, seconds: float) -> int:
        """Rounds per client in a run sized to take *seconds*."""
        return max(1, round(seconds / self.round_s))

    def ops(self, seed: int, client: int) -> Iterator[Any]:
        """The op stream of one client: a pure function of the seed."""
        raise NotImplementedError

    def setup(self, daemon_trace: Path | None) -> None:
        """Everything before the first measured op."""

    def invoke(self, client: int, op: Any) -> Any:
        """The timed call; may raise."""
        raise NotImplementedError

    def check(self, op: Any, result: Any) -> tuple[int, list[str]]:
        """``(ops, failures)`` of one call; a failure names its key."""
        raise NotImplementedError

    def counters(self) -> dict[str, float]:
        """Cumulative program counters, read through public APIs."""
        return {}

    def notes(self) -> list[str]:
        """Lines worth printing after the run."""
        return []

    def close(self) -> None:
        """Stop everything :meth:`setup` started; safe after a partial
        set-up."""


def _add_service_counters(totals: dict[str, float],
                          service: CompileService) -> None:
    snap = service.metrics.snapshot()
    for key in ("cache_hits", "dedup_hits", "compiles"):
        totals[key] = totals.get(key, 0) + snap[key]


# -- fig4-cold ------------------------------------------------------------------

def heatmap_digest(heatmap) -> str:
    return sha256(json.dumps(heatmap.times))


def fig4_key(compiler: str, device) -> str:
    return f"{compiler}/{device.name}"


class Fig4Cold(Workload):
    """Fig. 4 LUD heat maps, each on a fresh CompileService."""

    name = "fig4-cold"
    round_size = len(FIG4_PAIRS)
    round_s = 1.1

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}

    def ops(self, seed: int, client: int) -> Iterator[int]:
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield from rng.sample(range(len(FIG4_PAIRS)), len(FIG4_PAIRS))

    def setup(self, daemon_trace: Path | None) -> None:
        self.lud = get_benchmark("lud")
        self.expected = load_expected()[self.name]
        for compiler, device in FIG4_PAIRS:  # lazy imports and registries
            lud_heatmap(self.lud, device, compiler=compiler, gangs=(1,),
                        workers=(1,), service=CompileService())

    def invoke(self, client: int, op: int) -> Any:
        compiler, device = FIG4_PAIRS[op]
        service = CompileService()
        return lud_heatmap(self.lud, device, compiler=compiler,
                           service=service), service

    def check(self, op: int, result: Any) -> tuple[int, list[str]]:
        key = fig4_key(*FIG4_PAIRS[op])
        if isinstance(result, BaseException):
            return FIG4_POINTS, [f"{key}: {describe(result)}"]
        heatmap, service = result
        _add_service_counters(self._counters, service)
        digest = heatmap_digest(heatmap)
        if digest != self.expected[key]:
            return FIG4_POINTS, [f"{key}: heat-map digest {digest[:16]} "
                                 f"!= expected {self.expected[key][:16]}"]
        return FIG4_POINTS, []

    def counters(self) -> dict[str, float]:
        return dict(self._counters)


# -- daemon-warm / daemon-mixed -------------------------------------------------

def daemon_keys(golden: dict[str, str]) -> list[str]:
    """Golden keys a daemon can compile: the Fig. 4 grid and every
    benchmark stage x (caps-cuda, caps-opencl, pgi-cuda).  The
    hand-written OpenCL programs do not go through the daemon."""
    return [key for key in sorted(golden) if "/opencl/" not in key]


def daemon_requests(keys: list[str]) -> list[CompileRequest]:
    """The compile request behind each golden key."""
    fig4 = {f"fig4/{r.label}": r for r in fig4_requests()}
    stages: dict[str, dict[str, Module]] = {}
    requests = []
    for key in keys:
        if key in fig4:
            requests.append(fig4[key])
            continue
        bench, stage, pair = key.split("/")
        if bench not in stages:
            benchmark = get_benchmark(bench)
            stages[bench] = dict(benchmark.stages())
            stages[bench].update(ladder_stages(benchmark.module()))
        compiler, target = pair.split("-")
        requests.append(CompileRequest(stages[bench][stage], compiler, target))
    return requests


def renamed(request: CompileRequest, suffix: str) -> CompileRequest:
    """The same request under module name ``<name><suffix>``: a new
    fingerprint, so a guaranteed cache miss, with the same artifact."""
    module = Module(request.module.name + suffix, request.module.kernels)
    return CompileRequest(module, request.compiler, request.target,
                          request.flags, request.device, request.label)


def slot_signature(slot: Any) -> str | None:
    """sha256 of a compile result in the golden file's terms; ``None``
    for a slot that is neither an artifact nor a compiler refusal."""
    if isinstance(slot, JobError):
        if slot.kind != "compile-error":
            return None
        return sha256(f"compile-error|{slot.message}")
    if isinstance(slot, BaseException):
        return None
    return sha256(artifact_signature(slot))


class DaemonProcess:
    """A ``repro serve`` child on an ephemeral port.

    The admission quota is lifted: the CLI default of 64 points/s per
    client would turn the closed loop into 429s, and admission control
    is not what the daemon workloads measure.  With a trace path the
    daemon runs with the ledger's span wrappers installed.
    """

    def __init__(self, trace: Path | None = None) -> None:
        self.trace = trace
        self.proc: subprocess.Popen | None = None

    def start(self) -> tuple[str, int]:
        entry = ["-m", "repro"]
        if self.trace is not None:
            entry = [str(SUITE / "ledger.py")]
        cmd = [sys.executable, *entry, "serve", "--port", "0", "--jobs", "2",
               "--quota-rate", "1e9", "--quota-burst", "1e9"]
        if self.trace is not None:
            cmd += ["--trace", str(self.trace)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        lines: list[str] = []
        reader = threading.Thread(target=self._read_banner, args=(lines,),
                                  daemon=True)
        reader.start()
        reader.join(DAEMON_START_TIMEOUT_S)
        match = re.search(r"listening on ([\d.]+):(\d+)", "".join(lines))
        if match is None:
            raise SetupError(f"daemon reported no port: {''.join(lines)!r}")
        return match.group(1), int(match.group(2))

    def _read_banner(self, lines: list[str]) -> None:
        assert self.proc is not None and self.proc.stderr is not None
        for line in self.proc.stderr:
            lines.append(line)
            if "listening on" in line:
                return

    def stop(self, client: ServerClient | None) -> None:
        """Ask for a graceful drain through *client* (or terminate without
        one), then reap; kill if it hangs."""
        if self.proc is None:
            return
        asked = False
        if client is not None:
            try:
                client.shutdown()
                asked = True
            except (OSError, RuntimeError, ValueError) as exc:
                print(f"daemon shutdown request failed: {describe(exc)}",
                      file=sys.stderr)
        if not asked:
            self.proc.terminate()
        try:
            self.proc.communicate(timeout=DAEMON_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self.proc = None


class Daemon(Workload):
    """Single compile requests from two clients through one daemon."""

    clients = 2
    round_s = 4.0

    def __init__(self, name: str, rename_every: int) -> None:
        self.name = name
        self.rename_every = rename_every
        self.golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        self.keys = daemon_keys(self.golden)
        # a round draws every key once: per-key costs differ tenfold
        # (hydro against lud), so a uniform draw with replacement would
        # make throughput depend on the seed
        self.round_size = len(self.keys)
        self.daemon: DaemonProcess | None = None
        self.connections: list[ServerClient] = []

    def ops(self, seed: int, client: int) -> Iterator[tuple[int, str]]:
        """``(key index, rename suffix)``.  Both daemon workloads draw the
        same keys for one seed.  ``daemon-mixed`` renames the keys whose
        index is the round number modulo ``rename_every``: which keys miss
        does not depend on the seed (their compile costs differ as much
        as their hit costs), and over ``rename_every`` rounds every key
        misses once."""
        rng = random.Random(f"daemon:{seed}:{client}")
        count = len(self.keys)
        for cycle in itertools.count():
            for position, key in enumerate(rng.sample(range(count), count)):
                rename = (self.rename_every
                          and key % self.rename_every
                          == cycle % self.rename_every)
                yield key, (f"~{client}.{cycle}.{position}" if rename else "")

    def setup(self, daemon_trace: Path | None) -> None:
        self.requests = daemon_requests(self.keys)
        self.daemon = DaemonProcess(daemon_trace)
        host, port = self.daemon.start()
        self.connections = [
            ServerClient(host, port, client_id=f"load-{i}")
            for i in range(self.clients)
        ]
        # the warm sweep: every golden point compiled once, and checked
        mismatched = []
        for at in range(0, len(self.requests), WARM_CHUNK):
            chunk = self.requests[at:at + WARM_CHUNK]
            slots = self.connections[0].sweep(chunk)
            for key, slot in zip(self.keys[at:at + WARM_CHUNK], slots):
                if slot_signature(slot) != self.golden[key]:
                    mismatched.append(key)
        if mismatched:
            raise SetupError(f"warm sweep differs from the golden file at "
                             f"{len(mismatched)} keys: {mismatched[:10]}")

    def invoke(self, client: int, op: tuple[int, str]) -> Any:
        key, suffix = op
        request = self.requests[key]
        if suffix:
            request = renamed(request, suffix)
        try:
            return self.connections[client].compile_request(request)
        except JobError as refusal:  # a replayed compiler refusal is data
            return refusal

    def check(self, op: tuple[int, str], result: Any) -> tuple[int, list[str]]:
        key = self.keys[op[0]]
        if slot_signature(result) == self.golden[key]:
            return 1, []
        what = (describe(result) if isinstance(result, BaseException)
                else "artifact signature differs from the golden file")
        return 1, [f"{key}{op[1]}: {what}"]

    def counters(self) -> dict[str, float]:
        """The daemon's ``stats`` op; also marks the measured window in
        the daemon's trace."""
        stats = self.connections[0].stats()
        service = stats["service"]
        batcher = stats["server"]["batcher"]
        return {
            "cache_hits": service["cache_hits"],
            "dedup_hits": service["dedup_hits"],
            "compiles": service["compiles"],
            "batches": batcher["batches"],
            "batched_points": batcher["batched_points"],
            "coalesced": batcher["coalesced"],
            "submitted": batcher["submitted"],
        }

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop(self.connections[0] if self.connections else None)
            self.daemon = None
        for connection in self.connections:
            connection.close()
        self.connections = []


# -- exec-hot -------------------------------------------------------------------

class ExecHot(Workload):
    """The LUD/GE/Hydro exec sweep on a shared warm service."""

    name = "exec-hot"
    round_s = 0.32

    def ops(self, seed: int, client: int) -> Iterator[None]:
        # the seed is ignored: the kernels' fixed inputs pin the digest
        return itertools.repeat(None)

    def setup(self, daemon_trace: Path | None) -> None:
        self.expected = load_expected()[self.name]
        self.service = CompileService()
        _, failures = self.check(None, self.invoke(0, None))
        if failures:
            raise SetupError(f"warm exec round: {failures[0]}")

    def invoke(self, client: int, op: None) -> Any:
        return run_exec_sweep(service=self.service, sizes=EXEC_SIZES,
                              repeats=EXEC_REPEATS)

    def check(self, op: None, result: Any) -> tuple[int, list[str]]:
        if isinstance(result, BaseException):
            return EXEC_TASKS, [f"exec-sweep: {describe(result)}"]
        if result["digest"] != self.expected:
            return len(result["tasks"]), [
                f"exec-sweep: digest {result['digest'][:16]} "
                f"!= expected {self.expected[:16]}"]
        return len(result["tasks"]), []

    def counters(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        _add_service_counters(totals, self.service)
        return totals


# -- difftest -------------------------------------------------------------------

def case_verdict(case) -> str:
    """One difftest case's racecheck verdicts, per compiler pair."""
    if case.error:
        return f"error|{case.error}"
    parts = []
    for pair in case.pairs:
        kernels = ",".join(diff.status for diff in pair.kernels)
        parts.append(f"{pair.compiler}-{pair.target}:{pair.status}"
                     + (f"[{kernels}]" if kernels else ""))
    return ";".join(parts)


class Difftest(Workload):
    """Generated cases through every compiler pair, executed and
    race-checked.  Every case runs cold, as in a fresh ``repro
    difftest``: a new CompileService and an empty kernel memo, so a
    round that repeats the pool costs what the first one did."""

    name = "difftest"
    round_size = len(DIFFTEST_POOL)
    round_s = 3.2

    def __init__(self) -> None:
        self._counters: dict[str, float] = {"unexplained": 0}
        self.unexplained: dict[int, list[str]] = {}

    def ops(self, seed: int, client: int) -> Iterator[int]:
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield from rng.sample(DIFFTEST_POOL, len(DIFFTEST_POOL))

    def setup(self, daemon_trace: Path | None) -> None:
        self.expected = {
            seed: verdict
            for verdict, seeds in load_expected()[self.name].items()
            for seed in seeds
        }
        run_difftest([DIFFTEST_WARMUP_SEED], service=CompileService())

    def invoke(self, client: int, op: int) -> Any:
        clear_kernel_cache(memory_only=True)
        service = CompileService()
        return run_difftest([op], service=service), service

    def check(self, op: int, result: Any) -> tuple[int, list[str]]:
        if isinstance(result, BaseException):
            return 1, [f"seed {op}: {describe(result)}"]
        report, service = result
        _add_service_counters(self._counters, service)
        case = report.cases[0]
        if not case.explained:
            self._counters["unexplained"] += 1
            self.unexplained[op] = case.unexplained_details()
        verdict = case_verdict(case)
        if verdict != self.expected[op]:
            return 1, [f"seed {op}: verdict {verdict!r} != expected "
                       f"{self.expected[op]!r}"]
        return 1, []

    def counters(self) -> dict[str, float]:
        return dict(self._counters)

    def notes(self) -> list[str]:
        # expected.json pins these verdicts: known, not failed
        return [f"difftest: seed {seed}: known unexplained divergence "
                f"{detail}"
                for seed, details in sorted(self.unexplained.items())
                for detail in details]


WORKLOADS = {
    "fig4-cold": Fig4Cold,
    "daemon-warm": lambda: Daemon("daemon-warm", 0),
    "daemon-mixed": lambda: Daemon("daemon-mixed", MIXED_RENAME_EVERY),
    "exec-hot": ExecHot,
    "difftest": Difftest,
}


def make(name: str) -> Workload:
    return WORKLOADS[name]()
