"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``compile FILE``   — run a mini-C + OpenACC source through a compiler
  model; print the log, the schedule, and (optionally) the PTX.
* ``analyze FILE``   — per-loop dependence report (paper Step 1's view).
* ``bench NAME``     — drive one benchmark's optimization stages and print
  the paper-style elapsed-time table.
* ``experiment ID``  — regenerate one paper table/figure (or ``all``).
* ``heatmap``        — the Fig. 4 thread-distribution heat map.
* ``autotune``       — the future-work auto-tuner on LUD.
* ``difftest``       — seeded cross-compiler differential fuzzing with a
  static race checker (docs/DIFFTEST.md).
* ``telemetry FILE`` — render a saved trace (either format) as the
  hierarchical text report (docs/TELEMETRY.md).
* ``serve``          — run the compile daemon: many clients, one shared
  cache/scheduler, batching + admission control (docs/SERVER.md).
* ``client``         — talk to a running daemon: ``compile``, ``sweep``,
  ``status``, ``stats`` (or ``--spawn`` an ephemeral in-process one).
* ``exec-sweep``     — run the execution-heavy GE/LUD/Hydro kernel sweep
  and print its result digest (docs/EXECUTOR.md).

``heatmap`` and ``autotune`` accept ``--ladder RUNGS`` to climb the
registered optimization rungs (``fuse-reuse``, ``shared-tile``; see
:mod:`repro.core.ladder`) on every explored configuration.

``bench``, ``experiment``, ``matrix``, ``heatmap``, ``autotune``,
``exec-sweep`` and ``difftest`` each compile through one
:mod:`repro.service` compile cache (see docs/SERVICE.md).  All but
``bench`` take ``--jobs N``, ``--cache-dir PATH`` and the resilience
flags to configure it; with any of them set, the service's stats are
appended (``exec-sweep`` excepted: its stdout is one JSON document), and
the rest of the output is byte-identical to the default.

``experiment``, ``exec-sweep`` and ``difftest`` — the commands that
execute kernels — accept ``--exec-backend {scalar,vector,check}`` to pick
the kernel executor backend — the scalar interpreter, the vectorizing
NumPy backend, or a differential mode that runs both and asserts
bit-identical results (see docs/EXECUTOR.md).  Every command that
compiles accepts ``--trace FILE`` (plus
``--trace-format {jsonl,chrome}``) to record
the run's tool-chain timeline — frontend, compiler passes, PTX codegen,
cache hits/compiles, scheduler worker lanes, modeled runtime events —
through :mod:`repro.telemetry` (see docs/TELEMETRY.md).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path


def _cmd_compile(args: argparse.Namespace) -> int:
    from .core.method import compile_stage
    from .frontend import parse_module

    source = Path(args.file).read_text()
    module = parse_module(source, Path(args.file).stem)
    compiled = compile_stage(module, args.compiler, args.target)
    print(f"# {compiled.compiler} -> {compiled.target}")
    for line in compiled.log:
        print(f"log: {line}")
    env = {"n": args.size, "size": args.size, "num_nodes": args.size}
    for kernel in compiled.kernels:
        config = kernel.launch_config(env)
        print(f"\nkernel {kernel.name}: {kernel.distribution.strategy.value}"
              f" -> {config.describe()}")
        if args.ptx and kernel.ptx is not None:
            print(kernel.ptx.render())
        if kernel.ptx is not None and not args.ptx:
            from .ptx.counter import InstructionProfile

            row = InstructionProfile.of(kernel.ptx).as_row()
            print("  static PTX:",
                  ", ".join(f"{k}={v}" for k, v in row.items()))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis.dependence import analyze_loop
    from .frontend import parse_module

    source = Path(args.file).read_text()
    module = parse_module(source, Path(args.file).stem)
    for kernel in module.kernels:
        print(f"kernel {kernel.name}:")
        for loop in kernel.loops():
            report = analyze_loop(loop)
            print(f"  loop over {loop.var!r}: {report.verdict.value}")
            for reason in report.reasons:
                print(f"    - {reason}")
            for reduction in report.reductions:
                print(f"    - reduction candidate: "
                      f"{reduction.op}:{reduction.var}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .core.method import format_rows, run_opencl, run_stage
    from .devices import device_by_name
    from .kernels import get_benchmark
    from .telemetry import get_tracer

    bench = get_benchmark(args.name)
    n = args.size or min(bench.meta.paper_size, 1 << 20)
    device = device_by_name(args.device)
    target = "cuda" if device.kind.value == "gpu" else "opencl"
    with _build_service(args) as service, get_tracer().span(
        "bench", category="cli", label=args.name,
        device=device.name, compiler=args.compiler,
    ):
        rows = [
            run_stage(bench, module, stage, args.compiler, target, device,
                      n, service=service)
            for stage, module in bench.stages().items()
        ]
        if args.opencl and bench.opencl_program() is not None:
            rows.append(run_opencl(bench, "opencl", device, n))
    print(f"{bench.meta.name} (n = {n}) on {device.name} via {args.compiler}")
    print(format_rows(rows))
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    from .core.matrix import DEVICE_COUNTS, run_matrix
    from .devices.topology import NVLINK_LINK
    from .kernels import MATRIX_FAMILIES

    families = (tuple(part.strip() for part in args.families.split(",")
                      if part.strip())
                if args.families else MATRIX_FAMILIES)
    counts = (tuple(int(part) for part in args.devices.split(","))
              if args.devices else DEVICE_COUNTS)
    with _build_service(args) as service:
        report = run_matrix(
            families=families, n=args.size, device_counts=counts,
            service=service, peer=NVLINK_LINK if args.peer else None,
        )
        print(report.render())
        print()
        print(f"digest: {report.digest()}")
        _print_service_stats(args, service)
    return 0


def _int_at_least(minimum: int, at_most: int | None = None):
    """argparse type for a count, size or port flag: a value below
    *minimum* (or above *at_most*) is a usage error (exit 2), as is a
    non-integer."""
    if at_most is not None:
        expected = f"an integer in {minimum}..{at_most}"
    else:
        expected = {0: "a non-negative integer", 1: "a positive integer"}.get(
            minimum, f"an integer >= {minimum}")

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum or (at_most is not None and value > at_most):
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {text!r}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value: ..."
    return parse


#: a TCP port; 0 asks the OS for an ephemeral one
_PORT = _int_at_least(0, at_most=65535)


def _positive_float(text: str) -> float:
    """argparse type for a rate or allowance flag: zero, a negative value,
    ``inf`` or ``nan`` is a usage error (exit 2), as is a non-number."""
    value = float(text)
    if not (0.0 < value < math.inf):
        raise argparse.ArgumentTypeError(
            f"expected a positive finite number, got {text!r}")
    return value


_positive_float.__name__ = "float"  # argparse's "invalid float value: ..."


def _resilience_from_args(args: argparse.Namespace) -> dict:
    """Translate --faults/--retries into CompileService
    keyword arguments (docs/FAULTS.md).  Empty dict when none are set
    (or the command has none of them)."""
    from .faults import parse_fault_spec

    kwargs: dict = {}
    spec = getattr(args, "faults", None)
    if spec:
        kwargs["fault_plan"] = parse_fault_spec(spec)
    retries = getattr(args, "retries", None)
    if retries is None and spec:
        retries = 3  # faults without --retries still get retried
    if retries:
        kwargs["retries"] = retries
    return kwargs


def _build_service(args: argparse.Namespace):
    """The CompileService a command compiles through: --jobs,
    --cache-dir and the resilience flags (the defaults for a command
    without them).  Its service and cache counters live in the
    process-wide registry, so a traced run exports them."""
    from .service import CompileService
    from .service.cache import ArtifactCache
    from .telemetry import get_registry

    registry = get_registry()
    return CompileService(
        cache=ArtifactCache(cache_dir=getattr(args, "cache_dir", None),
                            registry=registry),
        jobs=getattr(args, "jobs", 1), registry=registry,
        **_resilience_from_args(args),
    )


def _daemon_service_kwargs(args: argparse.Namespace) -> dict:
    """A daemon's CompileService keyword arguments: the resilience flags,
    and the process-wide registry for every daemon counter."""
    from .telemetry import get_registry

    return {**_resilience_from_args(args), "registry": get_registry()}


def _print_service_stats(args: argparse.Namespace, service) -> None:
    """Append the service's stats when any service flag is set: --jobs
    other than 1, --cache-dir, --faults or --retries."""
    if args.jobs != 1 or any(
        getattr(args, flag) is not None
        for flag in ("cache_dir", "faults", "retries")
    ):
        print()
        print("\n".join(service.report_lines()))


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import ALL_EXPERIMENTS
    from .telemetry import get_tracer

    names = list(ALL_EXPERIMENTS) if "all" in args.ids else args.ids
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; choose from "
              f"{sorted(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2
    failures = 0
    with _build_service(args) as service:
        for name in names:
            with get_tracer().span(f"experiment.{name}", category="cli",
                                   label=name):
                result = ALL_EXPERIMENTS[name](
                    service, paper_scale=args.paper_scale)
            print(result.report())
            print()
            failures += len(result.failed_claims())
        _print_service_stats(args, service)
    return 1 if failures else 0


def _cmd_heatmap(args: argparse.Namespace) -> int:
    from .core.ladder import normalize_ladder
    from .core.search import lud_heatmap
    from .devices import device_by_name
    from .kernels import get_benchmark

    device = device_by_name(args.device)
    ladder = normalize_ladder(args.ladder)
    with _build_service(args) as service:
        heatmap = lud_heatmap(get_benchmark("lud"), device, args.compiler,
                              n=args.size, service=service, ladder=ladder)
        print(heatmap.render())
        _print_service_stats(args, service)
    return 0


def _cmd_autotune(args: argparse.Namespace) -> int:
    from .core.autotune import (
        exhaustive_tune,
        hill_climb_tune,
        make_lud_evaluator,
        portable_tune,
        prewarm_lud_grid,
    )
    from .core.ladder import normalize_ladder
    from .devices import K40, PHI_5110P
    from .kernels import get_benchmark

    bench = get_benchmark("lud")
    ladder = normalize_ladder(args.ladder)
    # tuners always share one service: the exhaustive sweep, the hill
    # climber, and the portable tuner revisit the same configurations
    with _build_service(args) as service:
        if args.jobs > 1:
            # fan the whole candidate grid over the worker pool up front;
            # the (serial) tuning loops below then run compile-free
            prewarm_lud_grid(bench, K40, service, ladder=ladder)
            prewarm_lud_grid(bench, PHI_5110P, service, ladder=ladder)
        ev_gpu = make_lud_evaluator(bench, K40, n=args.size,
                                    service=service, ladder=ladder)
        ev_mic = make_lud_evaluator(bench, PHI_5110P, n=args.size,
                                    service=service, ladder=ladder)
        print("exhaustive (K40):  ",
              exhaustive_tune(ev_gpu, device_name="K40").describe())
        print("hill climb (K40):  ",
              hill_climb_tune(ev_gpu, device_name="K40").describe())
        portable, per_device = portable_tune({"gpu": ev_gpu, "mic": ev_mic})
        print("portable (GPU+MIC):", portable.describe())
        for name, seconds in sorted(per_device.items()):
            print(f"  {name}: {seconds:.4g}s")
        _print_service_stats(args, service)
    return 0


def _cmd_difftest(args: argparse.Namespace) -> int:
    from .difftest import replay_file, run_difftest

    with _build_service(args) as service:
        if args.replay is not None:
            result = replay_file(args.replay, service)
            status = "EXPLAINED" if result.explained else "UNEXPLAINED"
            print(f"replay {args.replay}: {status}")
            for detail in result.unexplained_details():
                print(f"  {detail}")
            _print_service_stats(args, service)
            return 0 if result.explained else 1

        seeds = range(args.start, args.start + args.seeds)
        report = run_difftest(
            seeds, service=service, shrink=args.shrink, out_dir=args.out,
            log=lambda line: print(f"  FAIL {line}", file=sys.stderr),
            exec_backend=args.exec_backend,
        )
        print("\n".join(report.summary_lines()))
        for case in report.unexplained:
            if case.reproducer:
                print(f"  reproducer: {case.reproducer}")
        _print_service_stats(args, service)
    return 1 if report.unexplained else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .server import ReproServer, ServerConfig, run_server_smoke

    config = ServerConfig(
        host=args.host, port=args.port, jobs=args.jobs,
        cache_dir=args.cache_dir, shards=args.shards,
        peer_dirs=tuple(args.peer_dir or ()),
        max_queue_depth=args.queue_depth,
        quota_rate=args.quota_rate, quota_burst=args.quota_burst,
        service_kwargs=_daemon_service_kwargs(args),
    )
    if args.self_test:
        report = run_server_smoke(clients=args.clients, points=args.points,
                                  jobs=args.jobs, config=config)
        print("\n".join(report.lines()))
        return 0 if report.ok else 1

    server = ReproServer(config).start()
    host, port = server.address
    print(f"repro server listening on {host}:{port} "
          f"(jobs={args.jobs}, shards={args.shards}, "
          f"queue-depth={args.queue_depth})", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("draining...", file=sys.stderr)
    finally:
        server.drain()
        print("\n".join(server.report_lines()))
    return 0


def _client_connection(args: argparse.Namespace):
    """Connect per --host/--port, or --spawn an in-process daemon.

    Returns a context manager yielding the connected ServerClient.
    """
    import contextlib

    from .server import ServerClient, ServerConfig, spawn_local

    if args.spawn:
        config = ServerConfig(jobs=args.jobs, cache_dir=args.cache_dir,
                              service_kwargs=_daemon_service_kwargs(args))

        @contextlib.contextmanager
        def spawned():
            with spawn_local(config, client_id=args.id) as (_server, client):
                yield client

        return spawned()
    return ServerClient(args.host, args.port, client_id=args.id)


def _cmd_client(args: argparse.Namespace) -> int:
    import json

    from .server import artifact_signature, fig4_requests
    from .service import JobError

    try:
        connection = _client_connection(args)
    except ConnectionError as exc:
        print(f"repro: cannot reach server {args.host}:{args.port}: {exc} "
              f"(is `repro serve` running? or pass --spawn)", file=sys.stderr)
        return 1
    with connection as client:
        if args.client_command == "status":
            print(json.dumps(client.status(), indent=2, sort_keys=True))
            return 0
        if args.client_command == "stats":
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.client_command == "compile":
            source = Path(args.file).read_text()
            artifact = client.compile_source(
                source, args.compiler, args.target, Path(args.file).stem
            )
            print(f"# {artifact.compiler} -> {artifact.target} (via daemon)")
            for line in artifact.log:
                print(f"log: {line}")
            for kernel in artifact.kernels:
                print(f"kernel {kernel.name}: "
                      f"{kernel.distribution.strategy.value}")
            return 0
        # sweep: drive the Fig. 4 grid through the daemon
        requests = fig4_requests(args.points, compiler=args.compiler)
        slots = client.sweep(requests)
        failures = 0
        for request, slot in zip(requests, slots):
            if isinstance(slot, JobError):
                failures += 1
                print(f"  FAIL {request.label}: {slot}")
        digest = __import__("hashlib").sha256(
            "\x1d".join(artifact_signature(s) for s in slots).encode()
        ).hexdigest()
        print(f"sweep: {len(slots)} points, {failures} failed "
              f"(result digest {digest[:16]})")
        stats = client.stats()
        service = stats.get("service", {})
        print(f"server: {service.get('compiles', '?')} compiles, "
              f"{service.get('cache_hits', '?')} cache hits, "
              f"{stats.get('server', {}).get('batcher', {}).get('coalesced', 0)} "
              f"coalesced")
        return 1 if failures else 0


def _cmd_exec_sweep(args: argparse.Namespace) -> int:
    import json

    from .runtime.parallel import run_exec_sweep
    from .telemetry import get_registry

    sizes = None
    if args.size is not None:
        sizes = {"ge": args.size, "lud": args.size, "hydro": args.size}
    with _build_service(args) as service:
        result = run_exec_sweep(
            service=service, backend=args.exec_backend or "vector",
            sizes=sizes, repeats=args.repeats,
        )
    counters = {
        name: value
        for name, value in get_registry().snapshot()["counters"].items()
        if name.startswith("executor.")
    }
    payload = {
        "backend": result["backend"],
        "counters": counters,
        "digest": result["digest"],
        "sizes": result["sizes"],
        "tasks": result["tasks"],
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"sweep: {len(result['tasks'])} tasks in "
          f"{result['seconds']:.3f}s", file=sys.stderr)
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from .telemetry import load_trace, text_report

    spans, metrics = load_trace(args.file)
    print(text_report(spans, metrics, max_tree_lines=args.limit))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Simulated OpenACC performance-portability tool-chain "
                    "(IPPS 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_service_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs", type=_int_at_least(1), default=1, metavar="N",
            help="compile sweep points on N worker threads (results are "
                 "deterministic and identical to --jobs 1)",
        )
        p.add_argument(
            "--cache-dir", default=None, metavar="PATH",
            help="persist compiled artifacts to PATH (content-addressed; "
                 "a warm cache makes re-sweeps compile-free, and rerunning "
                 "a killed sweep on the same PATH resumes it)",
        )

    def add_resilience_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--faults", default=None, metavar="SPEC",
            help="inject deterministic tool-chain faults, e.g. "
                 "'transient:p=0.3,seed=11' or "
                 "'persistent:p=0.02;transient:p=0.2;cache:p=0.05' "
                 "(docs/FAULTS.md); implies 3 retries unless --retries "
                 "says otherwise",
        )
        p.add_argument(
            "--retries", type=_int_at_least(0), default=None, metavar="N",
            help="retry transient compile failures up to N times with "
                 "exponential backoff (default: 3 with --faults, else 0)",
        )

    def add_exec_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--exec-backend", choices=("scalar", "vector", "check"),
            default=None, metavar="B",
            help="kernel executor backend: scalar interpreter, vectorizing "
                 "NumPy backend, or check (run both, assert bit-identical; "
                 "docs/EXECUTOR.md); default scalar (exec-sweep: vector)",
        )

    def add_trace_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace", default=None, metavar="FILE",
            help="record the run's tool-chain timeline (spans + metrics) "
                 "to FILE (docs/TELEMETRY.md)",
        )
        p.add_argument(
            "--trace-format", choices=("jsonl", "chrome"), default="jsonl",
            help="trace file format: JSON lines, or Chrome trace events "
                 "loadable in chrome://tracing / Perfetto (default jsonl)",
        )

    p = sub.add_parser("compile", help="compile a mini-C + OpenACC source")
    p.add_argument("file")
    p.add_argument("--compiler", choices=("caps", "pgi"), default="caps")
    p.add_argument("--target", choices=("cuda", "opencl"), default="cuda")
    p.add_argument("--ptx", action="store_true", help="print full listings")
    p.add_argument("--size", type=_int_at_least(1), default=4096,
                   help="problem size for launch-config resolution")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("analyze", help="per-loop dependence report")
    p.add_argument("file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("bench", help="drive one benchmark's stages")
    p.add_argument("name", choices=("lud", "ge", "bfs", "bp", "hydro",
                                    "stencil", "lbm", "pic"))
    p.add_argument("--compiler", choices=("caps", "pgi"), default="caps")
    p.add_argument("--device", default="gpu")
    p.add_argument("--size", type=_int_at_least(1), default=None)
    p.add_argument("--opencl", action="store_true",
                   help="include the hand-written OpenCL version")
    add_trace_flags(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "matrix",
        help="the multi-device portability matrix: family x compiler x "
             "target x device count, with halo-exchange modeling "
             "(docs/WORKLOADS.md)",
    )
    p.add_argument("--families", default=None, metavar="LIST",
                   help="comma-separated kernel families "
                        "(default: stencil,lbm,pic)")
    p.add_argument("--size", type=_int_at_least(1), default=None, metavar="N",
                   help="problem size for every family "
                        "(default: each family's test size)")
    p.add_argument("--devices", default=None, metavar="LIST",
                   help="comma-separated device counts (default: 1,2,4)")
    p.add_argument("--peer", action="store_true",
                   help="give same-switch neighbor pairs an NVLink-class "
                        "peer link instead of sharing the PCIe root")
    add_service_flags(p)
    add_resilience_flags(p)
    add_trace_flags(p)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("experiment", help="regenerate paper tables/figures")
    p.add_argument("ids", nargs="+",
                   help="experiment ids (e.g. fig3 table7) or 'all'")
    p.add_argument("--paper-scale", action="store_true")
    add_service_flags(p)
    add_resilience_flags(p)
    add_exec_flags(p)
    add_trace_flags(p)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("heatmap", help="the Fig. 4 heat map")
    p.add_argument("--device", default="gpu")
    p.add_argument("--compiler", choices=("caps", "pgi"), default="caps")
    p.add_argument("--size", type=_int_at_least(1), default=2048)
    p.add_argument("--ladder", default=None, metavar="RUNGS",
                   help="climb optimization rungs on every grid point: "
                        "comma-separated rung names (fuse-reuse,shared-tile), "
                        "'full', or 'none' (default none)")
    add_service_flags(p)
    add_resilience_flags(p)
    add_trace_flags(p)
    p.set_defaults(func=_cmd_heatmap)

    p = sub.add_parser("autotune", help="auto-tune LUD thread distribution")
    p.add_argument("--size", type=_int_at_least(1), default=1024)
    p.add_argument("--ladder", default=None, metavar="RUNGS",
                   help="climb optimization rungs on every configuration: "
                        "comma-separated rung names (fuse-reuse,shared-tile), "
                        "'full', or 'none' (default none)")
    add_service_flags(p)
    add_resilience_flags(p)
    add_trace_flags(p)
    p.set_defaults(func=_cmd_autotune)

    p = sub.add_parser(
        "exec-sweep",
        help="run the execution-heavy GE/LUD/Hydro kernel sweep and print "
             "its result digest (docs/EXECUTOR.md)",
    )
    p.add_argument("--size", type=_int_at_least(2), default=None, metavar="N",
                   help="problem size for every benchmark in the sweep "
                        "(default: ge=96 lud=128 hydro=96)")
    p.add_argument("--repeats", type=_int_at_least(1), default=1, metavar="N",
                   help="run each kernel task N times (default 1)")
    add_service_flags(p)
    add_resilience_flags(p)
    add_exec_flags(p)
    add_trace_flags(p)
    p.set_defaults(func=_cmd_exec_sweep)

    p = sub.add_parser(
        "difftest",
        help="seeded cross-compiler differential fuzzing (docs/DIFFTEST.md)",
    )
    p.add_argument("--seeds", type=_int_at_least(1), default=50, metavar="N",
                   help="number of generator seeds to sweep (default 50)")
    p.add_argument("--start", type=_int_at_least(0), default=0, metavar="N",
                   help="first seed (default 0)")
    p.add_argument("--shrink", action="store_true",
                   help="shrink unexplained failures to minimal reproducers")
    p.add_argument("--out", default="difftest-failures", metavar="DIR",
                   help="directory for shrunk reproducers")
    p.add_argument("--replay", default=None, metavar="FILE",
                   help="re-run one dumped reproducer instead of sweeping")
    add_service_flags(p)
    add_resilience_flags(p)
    add_exec_flags(p)
    add_trace_flags(p)
    p.set_defaults(func=_cmd_difftest)

    p = sub.add_parser(
        "serve",
        help="run the compile daemon: shared cache, batching, admission "
             "control (docs/SERVER.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_PORT, default=7453,
                   help="TCP port (0 picks an ephemeral one; default 7453)")
    p.add_argument("--shards", type=_int_at_least(1), default=16,
                   metavar="N",
                   help="artifact-store shards, each with its own lock "
                        "(default 16)")
    p.add_argument("--peer-dir", action="append", default=None, metavar="PATH",
                   help="read-through peer cache directory (repeatable): "
                        "local misses consult PATH before compiling")
    p.add_argument("--queue-depth", type=_int_at_least(1), default=256,
                   metavar="N",
                   help="admission bound on queued sweep points; beyond it "
                        "requests are rejected with 429 (default 256)")
    p.add_argument("--quota-rate", type=_positive_float, default=64.0,
                   metavar="R",
                   help="per-client sustained points/second (default 64)")
    p.add_argument("--quota-burst", type=_positive_float, default=256.0,
                   metavar="B",
                   help="per-client burst allowance in points (default 256)")
    p.add_argument("--self-test", action="store_true",
                   help="run the end-to-end smoke (concurrent clients, "
                        "byte-identity, coalescing, admission) and exit")
    p.add_argument("--clients", type=_int_at_least(1), default=4, metavar="N",
                   help="concurrent clients for --self-test (default 4)")
    p.add_argument("--points", type=_int_at_least(1), default=72, metavar="N",
                   help="Fig. 4 grid points for --self-test (default 72)")
    add_service_flags(p)
    add_resilience_flags(p)
    add_trace_flags(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "client",
        help="talk to a running repro serve daemon (docs/SERVER.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_PORT, default=7453)
    p.add_argument("--id", default="cli", metavar="NAME",
                   help="client id for quotas and trace lanes (default cli)")
    p.add_argument("--spawn", action="store_true",
                   help="spawn an ephemeral in-process daemon instead of "
                        "connecting (ignores --host/--port)")
    add_service_flags(p)
    add_resilience_flags(p)
    add_trace_flags(p)
    csub = p.add_subparsers(dest="client_command", required=True)

    cp = csub.add_parser("compile", help="compile one source via the daemon")
    cp.add_argument("file")
    cp.add_argument("--compiler", choices=("caps", "pgi"), default="caps")
    cp.add_argument("--target", choices=("cuda", "opencl"), default="cuda")

    cp = csub.add_parser("sweep",
                         help="drive the Fig. 4 grid through the daemon")
    cp.add_argument("--points", type=_int_at_least(1), default=None,
                    metavar="N",
                    help="grid points to sweep (default: all 72)")
    cp.add_argument("--compiler", choices=("caps", "pgi"), default="caps")

    csub.add_parser("status", help="print the daemon's status JSON")
    csub.add_parser("stats", help="print the daemon's counters JSON")
    p.set_defaults(func=_cmd_client)

    p = sub.add_parser(
        "telemetry",
        help="render a saved --trace file as a text report "
             "(docs/TELEMETRY.md)",
    )
    p.add_argument("file", help="a trace written by --trace (either format)")
    p.add_argument("--limit", type=_int_at_least(1), default=400, metavar="N",
                   help="max timeline-tree lines to render (default 400)")
    p.set_defaults(func=_cmd_telemetry)

    return parser


def _cli_errors(func):
    """Turn the structured failure modes into clean CLI exits: a bad
    --faults spec, an unusable --cache-dir, mini-C source that does
    not lex or parse, or a trace file that does not load is a usage
    error (2); a sweep point still failing after its retries are
    exhausted is a run failure (1), each reported as one line rather
    than a traceback."""
    import functools

    from .core.ladder import LadderError
    from .faults import FaultSpecError
    from .frontend import LexError, ParseError, PragmaError
    from .service import CacheDirError, JobError
    from .telemetry import TraceFileError

    @functools.wraps(func)
    def wrapped(args: argparse.Namespace) -> int:
        try:
            return func(args)
        except FaultSpecError as exc:
            print(f"repro: bad --faults spec: {exc}", file=sys.stderr)
            return 2
        except CacheDirError as exc:
            print(f"repro: bad --cache-dir: {exc}", file=sys.stderr)
            return 2
        except LadderError as exc:
            print(f"repro: bad --ladder spec: {exc}", file=sys.stderr)
            return 2
        except (LexError, ParseError, PragmaError) as exc:
            print(f"repro: bad source: {exc}", file=sys.stderr)
            return 2
        except TraceFileError as exc:
            print(f"repro: bad trace: {exc}", file=sys.stderr)
            return 2
        except JobError as exc:
            print(f"repro: sweep failed after retries: {exc}",
                  file=sys.stderr)
            return 1

    return wrapped


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    backend = getattr(args, "exec_backend", None)
    if backend is None:
        return _run(args)
    # every execute_kernel() call in the process honors this default
    # for the length of the command, so experiment needs no plumbing
    from .runtime.executor import set_default_backend

    previous = set_default_backend(backend)
    try:
        return _run(args)
    finally:
        set_default_backend(previous)


def _run(args: argparse.Namespace) -> int:
    trace_path = getattr(args, "trace", None)
    if trace_path is None:
        return _cli_errors(args.func)(args)
    try:
        # fail before the run rather than losing it at write_trace
        open(trace_path, "a").close()
    except OSError as exc:
        print(f"repro: bad --trace: {exc}", file=sys.stderr)
        return 2

    from .telemetry import (
        configure_tracer,
        get_registry,
        get_tracer,
        reset_registry,
        reset_tracer,
        write_trace,
    )

    configure_tracer(enabled=True)
    reset_registry()
    try:
        return _cli_errors(args.func)(args)
    finally:
        count = write_trace(trace_path, args.trace_format, get_tracer(),
                            get_registry())
        print(f"trace: {count} spans -> {trace_path} ({args.trace_format})",
              file=sys.stderr)
        reset_tracer()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
