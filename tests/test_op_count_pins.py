"""Pinned op counts and launch profiles of every compiled benchmark kernel.

``count_ops`` is lowered once per statement into a program over loop trip
counts, and each :class:`~repro.compilers.framework.CompiledKernel` keeps
its launch-invariant facts on itself.  Both must reproduce the plain
recursive count exactly, so this battery pins, for

* every kernel of every benchmark stage (plus the optimization-ladder
  rungs) through every (compiler, target) pair of the paper's matrix,
* every hand-written OpenCL program on GPU and MIC,
* the kernels of a few difftest generator seeds, and
* a handful of hand-written kernels that reach every statement kind
  (``While``, branches around inner loops, non-affine bounds),

the ``count_ops`` result of the kernel body and of every loop body at
four envs (full sizes, other sizes, a partial env that leaves bounds to
the ``_default_trip`` hint, and no env at all, which leaves them to
``DEFAULT_TRIP``), with ``divergent`` on and off; and the ``launch_config``,
``work_profile`` and ``host_profile`` of every compiled kernel.

Each kernel's results are hashed to one sha256 prefix in
``op_count_pins.json``, generated from the plain recursive
implementation (``python tests/test_op_count_pins.py`` rewrites it).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

PINS_PATH = Path(__file__).resolve().parent / "op_count_pins.json"

#: the paper's OpenACC compiler/target matrix
ACC_PAIRS = (("caps", "cuda"), ("caps", "opencl"), ("pgi", "cuda"))

DIFFTEST_SEEDS = (0, 1, 2, 3, 4, 5)

#: kernels that reach what the benchmarks do not: a ``While``, branches
#: whose arms hold loops (so ``divergent=False`` rounds a trip-dependent
#: sum), a bound that does not linearize, a triangular nest, and
#: repeated loads across an ``If`` (register CSE)
EXTRA_SOURCES = (
    """
void w(float *a, const float *b, int n, int m) {
    int i; int j; int t;
    t = 0;
    while (t < m) {
        for (i = 0; i < n; i++) {
            if (b[i] > 0.5f) {
                for (j = i; j < n; j++) { a[j] += b[i] * b[j]; }
            } else {
                for (j = 0; j < m; j++) { a[i] = a[i] - b[j] / 3.0f; }
                a[i] = sqrt(a[i]);
            }
        }
        t = t + 1;
    }
}
""",
    """
void d(float *a, const float *b, const int *e, int n) {
    int i; int j;
    for (i = 0; i < n / 2; i++) {
        for (j = e[i]; j < e[i + 1]; j++) {
            a[i] = a[i] + (b[j] > a[i] ? b[j] : a[i]);
        }
        if (i > 3) { a[i] = (float)(i * 2) + b[i]; }
    }
    for (i = 1; i < n * n; i += 3) {
        if (a[i] < 0.0f) { a[i] = 0.0f; }
        a[i] = fmax(a[i], b[i]) + b[i];
    }
}
""",
)


def _envs(kernel) -> dict[str, dict[str, int] | None]:
    scalars = [p.name for p in kernel.scalar_params]
    partial = {"_default_trip": 5}
    if scalars:
        partial[scalars[0]] = 50
    return {
        "same": {name: 37 for name in scalars},
        "sized": {name: 96 - 20 * pos for pos, name in enumerate(scalars)},
        "partial": partial,
        "none": None,
    }


def _ops(counts) -> list[int]:
    return [getattr(counts, f.name) for f in dataclasses.fields(counts)]


def _profile(profile) -> list:
    return [
        profile.items,
        _ops(profile.ops),
        profile.bytes_per_item,
        profile.coalesced_fraction,
        profile.working_set_bytes,
        profile.vectorizable_fraction,
    ]


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def kernel_op_counts(kernel) -> dict:
    """``count_ops`` of the body and of every loop body, per env."""
    from repro.analysis.patterns import count_ops

    out = {}
    stmts = [("body", kernel.body)] + [
        (f"loop{pos}", loop.body) for pos, loop in enumerate(kernel.loops())
    ]
    for env_name, env in _envs(kernel).items():
        for where, stmt in stmts:
            for divergent in (True, False):
                counts = count_ops(stmt, env, divergent=divergent)
                out[f"{where}/{env_name}/{divergent}"] = _ops(counts)
    return out


def compiled_launch_facts(compiled) -> dict:
    """Launch geometry and work profiles of one compiled kernel, per env."""
    out = {"ops": kernel_op_counts(compiled.ir)}
    for env_name, env in _envs(compiled.ir).items():
        if env is None:
            continue
        config = compiled.launch_config(env)
        out[f"config/{env_name}"] = [
            list(config.grid), list(config.block), config.sequential
        ]
        out[f"profile/{env_name}"] = _profile(
            compiled.work_profile(env, 1.0e6)
        )
        out[f"host/{env_name}"] = _profile(
            compiled.host_profile(env, 2.0e6)
        )
    return out


def collect_pins() -> dict[str, str]:
    """Every pinned kernel key -> sha256 prefix of its counts."""
    from repro.compilers.framework import CompilationError
    from repro.compilers.opencl import compile_opencl
    from repro.core.ladder import ladder_stages
    from repro.core.method import compile_stage
    from repro.difftest.generator import generate_case
    from repro.frontend import parse_kernel
    from repro.kernels import BENCHMARKS, get_benchmark

    out: dict[str, str] = {}

    def add_result(prefix: str, result) -> None:
        for compiled in result.kernels:
            out[f"{prefix}/{compiled.name}"] = _digest(
                compiled_launch_facts(compiled)
            )

    for name in sorted(BENCHMARKS):
        benchmark = get_benchmark(name)
        stages = dict(benchmark.stages())
        stages.update(ladder_stages(benchmark.module()))
        for stage, module in stages.items():
            for kernel in module.kernels:
                out[f"{name}/{stage}/source/{kernel.name}"] = _digest(
                    kernel_op_counts(kernel)
                )
            for compiler, target in ACC_PAIRS:
                try:
                    result = compile_stage(module, compiler, target)
                except CompilationError:
                    continue
                add_result(f"{name}/{stage}/{compiler}-{target}", result)
        program = benchmark.opencl_program()
        if program is not None:
            for device in ("gpu", "mic"):
                add_result(f"{name}/opencl/{device}",
                           compile_opencl(program, device))

    for seed in DIFFTEST_SEEDS:
        module = generate_case(seed).module
        for kernel in module.kernels:
            out[f"difftest/seed{seed}/source/{kernel.name}"] = _digest(
                kernel_op_counts(kernel)
            )
        for compiler, target in ACC_PAIRS:
            try:
                result = compile_stage(module, compiler, target)
            except CompilationError:
                continue
            add_result(f"difftest/seed{seed}/{compiler}-{target}", result)

    for source in EXTRA_SOURCES:
        kernel = parse_kernel(source)
        out[f"extra/{kernel.name}"] = _digest(kernel_op_counts(kernel))
    return out


@pytest.fixture(scope="module")
def pins() -> dict[str, str]:
    return json.loads(PINS_PATH.read_text())


@pytest.fixture(scope="module")
def current() -> dict[str, str]:
    return collect_pins()


def test_pins_cover_every_kernel(pins, current):
    assert sorted(current) == sorted(pins)
    # the battery is only as strong as its reach
    assert len(pins) > 500
    assert any(key.startswith("difftest/") for key in pins)
    assert any("/opencl/mic/" in key for key in pins)


def test_op_counts_and_launch_profiles_match_pins(pins, current):
    moved = sorted(key for key in pins if current.get(key) != pins[key])
    assert moved == [], f"{len(moved)} kernel(s) moved, e.g. {moved[:5]}"


def test_extra_kernels_reach_every_statement_kind():
    from repro.frontend import parse_kernel
    from repro.ir.stmt import For, If, While

    kinds = set()
    for source in EXTRA_SOURCES:
        for stmt in parse_kernel(source).body.walk():
            kinds.add(type(stmt))
            if isinstance(stmt, If) and any(
                isinstance(s, For) for s in stmt.then_body.walk()
            ):
                kinds.add("loop-in-branch")
    assert {While, If, For, "loop-in-branch"} <= kinds


if __name__ == "__main__":
    PINS_PATH.write_text(json.dumps(collect_pins(), indent=1, sort_keys=True)
                         + "\n")
    print(f"wrote {PINS_PATH}")
