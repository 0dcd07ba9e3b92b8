"""Docs-as-tests: execute every fenced ``python -m repro ...`` example.

Every fenced code block in README.md and docs/*.md is scanned for CLI
invocations (both the ``python -m repro`` and ``python -m repro.cli``
spellings).  Each command is normalized to a fast problem size — the
docs advertise paper-scale sweeps — and then actually executed through
:func:`repro.cli.main` in a scratch working directory.  A doc example
that stops parsing, references a removed flag, or exits non-zero fails
this suite, so the documentation cannot silently rot.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import main

ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))

#: normalization caps so the docs suite stays tier-1 fast
SEED_CAP = 3
SIZE_CAP = 512
BENCH_SIZES = {"bfs": 16384, "bp": 16384}  # graph/vector kernels; else 128

KERNEL_C = """
#pragma acc kernels
void demo(float *a, const float *b, int n) {
  int i;
  #pragma acc loop independent
  for (i = 0; i < n; i++) {
    a[i] = b[i] * 2.0f;
  }
}
"""

# the shape of a shrunk reproducer (docs/DIFFTEST.md): any mini-C file
# replays; a divergence-free one classifies as explained (exit 0)
SEED42_MIN_C = """
// difftest reproducer placeholder for the docs examples
void k0(double *b) {
    double s0 = 0.0;
    b[2] = s0;
}
"""


def extract_commands(path: Path) -> list[list[str]]:
    """All ``python -m repro[.cli]`` argv lists in *path*'s fenced blocks."""
    commands = []
    in_fence = False
    pending = ""
    for raw in path.read_text().splitlines():
        if raw.strip().startswith("```"):
            in_fence = not in_fence
            pending = ""
            continue
        if not in_fence:
            continue
        line = pending + raw.strip()
        if line.endswith("\\"):
            pending = line[:-1] + " "
            continue
        pending = ""
        if line.startswith("$ "):
            line = line[2:]
        if not re.match(r"python -m repro(\.cli)? ", line):
            continue
        tokens = shlex.split(line, comments=True)
        commands.append(tokens[3:])  # drop "python -m repro[.cli]"
    return commands


def _cap_flag(argv: list[str], flag: str, cap: int) -> list[str]:
    if flag in argv:
        i = argv.index(flag) + 1
        argv[i] = str(min(int(argv[i]), cap))
    return argv


def _force_flag(argv: list[str], flag: str, value: int) -> list[str]:
    if flag in argv:
        return _cap_flag(argv, flag, value)
    return argv + [flag, str(value)]


def normalized(argv: list[str]) -> list[str]:
    """Shrink a documented command to a tier-1-fast equivalent."""
    argv = list(argv)
    cmd = argv[0]
    if cmd == "experiment":
        argv = ["table2" if a == "all" else a for a in argv]
    argv = _cap_flag(argv, "--seeds", SEED_CAP)
    if cmd in ("heatmap", "autotune"):
        argv = _force_flag(argv, "--size", SIZE_CAP)
    elif cmd == "bench":
        argv = _force_flag(argv, "--size", BENCH_SIZES.get(argv[1], 128))
    elif cmd == "matrix":
        # the full default matrix is already sub-second at the families'
        # test sizes; only cap a documented paper-scale sweep
        argv = _cap_flag(argv, "--size", 64)
    elif cmd == "serve":
        # a documented daemon would block the suite: run its self-test
        # (real sockets, ephemeral port) at a tiny grid instead
        if "--self-test" not in argv:
            argv.append("--self-test")
        argv = _force_flag(argv, "--points", 4)
        argv = _force_flag(argv, "--clients", 2)
    elif cmd == "client":
        # documented clients talk to a long-lived daemon; the suite
        # spawns an ephemeral in-process one instead
        if "--spawn" not in argv:
            argv.insert(1, "--spawn")
        argv = _cap_flag(argv, "--points", 4)
    return argv


def reset_process_state() -> None:
    """Undo everything a CLI command can leave behind process-wide."""
    from repro.runtime.executor import (
        clear_kernel_cache,
        configure_plan_cache,
        set_default_backend,
    )
    from repro.service import reset_default_service
    from repro.telemetry import reset_registry, reset_tracer

    reset_default_service()
    set_default_backend("scalar")
    configure_plan_cache(None)
    clear_kernel_cache(memory_only=True)
    reset_tracer()
    reset_registry()


@pytest.fixture(scope="module")
def docs_cwd(tmp_path_factory):
    """One scratch directory shared by all doc files, pre-seeded with the
    input files the examples reference by name."""
    cwd = tmp_path_factory.mktemp("docs-examples")
    (cwd / "kernel.c").write_text(KERNEL_C)
    failures = cwd / "difftest-failures"
    failures.mkdir()
    (failures / "seed42_min.c").write_text(SEED42_MIN_C)
    return cwd


class TestExtraction:
    def test_docs_actually_contain_examples(self):
        """The audit floor: if a rewrite drops the runnable examples (or
        the extractor regresses), fail loudly instead of passing vacuously."""
        per_file = {str(p.relative_to(ROOT)): len(extract_commands(p))
                    for p in DOC_FILES}
        assert sum(per_file.values()) >= 25, per_file
        for required in ("README.md", "SERVICE.md", "FAULTS.md",
                         "TELEMETRY.md", "DIFFTEST.md", "EXECUTOR.md",
                         "WORKLOADS.md"):
            assert any(n.endswith(required) and count > 0
                       for n, count in per_file.items()), per_file

    def test_continuation_lines_are_joined(self):
        cmds = extract_commands(ROOT / "docs" / "TELEMETRY.md")
        assert any("--trace-format" in c and "difftest" in c for c in cmds)

    def test_index_reaches_every_docs_page(self):
        """Cross-link audit: docs/README.md links every docs/*.md page,
        and every page links back to the index."""
        index = (ROOT / "docs" / "README.md").read_text()
        for page in (ROOT / "docs").glob("*.md"):
            if page.name == "README.md":
                continue
            assert f"({page.name})" in index, f"{page.name} not in index"
            assert "README.md" in page.read_text(), \
                f"{page.name} has no link back to the index"
        readme = (ROOT / "README.md").read_text()
        assert "docs/ARCHITECTURE.md" in readme
        assert "docs/README.md" in readme


@pytest.mark.parametrize(
    "doc", DOC_FILES, ids=[p.name if p.parent == ROOT else f"docs-{p.name}"
                           for p in DOC_FILES]
)
def test_doc_examples_run(doc, docs_cwd, monkeypatch, capsys):
    """Run the file's examples in document order (later commands may read
    files earlier ones wrote, e.g. the telemetry trace)."""
    commands = extract_commands(doc)
    if not commands:
        pytest.skip(f"{doc.name} has no runnable examples")
    monkeypatch.chdir(docs_cwd)
    for argv in commands:
        argv = normalized(argv)
        reset_process_state()
        try:
            code = main(argv)
        finally:
            reset_process_state()
        out = capsys.readouterr()
        assert code == 0, (
            f"documented command failed in {doc.name}: "
            f"`python -m repro {' '.join(argv)}` -> exit {code}\n"
            f"stdout:\n{out.out}\nstderr:\n{out.err}"
        )
