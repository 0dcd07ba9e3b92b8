"""The full portability matrix: family × compiler × target × devices.

The paper's PPR (Fig. 16) compares one device per target.  The matrix
extends the verdict to **N-device** runs of the multi-device families
(``repro.kernels.MATRIX_FAMILIES``: stencil, lbm, pic): every cell is

    (family, compiler, target, device count k ∈ {1, 2, 4})

compiled through the :class:`~repro.service.CompileService` (cache,
worker pool, resilience — the same machinery as the Fig. 4
sweeps) and then *modeled*:

* the single-device modeled run gives ``T1`` (the per-cell baseline);
* a k-device chain splits the compute ``T1 / k`` and pays, per step,
  the halo bill of :func:`repro.perf.halo.halo_cost` on the node
  topology — pack + contended transfer + unpack, with the transfer
  hidden under compute when :func:`~repro.perf.halo.overlap_provable`
  accepts the schedule (stencil and LBM do; PIC's atomic scatter keeps
  its exchange exposed);
* PGI has no OpenCL backend: those cells are ``unsupported``, captured
  as the same deterministic refusal the difftest expects.

Telemetry: each modeled device gets a ``lane=device:<k>`` span per
step (compute + halo phases), so a traced ``repro matrix`` run renders
one chrome-trace swimlane per simulated device.

Determinism: compiled artifacts are content-addressed, the cost model
is closed-form, and cells are assembled in request order — the report
digest is byte-identical at ``--jobs 1`` vs ``4``, cold vs a rerun on
the same cache directory, and under a seeded fault plan with retries
(the determinism battery pins all three).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..devices import K40, PHI_5110P, DeviceSpec, DeviceTopology, LinkSpec
from ..devices.topology import PCIE2_LINK
from ..kernels import MATRIX_FAMILIES, get_benchmark
from ..perf.halo import emit_halo_spans, halo_cost, overlap_provable
from ..runtime.launcher import Accelerator
from ..service import CompileRequest, CompileService, JobError
from ..telemetry import get_tracer
from .ppr import MatrixPprEntry

#: the compiler/target pairs every cell sweeps (paper Table II matrix)
MATRIX_PAIRS: tuple[tuple[str, str], ...] = (
    ("caps", "cuda"),
    ("caps", "opencl"),
    ("pgi", "cuda"),
    ("pgi", "opencl"),
)

#: simulated accelerators per node
DEVICE_COUNTS: tuple[int, ...] = (1, 2, 4)


def device_for_target(target: str) -> DeviceSpec:
    """cuda cells run on the K40, opencl cells on the 5110P."""
    return K40 if target == "cuda" else PHI_5110P


@dataclass(frozen=True)
class MatrixCell:
    """One point of the portability matrix."""

    family: str
    compiler: str
    target: str
    devices: int
    status: str               # "ok" | "unsupported" | "error"
    elapsed_s: float = 0.0    # modeled k-device elapsed
    single_device_s: float = 0.0
    exchange_s: float = 0.0   # per-run exposed exchange cost
    overlap: bool = False
    detail: str = ""          # refusal / error text

    @property
    def key(self) -> str:
        return f"{self.family}/{self.compiler}-{self.target}/x{self.devices}"

    @property
    def speedup(self) -> float:
        """Scaling vs the same cell's single-device run."""
        if self.status != "ok" or self.elapsed_s <= 0:
            return 0.0
        return self.single_device_s / self.elapsed_s


@dataclass
class MatrixReport:
    """The assembled matrix + its PPR summary."""

    n: int
    device_counts: tuple[int, ...]
    cells: list[MatrixCell] = field(default_factory=list)

    def cell(self, family: str, compiler: str, target: str,
             devices: int) -> MatrixCell | None:
        for cell in self.cells:
            if (cell.family == family and cell.compiler == compiler
                    and cell.target == target and cell.devices == devices):
                return cell
        return None

    def ppr_entries(self) -> list[MatrixPprEntry]:
        """Equation 1 per (family, device count): CAPS-OpenCL on the MIC
        node over CAPS-CUDA on the GPU node — the same single-source
        comparison as Fig. 16, at every node width."""
        entries = []
        for cell in self.cells:
            if (cell.compiler, cell.target) != ("caps", "cuda"):
                continue
            mic = self.cell(cell.family, "caps", "opencl", cell.devices)
            if mic is None or mic.status != "ok" or cell.status != "ok":
                continue
            entries.append(
                MatrixPprEntry(
                    family=cell.family,
                    devices=cell.devices,
                    mic_elapsed_s=mic.elapsed_s,
                    gpu_elapsed_s=cell.elapsed_s,
                )
            )
        return entries

    def render(self) -> str:
        """The canonical text form — also the digest input."""
        headers = ["family", "compiler", "target", "devices", "status",
                   "elapsed_s", "speedup", "overlap"]
        lines = ["  ".join(headers)]
        lines.append("-" * len(lines[0]))
        for cell in self.cells:
            if cell.status == "ok":
                elapsed = f"{cell.elapsed_s:.6g}"
                speedup = f"{cell.speedup:.3f}"
                overlap = "yes" if cell.overlap else "no"
            else:
                elapsed = speedup = overlap = "-"
            lines.append(
                f"{cell.family:8s} {cell.compiler:5s} {cell.target:7s} "
                f"x{cell.devices}  {cell.status:12s} {elapsed:>10s} "
                f"{speedup:>7s} {overlap:>3s}"
            )
        from .ppr import format_ppr_matrix

        entries = self.ppr_entries()
        if entries:
            lines.append("")
            lines.append(format_ppr_matrix(entries))
        return "\n".join(lines)

    def digest(self) -> str:
        """sha256 of the canonical rendering: the byte-identity anchor
        for jobs-1-vs-4 / cold-vs-rerun / fault-plan determinism."""
        return hashlib.sha256(self.render().encode()).hexdigest()


def matrix_requests(
    families: tuple[str, ...] = MATRIX_FAMILIES,
    pairs: tuple[tuple[str, str], ...] = MATRIX_PAIRS,
) -> list[CompileRequest]:
    """One compile request per (family, compiler, target) — device
    counts share the artifact; only the modeling differs."""
    requests = []
    for family in families:
        module = get_benchmark(family).module()
        for compiler, target in pairs:
            requests.append(
                CompileRequest(
                    module, compiler, target,
                    device=device_for_target(target),
                    label=f"{family}/{compiler}-{target}",
                )
            )
    return requests


def _model_cell(
    family: str,
    compiler: str,
    target: str,
    compiled,
    n: int,
    devices: int,
    link: LinkSpec,
    peer: LinkSpec | None,
) -> MatrixCell:
    """Model one artifact on a *devices*-wide chain."""
    bench = get_benchmark(family)
    spec = device_for_target(target)
    tracer = get_tracer()

    accelerator = Accelerator(spec)
    result = bench.run(accelerator, compiled, n)
    t1 = result.elapsed_s

    overlap = overlap_provable(bench.module())
    steps = bench.steps
    compute_s = t1 / devices
    topology = DeviceTopology(spec, devices, link=link, peer=peer)
    breakdown = halo_cost(
        topology, bench.exchange_bytes(n),
        compute_s=compute_s / steps, overlap=overlap,
    )
    elapsed = compute_s + steps * breakdown.exposed_s

    for k in range(devices):
        lane = f"device:{k}"
        for step in range(steps):
            with tracer.span("matrix.compute", category="matrix", lane=lane,
                             step=step, label=f"{family}/{compiler}-{target}",
                             seconds=compute_s / steps):
                pass
            if devices > 1:
                emit_halo_spans(tracer, k, breakdown, step=step)

    return MatrixCell(
        family=family, compiler=compiler, target=target, devices=devices,
        status="ok", elapsed_s=elapsed, single_device_s=t1,
        exchange_s=steps * breakdown.exposed_s,
        overlap=breakdown.overlapped,
    )


def run_matrix(
    families: tuple[str, ...] = MATRIX_FAMILIES,
    n: int | None = None,
    device_counts: tuple[int, ...] = DEVICE_COUNTS,
    pairs: tuple[tuple[str, str], ...] = MATRIX_PAIRS,
    *,
    service: CompileService,
    link: LinkSpec = PCIE2_LINK,
    peer: LinkSpec | None = None,
) -> MatrixReport:
    """Sweep the full matrix through *service*; every cell lands,
    failures stay in-slot.

    ``n`` defaults to each family's ``meta.test_size`` when ``None`` (a
    single explicit ``n`` applies to every family).
    """
    requests = matrix_requests(families, pairs)
    report = MatrixReport(n=n or 0, device_counts=tuple(device_counts))
    with get_tracer().span("matrix", category="matrix",
                           families=",".join(families),
                           counts=",".join(map(str, device_counts))):
        artifacts = service.sweep(requests)
        for request, artifact in zip(requests, artifacts):
            family, pair = request.label.split("/")
            compiler, target = pair.split("-", 1)
            size = n or get_benchmark(family).meta.test_size
            for devices in device_counts:
                if isinstance(artifact, JobError):
                    status = ("unsupported" if artifact.kind == "compile-error"
                              else "error")
                    report.cells.append(
                        MatrixCell(
                            family=family, compiler=compiler, target=target,
                            devices=devices, status=status,
                            detail=str(artifact),
                        )
                    )
                    continue
                with get_tracer().span("matrix.cell", category="matrix",
                                       label=request.label, devices=devices):
                    report.cells.append(
                        _model_cell(family, compiler, target, artifact,
                                    size, devices, link, peer)
                    )
    return report


__all__ = [
    "DEVICE_COUNTS",
    "MATRIX_PAIRS",
    "MatrixCell",
    "MatrixReport",
    "device_for_target",
    "matrix_requests",
    "run_matrix",
]
