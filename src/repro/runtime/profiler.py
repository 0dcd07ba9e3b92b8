"""Event profiler for the simulated runtime (the nvprof / PGI_ACC_TIME
stand-in).

Records host<->device transfers and kernel launches with their modeled
durations; the BFS discovery of paper V-C1 ("we find the kernels do not
run on GPU after we set the environment variable PGI_ACC_TIME to 1 and
profile the kernels with nvprof") and the transfer counts of Table VII
are read off this timeline.

All recording and reading is lock-guarded: the parallel sweep scheduler
can drive several accelerators (or one shared profiler) from pool
threads while a reporter iterates the timeline.  Every recorded event is
also bridged into the process-wide :mod:`repro.telemetry` tracer as a
modeled span (``runtime.h2d`` / ``runtime.d2h`` / ``runtime.launch`` /
``runtime.host``) when tracing is enabled, so one exported trace covers
the compile service *and* the simulated device timeline.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..telemetry.registry import Reportable
from ..telemetry.spans import get_tracer


@dataclass(frozen=True)
class ProfileEvent:
    kind: str        # "h2d" | "d2h" | "launch" | "host"
    label: str
    seconds: float
    nbytes: int = 0
    device: str = ""

    def __str__(self) -> str:
        size = f" {self.nbytes} B" if self.nbytes else ""
        return f"[{self.kind:>6}] {self.label}{size}: {self.seconds * 1e3:.3f} ms"


@dataclass
class Profiler:
    events: list[ProfileEvent] = field(default_factory=list)
    #: an attached compile-service view (any :class:`Reportable`, e.g.
    #: :class:`repro.service.CompileService` or its ``metrics``); typed
    #: through the telemetry protocol so the runtime layer stays
    #: independent of the service layer
    service: Reportable | None = None

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def attach_service(self, service: Reportable) -> None:
        """Surface a compile service's cache/latency counters in
        :meth:`report` (the nvprof stand-in gains the compile-cache view)."""
        if not isinstance(service, Reportable):
            raise TypeError(
                "attach_service expects an object with report_lines(), got "
                f"{type(service).__name__}"
            )
        self.service = service

    def record(self, kind: str, label: str, seconds: float, nbytes: int = 0,
               device: str = "") -> None:
        if seconds < 0:
            raise ValueError("event duration must be non-negative")
        event = ProfileEvent(kind, label, seconds, nbytes, device)
        with self._lock:
            self.events.append(event)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.record_span(
                f"runtime.{kind}", seconds, category="modeled",
                label=label, nbytes=nbytes, device=device,
            )

    def snapshot_events(self) -> tuple[ProfileEvent, ...]:
        """A consistent copy of the timeline (safe under concurrent
        :meth:`record` calls)."""
        with self._lock:
            return tuple(self.events)

    # -- queries -------------------------------------------------------------

    def count(self, kind: str, label: str | None = None) -> int:
        return sum(
            1
            for event in self.snapshot_events()
            if event.kind == kind and (label is None or event.label == label)
        )

    @property
    def memcpy_h2d(self) -> int:
        return self.count("h2d")

    @property
    def memcpy_d2h(self) -> int:
        return self.count("d2h")

    @property
    def kernel_launches(self) -> int:
        return self.count("launch")

    def device_kernel_launches(self) -> int:
        """Launches that actually ran on the device (PGI_ACC_TIME view)."""
        return sum(
            1
            for event in self.snapshot_events()
            if event.kind == "launch" and event.device not in ("", "host")
        )

    @property
    def total_s(self) -> float:
        return sum(event.seconds for event in self.snapshot_events())

    def time_by_kind(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for event in self.snapshot_events():
            out[event.kind] = out.get(event.kind, 0.0) + event.seconds
        return out

    def transfer_bytes(self) -> int:
        return sum(
            event.nbytes
            for event in self.snapshot_events()
            if event.kind in ("h2d", "d2h")
        )

    def report(self) -> str:
        events = self.snapshot_events()
        lines = [str(event) for event in events]
        h2d = sum(1 for e in events if e.kind == "h2d")
        d2h = sum(1 for e in events if e.kind == "d2h")
        launches = sum(1 for e in events if e.kind == "launch")
        total_s = sum(e.seconds for e in events)
        lines.append(
            f"-- total {total_s * 1e3:.3f} ms over {len(events)} events "
            f"({h2d} H2D, {d2h} D2H, "
            f"{launches} launches)"
        )
        if self.service is not None:
            lines.extend(self.service.report_lines())
        return "\n".join(lines)

    def clear(self) -> None:
        with self._lock:
            self.events.clear()
