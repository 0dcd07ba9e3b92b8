"""PassContext: everything a pass may read or report while running.

One context lives for the duration of one pipeline run over one kernel.
Passes communicate *forward* through it:

* ``options`` — caller-supplied knobs (unroll factors, tile sizes, loop
  selections).  Read with :meth:`PassContext.option`.
* ``messages`` — the compiler-log lines the pass emits, in order; the
  compiler models assemble their (byte-stable) logs from these.
* ``state`` — analysis/lowering products for the backend: the CAPS
  distribute pass leaves ``state["distribution"]`` and
  ``state["parallel_ids"]`` for PTX generation, etc.
* ``provenance`` — names of the passes already applied, in order; the
  verifier attributes failures to ``provenance[-1]``.
* ``invalidated`` — verifier checks disabled by earlier passes' declared
  ``invalidates`` metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class PassContext:
    """Shared state for one pipeline run."""

    compiler: str = ""
    target: str = ""
    flags: Any = None  # repro.compilers.flags.FlagSet, if any
    options: dict[str, Any] = field(default_factory=dict)
    messages: list[str] = field(default_factory=list)
    state: dict[str, Any] = field(default_factory=dict)
    provenance: list[str] = field(default_factory=list)
    invalidated: set[str] = field(default_factory=set)

    def option(self, name: str, default: Any = None) -> Any:
        """A caller-supplied option, or *default*."""
        return self.options.get(name, default)

    def say(self, message: str) -> None:
        """Emit one compiler-log line."""
        self.messages.append(message)
