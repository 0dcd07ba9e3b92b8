"""Shared experiment scaffolding.

Every experiment is a function ``name(service, paper_scale=False)`` that
compiles through the :class:`~repro.service.CompileService` it is given and
returns an :class:`ExperimentResult` with the regenerated rows/series and a
list of *claims* — the paper's qualitative findings, each checked against the
simulated data.  ``paper_scale=True`` uses the exact problem sizes of
Table IV; the default uses reduced sizes whose shapes match (asserted by
the test suite) but that run in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Claim:
    """One qualitative finding from the paper, checked against our data."""

    text: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        suffix = f"  [{self.detail}]" if self.detail else ""
        return f"[{mark}] {self.text}{suffix}"


@dataclass
class ExperimentResult:
    """The output of one table/figure regeneration."""

    experiment: str
    title: str
    rows: list = field(default_factory=list)
    claims: list[Claim] = field(default_factory=list)
    rendered: str = ""

    @property
    def all_passed(self) -> bool:
        return all(claim.passed for claim in self.claims)

    def failed_claims(self) -> list[Claim]:
        return [claim for claim in self.claims if not claim.passed]

    def report(self) -> str:
        lines = [f"== {self.experiment}: {self.title} =="]
        if self.rendered:
            lines.append(self.rendered)
        for claim in self.claims:
            lines.append(str(claim))
        return "\n".join(lines)


#: reduced problem sizes whose qualitative shapes match the paper scale
SIZES = {
    "lud": {"default": 1024, "paper": 4096},
    "ge": {"default": 512, "paper": 8192},
    "bfs": {"default": 1 << 20, "paper": 32 * 1024 * 1024},
    "bp": {"default": 1 << 20, "paper": 20 * 1024 * 1024},
    "hydro": {"default": 1024, "paper": 2048},
}


def size_for(benchmark: str, paper_scale: bool) -> int:
    return SIZES[benchmark]["paper" if paper_scale else "default"]


def ratio_claim(text: str, value: float, low: float, high: float) -> Claim:
    """A claim that *value* falls in [low, high]."""
    return Claim(
        text,
        low <= value <= high,
        f"value={value:.3g}, expected in [{low:g}, {high:g}]",
    )


def ordering_claim(text: str, smaller: float, larger: float,
                   margin: float = 1.0) -> Claim:
    """A claim that ``smaller * margin <= larger``."""
    return Claim(
        text,
        smaller * margin <= larger,
        f"{smaller:.4g} vs {larger:.4g} (margin {margin:g})",
    )
