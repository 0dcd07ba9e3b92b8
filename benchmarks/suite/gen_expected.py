"""Write ``expected.json``: the outputs the workloads are checked against.

* ``fig4-cold`` — the heat-map digest of each Fig. 4 pair;
* ``exec-hot`` — the exec-sweep digest (it equals the ``digest`` of
  ``BENCH_exec.json``, which this script asserts);
* ``difftest`` — the racecheck verdicts of the pool seeds, as
  verdict -> seeds.

Run once from the repo root when the program's outputs change on
purpose; a regenerated file must be reviewed like a golden file:

    PYTHONPATH=src python3 benchmarks/suite/gen_expected.py
"""

from __future__ import annotations

import json

from repro.core.search import lud_heatmap
from repro.difftest.harness import run_difftest
from repro.kernels import get_benchmark
from repro.runtime.parallel import run_exec_sweep
from repro.service import CompileService

from workloads import (
    DIFFTEST_POOL,
    EXEC_REPEATS,
    EXEC_SIZES,
    EXPECTED_PATH,
    FIG4_PAIRS,
    ROOT,
    case_verdict,
    fig4_key,
    heatmap_digest,
)


def main() -> None:
    lud = get_benchmark("lud")
    fig4 = {
        fig4_key(compiler, device): heatmap_digest(
            lud_heatmap(lud, device, compiler=compiler,
                        service=CompileService()))
        for compiler, device in FIG4_PAIRS
    }
    exec_digest = run_exec_sweep(sizes=EXEC_SIZES,
                                 repeats=EXEC_REPEATS)["digest"]
    bench_exec = json.loads((ROOT / "BENCH_exec.json").read_text())
    assert exec_digest == bench_exec["digest"], (exec_digest, bench_exec)
    report = run_difftest(DIFFTEST_POOL)
    difftest: dict[str, list[int]] = {}
    for case in report.cases:
        difftest.setdefault(case_verdict(case), []).append(case.seed)
    expected = {"fig4-cold": fig4, "exec-hot": exec_digest,
                "difftest": difftest}
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True)
                             + "\n", encoding="utf-8")
    unexplained = [case.seed for case in report.unexplained]
    print(f"wrote {EXPECTED_PATH}; unexplained difftest seeds: {unexplained}")


if __name__ == "__main__":
    main()
