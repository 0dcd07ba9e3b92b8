"""Regeneration of every table and figure of the paper's evaluation.

``run_all(service)`` executes all experiments on one compile service
and returns their results; each experiment can also be run on its own.
See EXPERIMENTS.md for the paper-vs-measured record.
"""

from ..service import CompileService
from .ablation_exp import (
    ablation_gpu_serial_floor,
    ablation_mic_scalarization,
    ablation_pcie_bandwidth,
    futurework_autotune,
    futurework_data_regions,
)
from .bfs_exp import fig10, fig11
from .bp_exp import fig12, fig13, fig14
from .codegen_exp import fig1, fig2
from .common import Claim, ExperimentResult, size_for
from .ge_exp import fig7, fig8, fig9
from .hydro_exp import fig15
from .lud_exp import fig3, fig4, fig6
from .ppr_exp import fig16
from .tables import table1, table2, table3, table4, table5, table6, table7

#: every experiment, in paper order
ALL_EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "table6": table6,
    "table7": table7,
    "fig1": fig1,
    "fig2": fig2,
    "fig3": fig3,
    "fig4": fig4,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "fig16": fig16,
    # ablations of the calibrated mechanisms + the paper's future work
    "ablation_mic_scalarization": ablation_mic_scalarization,
    "ablation_gpu_serial_floor": ablation_gpu_serial_floor,
    "ablation_pcie_bandwidth": ablation_pcie_bandwidth,
    "futurework_data_regions": futurework_data_regions,
    "futurework_autotune": futurework_autotune,
}


def run_all(service: CompileService,
            paper_scale: bool = False) -> dict[str, ExperimentResult]:
    """Run every experiment on one *service*, so later figures reuse
    earlier figures' artifacts; keys are 'table1'...'fig16'."""
    return {
        name: experiment(service, paper_scale=paper_scale)
        for name, experiment in ALL_EXPERIMENTS.items()
    }


__all__ = [
    "ALL_EXPERIMENTS",
    "Claim",
    "ExperimentResult",
    "run_all",
    "size_for",
    "fig1", "fig2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9",
    "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
    "table1", "table2", "table3", "table4", "table5", "table6", "table7",
    "ablation_gpu_serial_floor", "ablation_mic_scalarization",
    "ablation_pcie_bandwidth", "futurework_autotune",
    "futurework_data_regions",
]
