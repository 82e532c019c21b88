"""Fig. 6: scalability -- Graph500 RSS grows, DRAM stays fixed.

The paper grows Graph500 from 128 GB to 690 GB against a fixed 64 GB
fast tier; MEMTIS's margin over the second-best system *widens* with
RSS (8.1%-60.5%) because precise hotness classification matters more as
the fast tier becomes a smaller fraction of the footprint.

Builds ``Simulation`` directly: a fixed-DRAM machine and custom-size
Graph500 workloads are outside what a ``RunSpec`` describes.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.tables import format_table
from repro.experiments.common import ExperimentResult
from repro.policies.registry import FIG5_POLICIES, make_policy
from repro.policies.static import AllCapacityPolicy
from repro.sim.engine import Simulation
from repro.sim.machine import MachineSpec, ScaleSpec
from repro.workloads.graph500 import Graph500Workload

PAPER_RSS_GB = [128, 192, 336, 690]
FAST_GB = 64

#: Fig. 6 sweeps up to 690 paper-GB; a dedicated reduced scale keeps the
#: largest point tractable while preserving the RSS:DRAM proportions.
FIG6_SCALE = ScaleSpec(
    bytes_per_paper_gb=512 * 1024,
    accesses_per_paper_gb=18_000,
    min_bytes=48 * 1024 * 1024,
    min_accesses_per_page=40,
)


def run(
    scale: Optional[ScaleSpec] = None,
    rss_points=None,
    policies=None,
    **_kwargs,
) -> ExperimentResult:
    scale = scale or FIG6_SCALE
    rss_points = rss_points or PAPER_RSS_GB
    policies = policies or FIG5_POLICIES
    fast_bytes = scale.bytes_for(FAST_GB)

    rows = []
    data = {}
    for rss_gb in rss_points:
        total_bytes = scale.bytes_for(rss_gb)
        accesses = scale.accesses_for(rss_gb)
        machine = MachineSpec(
            fast_bytes=fast_bytes,
            capacity_bytes=int(total_bytes * 1.3),
            capacity_kind="nvm",
        )
        baseline_sim = Simulation(
            Graph500Workload(total_bytes, accesses),
            AllCapacityPolicy(),
            machine.collapse_to_slowest(),
        )
        baseline = baseline_sim.run()
        cell = {}
        for policy_name in policies:
            sim = Simulation(
                Graph500Workload(total_bytes, accesses),
                make_policy(policy_name),
                machine,
            )
            result = sim.run()
            cell[policy_name] = baseline.runtime_ns / result.runtime_ns
        best_other = max(v for p, v in cell.items() if p != "memtis")
        margin = (cell.get("memtis", 0.0) / best_other - 1) * 100
        rows.append([f"{rss_gb}GB"] + [cell[p] for p in policies]
                    + [f"{margin:+.1f}%"])
        data[rss_gb] = dict(cell, margin_pct=margin)

    text = format_table(
        ["RSS"] + list(policies) + ["memtis vs 2nd"],
        rows,
        title=f"Fig. 6: Graph500 scalability (fixed {FAST_GB}GB-equivalent DRAM)",
    )
    return ExperimentResult("fig6", "Scalability with growing RSS", text, data=data)


def main() -> None:
    run().print()


if __name__ == "__main__":
    main()
