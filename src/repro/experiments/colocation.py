"""Extension: co-located applications sharing one tier pair.

The paper evaluates one application at a time; warehouse-scale machines
(§8's TMTS context) run many.  This experiment co-locates a
subpage-skewed workload (Silo) with a contiguous-hot one (Liblinear)
over a shared DRAM pool and compares policies: the interesting question
is whether MEMTIS's global histogram still sizes one *combined* hot set
correctly when two applications with different skew shapes compete.

Builds ``Simulation`` directly: a ``MixWorkload`` is outside what a
``RunSpec`` describes.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.tables import format_table
from repro.experiments.common import ExperimentResult
from repro.policies.registry import make_policy
from repro.policies.static import AllCapacityPolicy
from repro.sim.engine import Simulation
from repro.sim.machine import DEFAULT_SCALE, MachineSpec, ScaleSpec
from repro.workloads.mix import MixWorkload
from repro.workloads.registry import make_workload

PAIRS = [("silo", "liblinear"), ("xsbench", "btree")]
POLICIES = ["tpp", "hemem", "memtis"]
RATIO = "1:8"


def _mix(pair, scale):
    return MixWorkload([make_workload(name, scale) for name in pair])


def run(scale: Optional[ScaleSpec] = None, pairs=None, policies=None,
        **_kwargs) -> ExperimentResult:
    scale = scale or DEFAULT_SCALE
    pairs = pairs or PAIRS
    policies = policies or POLICIES
    rows = []
    data = {}
    for pair in pairs:
        label = "+".join(pair)
        machine = MachineSpec.from_ratio(_mix(pair, scale).total_bytes,
                                         ratio=RATIO)
        baseline = Simulation(
            _mix(pair, scale), AllCapacityPolicy(), machine.collapse_to_slowest()
        ).run()
        cell = {}
        for policy in policies:
            result = Simulation(_mix(pair, scale), make_policy(policy),
                                machine).run()
            cell[policy] = {
                "normalized": baseline.runtime_ns / result.runtime_ns,
                "hit": result.fast_hit_ratio,
                "splits": result.policy_stats.get("splits", 0.0),
            }
        rows.append(
            [label]
            + [cell[p]["normalized"] for p in policies]
            + [f"{cell['memtis']['hit'] * 100:.1f}%",
               cell["memtis"]["splits"]]
        )
        data[label] = cell
    text = format_table(
        ["Co-located pair"] + list(policies)
        + ["memtis hit ratio", "memtis splits"],
        rows,
        title=f"Co-location ({RATIO}, shared tiers; all-NVM baseline = 1.0)",
    )
    return ExperimentResult("colocation", "Co-located applications", text,
                            data=data)


def main() -> None:
    run().print()


if __name__ == "__main__":
    main()
