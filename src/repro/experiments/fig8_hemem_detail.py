"""Fig. 8: detailed comparison to HeMem on HeMem's best terms.

Two courtesies the paper extends to HeMem: (1) 16 application threads,
leaving spare cores so HeMem's sampling thread causes no contention;
(2) HeMem+ -- HeMem configured with the same fast tier size as MEMTIS,
i.e. it *additionally* consumes its over-allocation on top (we grow the
machine's DRAM by the measured over-allocation for the HeMem+ run).

Expected shape: MEMTIS still wins; HeMem+'s extra DRAM does not close
the gap because static thresholds waste it on arbitrary cold pages.

Builds ``Simulation`` directly: the 16-thread machine with extra DRAM
is outside what a ``RunSpec`` describes.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.tables import format_table
from repro.experiments.common import ALL_WORKLOADS, ExperimentResult
from repro.policies.registry import make_policy
from repro.policies.static import AllCapacityPolicy
from repro.sim.engine import Simulation
from repro.sim.machine import DEFAULT_SCALE, MachineSpec, ScaleSpec
from repro.workloads.registry import make_workload

RATIO = "1:2"
THREADS = 16


def _machine(workload, extra_fast: int = 0) -> MachineSpec:
    base = MachineSpec.from_ratio(workload.total_bytes, ratio=RATIO)
    return MachineSpec(
        fast_bytes=base.fast_bytes + extra_fast,
        capacity_bytes=base.capacity_bytes,
        capacity_kind=base.capacity_kind,
        cores=base.cores,
        app_threads=THREADS,
    )


def run(scale: Optional[ScaleSpec] = None, workloads=None, **_kwargs) -> ExperimentResult:
    scale = scale or DEFAULT_SCALE
    workloads = workloads or ALL_WORKLOADS
    rows = []
    data = {}
    for name in workloads:
        workload = make_workload(name, scale)
        machine = _machine(workload)
        baseline = Simulation(
            make_workload(name, scale), AllCapacityPolicy(), machine.collapse_to_slowest()
        ).run()

        hemem_result = Simulation(
            make_workload(name, scale), make_policy("hemem"), machine
        ).run()
        overalloc = int(hemem_result.policy_stats.get("overallocated_bytes", 0))

        hemem_plus = Simulation(
            make_workload(name, scale), make_policy("hemem"),
            _machine(workload, extra_fast=overalloc),
        ).run()
        memtis_result = Simulation(
            make_workload(name, scale), make_policy("memtis"), machine
        ).run()

        cell = {
            "hemem": baseline.runtime_ns / hemem_result.runtime_ns,
            "hemem+": baseline.runtime_ns / hemem_plus.runtime_ns,
            "memtis": baseline.runtime_ns / memtis_result.runtime_ns,
        }
        gap = (cell["memtis"] / max(cell["hemem"], cell["hemem+"]) - 1) * 100
        rows.append([name, cell["hemem"], cell["hemem+"], cell["memtis"],
                     f"{gap:+.1f}%"])
        data[name] = dict(cell, overalloc_bytes=overalloc)
    text = format_table(
        ["Benchmark", "HeMem", "HeMem+", "MEMTIS", "MEMTIS vs best HeMem"],
        rows,
        title=f"Fig. 8: HeMem comparison ({THREADS} threads, {RATIO})",
    )
    return ExperimentResult("fig8", "Detailed comparison to HeMem", text, data=data)


def main() -> None:
    run().print()


if __name__ == "__main__":
    main()
