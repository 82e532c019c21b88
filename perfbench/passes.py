"""One benchmark pass, in a process of its own.

``run.py`` starts this file once per pass, with a JSON configuration as
its only argument, and reads one JSON object from the last line of its
standard output.  A fresh process per pass means every pass starts from
empty tiers, an empty TLB, a cold result cache and a cold import, and
that ``VmHWM`` is the pass's own peak RSS.

The same file records the trace fixture (``{"record": ...}``) so that
recording stays outside every timed pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import multiprocessing
import os
import resource
import sys
import time

import spans

MIB = 1 << 20

#: ``SimResult.to_dict()`` fields that depend on host time, not on the
#: simulation; everything else enters the digest.
TIMING_FIELDS = ("wall_seconds", "phase_ns", "from_cache")

#: Workload sizes.  ``full`` is the benchmark; ``tiny`` keeps the same
#: structure at smoke-test size (``perfbench/tests``).
SIZES = {
    "full": {
        # silo -> 10,167,500 accesses (record_bench.py's TRACE_SCALE).
        "trace_scale": dict(bytes_per_paper_gb=MIB,
                            accesses_per_paper_gb=175_000,
                            min_bytes=48 * MIB, min_accesses_per_page=60),
        "trace_event_accesses": 1_024,
        "macro_batch": 262_144,
        # None: the simulator's DEFAULT_SCALE (silo -> 8,715,000 accesses).
        "live_scale": None,
        "grid_scale": dict(bytes_per_paper_gb=MIB,
                           accesses_per_paper_gb=30_000,
                           min_bytes=48 * MIB, min_accesses_per_page=60),
        "grid_workloads": ("silo", "graph500", "btree", "phaseflip"),
        "grid_policies": None,  # None: every registered policy
    },
    "tiny": {
        "trace_scale": dict(bytes_per_paper_gb=MIB,
                            accesses_per_paper_gb=2_000,
                            min_bytes=16 * MIB, min_accesses_per_page=8),
        "trace_event_accesses": 1_024,
        "macro_batch": 16_384,
        "live_scale": dict(bytes_per_paper_gb=MIB,
                           accesses_per_paper_gb=2_000,
                           min_bytes=16 * MIB, min_accesses_per_page=8),
        "grid_scale": dict(bytes_per_paper_gb=MIB,
                           accesses_per_paper_gb=1_000,
                           min_bytes=16 * MIB, min_accesses_per_page=4),
        "grid_workloads": ("silo", "phaseflip"),
        "grid_policies": ("memtis", "autonuma", "hemem", "nomad"),
    },
}
GRID_JOBS = 2
#: Cap on spans written to the Chrome trace (the in-memory span tree
#: that the self times come from is never truncated).
CHROME_SPAN_LIMIT = 300_000


# -- helpers -----------------------------------------------------------------


def result_digest(result) -> str:
    """sha256 of the deterministic content of a ``SimResult``."""
    data = result.to_dict()
    for key in TIMING_FIELDS:
        data.pop(key, None)
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def peak_rss_mb() -> float:
    """Largest VmHWM of this process and of every child it waited for."""
    own_kb = 0
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                own_kb = int(line.split()[1])
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kb, child_kb) / 1024


def scale_spec(fields):
    from repro.sim.machine import DEFAULT_SCALE, ScaleSpec

    return DEFAULT_SCALE if fields is None else ScaleSpec(**fields)


class RunProbe:
    """Host-time probes for untraced and traced passes alike.

    The first ``AddressSpace.record_touch`` in each process of the pass
    writes its monotonic time to ``<tmp>/first-access-<pid>`` (grid
    cells run in forked workers); :meth:`first_access` is the earliest.
    ``run_s`` holds the duration of each ``Simulation.run`` in this
    process.  Neither costs more than one call per pass: the touch probe
    removes itself after its first call, restoring whatever was
    installed before it (so it goes on top of the tracer's patches).
    """

    def __init__(self, tmp: str):
        from repro.mem.address_space import AddressSpace
        from repro.sim.engine import Simulation

        self.tmp = tmp
        self.run_s = []
        touch = AddressSpace.record_touch
        run = Simulation.run

        def first_touch(space, vpns):
            now = time.monotonic()
            AddressSpace.record_touch = touch
            path = os.path.join(tmp, f"first-access-{os.getpid()}")
            with open(path, "w") as fh:
                fh.write(repr(now))
            return touch(space, vpns)

        def timed_run(sim, *args, **kwargs):
            start = time.perf_counter()
            try:
                return run(sim, *args, **kwargs)
            finally:
                self.run_s.append(time.perf_counter() - start)

        self._originals = ((AddressSpace, "record_touch", touch),
                           (Simulation, "run", run))
        AddressSpace.record_touch = first_touch
        Simulation.run = timed_run

    def first_access(self) -> float:
        times = []
        for name in os.listdir(self.tmp):
            if name.startswith("first-access-"):
                with open(os.path.join(self.tmp, name)) as fh:
                    times.append(float(fh.read()))
        if not times:
            raise RuntimeError("no simulated access was observed")
        return min(times)

    def close(self) -> None:
        for owner, attr, original in self._originals:
            setattr(owner, attr, original)


def result_counts(results) -> dict:
    """Per-layer counts the simulator itself reports, summed over runs."""
    lookups = sum(r.tlb.lookups for r in results)
    misses = sum(r.tlb.misses for r in results)
    return {
        "tlb.lookups": lookups,
        "tlb.miss_ratio": misses / lookups if lookups else 0.0,
        "pebs.samples": sum(
            int(r.sampler_stats.get("total_samples", 0)) for r in results
        ),
        "policy.hint_faults": sum(
            int(r.metrics.num_hint_faults) for r in results
        ),
        "migration.pages": sum(
            r.migration.promoted_pages + r.migration.demoted_pages
            for r in results
        ),
        "migration.cascade_pages": sum(
            r.migration.cascade_pages for r in results
        ),
    }


def layer_metrics(self_s: dict, engine_wall_s: float, counts: dict) -> dict:
    """Per-layer metrics from self times (seconds) and counts."""
    return {
        "workloads.next_s": self_s.get("workloads", 0.0),
        "workloads.events": counts.get("workloads.events", 0),
        "engine.self_s": self_s.get("engine", 0.0),
        "engine.self_share": (self_s.get("engine", 0.0) / engine_wall_s
                              if engine_wall_s else 0.0),
        "engine.batches": counts.get("engine.batches", 0),
        "mem.touch_s": self_s.get("mem", 0.0),
        "mem.demand_mapped_pages": counts.get("mem.demand_mapped_pages", 0),
        "tlb.s": self_s.get("tlb", 0.0),
        "cost.s": self_s.get("cost", 0.0),
        "pebs.s": self_s.get("pebs", 0.0),
        "policy.self_s": self_s.get("policy", 0.0),
        "migration.s": self_s.get("migration", 0.0),
        "snapshot.save_s": self_s.get("snapshot", 0.0),
        "snapshot.saves": counts.get("snapshot.saves", 0),
        "snapshot.bytes": counts.get("snapshot.bytes", 0),
        "cache.put_s": self_s.get("cache.put", 0.0),
        "cache.get_s": self_s.get("cache.get", 0.0),
        "cache.stores": counts.get("cache.stores", 0),
        "cache.hits": counts.get("cache.hits", 0),
    }


# -- workloads -----------------------------------------------------------------


def record_fixture(cfg: dict) -> dict:
    """Record the silo trace that ``trace_replay`` replays."""
    from repro.workloads.registry import make_workload
    from repro.workloads.trace import record_trace

    size = SIZES[cfg["size"]]
    workload = make_workload("silo", scale_spec(size["trace_scale"]))
    start = time.perf_counter()
    stats = record_trace(workload, cfg["path"], seed=cfg["seed"])
    elapsed = time.perf_counter() - start
    if stats["accesses"] != workload.total_accesses:
        raise RuntimeError(
            f"trace fixture holds {stats['accesses']} accesses, "
            f"expected {workload.total_accesses}"
        )
    return {"accesses": stats["accesses"], "events": stats["events"],
            "record_s": elapsed}


def trace_replay(cfg: dict, tracer) -> dict:
    """memtis on a 1:8 NVM machine, replaying the recorded silo trace
    as 1,024-access events through the macro-batch coalescer."""
    from repro.policies.registry import make_policy
    from repro.sim.engine import Simulation
    from repro.sim.machine import MachineSpec
    from repro.workloads.trace import TraceWorkload

    size = SIZES[cfg["size"]]
    with (tracer.region("cell") if tracer else contextlib.nullcontext()):
        workload = TraceWorkload(cfg["fixture"],
                                 event_accesses=size["trace_event_accesses"])
        machine = MachineSpec.from_ratio(workload.total_bytes, ratio="1:8")
        sim = Simulation(workload, make_policy("memtis"), machine,
                         seed=cfg["seed"], macro_batch=size["macro_batch"])
        result = sim.run()
    return single_run_output(result)


def live_checkpointed(cfg: dict, tracer) -> dict:
    """memtis on the 3-tier dram-cxl-nvm preset, silo generated live,
    per-event cadence, a checkpoint at every epoch."""
    from repro.sim.runner import RunSpec
    from repro.snapshot import SnapshotStore

    size = SIZES[cfg["size"]]
    spec = RunSpec("silo", "memtis", machine_preset="dram-cxl-nvm",
                   scale=scale_spec(size["live_scale"]), seed=cfg["seed"],
                   snapshot_every=1)
    store = SnapshotStore(os.path.join(cfg["tmp"], "snapshots"))
    with (tracer.region("cell") if tracer else contextlib.nullcontext()):
        result = spec.execute(snapshots=store)
    return single_run_output(result)


def single_run_output(result) -> dict:
    return {
        "digest": result_digest(result),
        "cells": 1,
        "accesses": int(result.metrics.total_accesses),
        "counts": result_counts([result]),
    }


def grid_specs(cfg: dict):
    from repro.policies.registry import POLICY_REGISTRY
    from repro.sim.runner import RunSpec

    size = SIZES[cfg["size"]]
    policies = size["grid_policies"] or tuple(POLICY_REGISTRY)
    scale = scale_spec(size["grid_scale"])
    return [RunSpec(w, p, scale=scale, seed=cfg["seed"])
            for p in policies for w in size["grid_workloads"]]


def policy_grid(cfg: dict, tracer) -> dict:
    """Every registered policy x four workloads through ``run_sweep``
    with two worker processes, into a cold result cache."""
    from repro.sim.cache import ResultCache
    from repro.sim.runner import RunSpec
    from repro.sim.sweep import run_sweep

    specs = grid_specs(cfg)
    cache = ResultCache(os.path.join(cfg["tmp"], "cache"))
    cell_dir = os.path.join(cfg["tmp"], "cells")
    if tracer:
        if multiprocessing.get_start_method() != "fork":
            raise RuntimeError("the traced grid pass needs fork workers")
        os.makedirs(cell_dir)
        _trace_cells(tracer, RunSpec, cell_dir)
    start = time.perf_counter()
    with (tracer.region("sweep") if tracer else contextlib.nullcontext()):
        outcomes = run_sweep(specs, jobs=GRID_JOBS, cache=cache, retries=0)
    sweep_s = time.perf_counter() - start

    results = [o.result for o in outcomes.values() if o.ok]
    walls = sorted(r.wall_seconds for r in results)
    out = {
        "cell_digests": {
            spec.label(): (result_digest(o.result) if o.ok else None)
            for spec, o in outcomes.items()
        },
        "errors": {spec.label(): o.error.strip().splitlines()[-1]
                   for spec, o in outcomes.items() if not o.ok},
        "cells": len(specs),
        "accesses": sum(int(r.metrics.total_accesses) for r in results),
        "run_s": sweep_s,
        "counts": result_counts(results),
        "sweep": {
            "sweep.idle_share": 1.0 - sum(walls) / (GRID_JOBS * sweep_s),
            "sweep.cell_p50_s": _nearest_rank(walls, 0.50),
            "sweep.cell_p85_s": _nearest_rank(walls, 0.85),
        },
    }
    out["digest"] = hashlib.sha256(
        json.dumps(out["cell_digests"], sort_keys=True).encode()
    ).hexdigest()
    return out


def _nearest_rank(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    rank = round(q * (len(sorted_values) - 1))
    return sorted_values[rank]


def _trace_cells(tracer, run_spec_cls, cell_dir: str) -> None:
    """Root every grid cell in a ``cell`` span and, when the cell ends,
    write its self times, counts and spans to ``cell_dir``.  Cells run
    in forked workers, so each starts by dropping the spans its worker
    inherited."""
    inner = tracer.wrap("cell", run_spec_cls.__dict__["execute"])
    serial = itertools.count()
    parent = os.getpid()

    def execute(spec, *args, **kwargs):
        if os.getpid() == parent:
            raise RuntimeError("traced grid cells must run in workers")
        tracer.reset()
        try:
            return inner(spec, *args, **kwargs)
        finally:
            path = os.path.join(cell_dir, f"{os.getpid()}-{next(serial)}.json")
            with open(path, "w") as fh:
                json.dump({
                    "label": spec.label(),
                    "self_s": tracer.self_seconds(),
                    "engine_wall_s": tracer.total_seconds("engine"),
                    "counts": dict(tracer.counts),
                    "chrome": tracer.chrome_events(CHROME_SPAN_LIMIT),
                }, fh)

    tracer.patch(run_spec_cls, "execute", execute)


RUNNERS = {
    "trace_replay": trace_replay,
    "live_checkpointed": live_checkpointed,
    "policy_grid": policy_grid,
}


# -- the pass ----------------------------------------------------------------


def run_pass(cfg: dict) -> dict:
    tracer = None
    if cfg["traced"]:
        tracer = spans.Tracer()
        spans.install(tracer)
    probe = RunProbe(cfg["tmp"])
    try:
        out = RUNNERS[cfg["workload"]](cfg, tracer)
    finally:
        probe.close()
        if tracer:
            tracer.restore()
    out["setup_s"] = probe.first_access() - cfg["t_spawn"]
    out.setdefault("run_s", sum(probe.run_s))
    out["peak_rss_mb"] = peak_rss_mb()
    if tracer:
        out["layers"], chrome = _layers(cfg, tracer, out.pop("counts"))
        spans.write_chrome_trace(cfg["chrome"], chrome, {
            "workload": cfg["workload"], "seed": cfg["seed"],
            "host": cfg["host"],
        })
    return out


def _layers(cfg: dict, tracer, result_counts_: dict):
    """Per-layer metrics of a traced pass, plus its Chrome events."""
    self_s = dict(tracer.self_seconds())
    counts = dict(tracer.counts)
    engine_wall = tracer.total_seconds("engine")
    chrome = tracer.chrome_events(CHROME_SPAN_LIMIT)
    if cfg["workload"] == "policy_grid":
        cell_dir = os.path.join(cfg["tmp"], "cells")
        for pid, name in enumerate(sorted(os.listdir(cell_dir)), start=1):
            with open(os.path.join(cell_dir, name)) as fh:
                cell = json.load(fh)
            for layer, seconds in cell["self_s"].items():
                self_s[layer] = self_s.get(layer, 0.0) + seconds
            for key, n in cell["counts"].items():
                counts[key] = counts.get(key, 0) + n
            engine_wall += cell["engine_wall_s"]
            chrome.append({"name": "process_name", "ph": "M", "pid": pid,
                           "args": {"name": cell["label"]}})
            room = CHROME_SPAN_LIMIT - len(chrome)
            for event in cell["chrome"][:max(0, room)]:
                event["pid"] = pid
                chrome.append(event)
    metrics = layer_metrics(self_s, engine_wall, counts)
    metrics.update(result_counts_)
    return metrics, chrome


def main(argv) -> int:
    cfg = json.loads(argv[1])
    if "record" in cfg:
        out = record_fixture(cfg["record"])
    else:
        out = run_pass(cfg)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
