#!/usr/bin/env python3
"""The repository benchmark (``BENCHMARK.json``; see ``perfbench/README.md``).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload trace_replay --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --compare OLD.json NEW.json

One run repeats fresh-process passes of one workload for ``--seconds``
of host time and reports medians.  ``--trace 0`` passes are untraced and
give the end-to-end metrics; ``--trace 1`` alternates untraced and
traced passes and gives the per-layer metrics (self times from the
traced passes, their cost relative to the untraced ones as
``trace.overhead``).  Every pass is checked against the digest pinned
for the default seed, or, for any other seed, against the run's first
pass.  The last line of standard output is one JSON object; a failed
pass or cell makes the exit code 1.  Each run also writes its full
record (host fingerprint, every pass) to ``perfbench/out/``, and a
traced run its spans as a Chrome trace; ``--compare`` refuses records
whose host fingerprints differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORK_DIR = os.path.join(HERE, ".work")

WORKLOADS = ("trace_replay", "live_checkpointed", "policy_grid")
#: End-to-end metrics (untraced passes) and their units.
END_TO_END = {
    "accesses_per_s": "accesses/s",
    "cells_per_s": "cells/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "workloads.next_s": "s",
    "workloads.events": "count",
    "engine.self_s": "s",
    "engine.self_share": "share",
    "engine.batches": "count",
    "mem.touch_s": "s",
    "mem.demand_mapped_pages": "count",
    "tlb.s": "s",
    "tlb.lookups": "count",
    "tlb.miss_ratio": "ratio",
    "cost.s": "s",
    "pebs.s": "s",
    "pebs.samples": "count",
    "policy.self_s": "s",
    "policy.hint_faults": "count",
    "migration.s": "s",
    "migration.pages": "count",
    "migration.cascade_pages": "count",
    "snapshot.save_s": "s",
    "snapshot.saves": "count",
    "snapshot.bytes": "bytes",
    "cache.put_s": "s",
    "cache.get_s": "s",
    "cache.stores": "count",
    "cache.hits": "count",
    "sweep.idle_share": "share",
    "sweep.cell_p50_s": "s",
    "sweep.cell_p85_s": "s",
    "trace.overhead": "ratio",
    "failed_share": "share",
}
SWEEP_METRICS = ("sweep.idle_share", "sweep.cell_p50_s", "sweep.cell_p85_s")
#: A run never starts a pass after this many seconds, and kills one that
#: would end after ``RUN_DEADLINE_S``.
RUN_DEADLINE_S = 170.0
MIN_UNTRACED = 2
#: The seed whose digests ``pinned_digests.json`` holds.
DEFAULT_SEED = 7
PINNED_PATH = os.path.join(HERE, "pinned_digests.json")
HOST_KEYS = ("cpu_model", "nproc", "python", "numpy")


# -- host fingerprint ----------------------------------------------------------


def fingerprint() -> dict:
    """Host and code identity stamped on every output."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _tree_digest(os.path.join(ROOT, "src")),
    }


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip()


def _tree_digest(top: str) -> str:
    """sha256 over every ``.py`` file under ``top`` (path and content):
    identifies the code where there is no git metadata."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(top):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, top).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


# -- child processes -----------------------------------------------------------


def _child_env(tmp: str) -> dict:
    """The simulator's environment knobs are cleared, so every pass
    runs the default kernels with no checks; its result cache, snapshot
    store and temporary files live in the pass's own fresh directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["REPRO_CACHE_DIR"] = os.path.join(tmp, "cache")
    env["REPRO_SNAPSHOT_DIR"] = os.path.join(tmp, "snapshots")
    env["TMPDIR"] = tmp
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(cfg: dict, tmp: str, deadline: float) -> dict:
    """Run ``passes.py`` with ``cfg``; its last stdout line, parsed.

    The child leads a process group of its own (the grid's workers join
    it); whatever way the call ends, that group is killed and the child
    reaped, so no process outlives its pass.
    """
    cfg = dict(cfg, t_spawn=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "passes.py"), json.dumps(cfg)],
        cwd=ROOT, env=_child_env(tmp), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError("pass exceeded the run deadline") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no stderr"]
        raise RuntimeError(f"pass exited {proc.returncode}: {tail[0]}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError("pass printed no result")
    return json.loads(lines[-1])


# -- one run -----------------------------------------------------------------


def load_pinned(workload: str, seed: int, size: str):
    """Pinned digests for this workload, or None when not pinned."""
    with open(PINNED_PATH) as fh:
        pinned = json.load(fh)
    if size != "full" or seed != pinned["seed"]:
        return None
    return pinned["workloads"].get(workload)


def pin(workload: str, reference: dict) -> None:
    """Record this run's digests as the default seed's pinned ones."""
    with open(PINNED_PATH) as fh:
        pinned = json.load(fh)
    pinned["seed"] = DEFAULT_SEED
    pinned["workloads"][workload] = reference
    with open(PINNED_PATH, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"# pinned {workload} digests in {PINNED_PATH}")


def check_pass(out: dict, reference: dict) -> int:
    """Failed cells of one pass against ``reference`` (``digest``, and
    ``cell_digests`` for the grid); the first good pass becomes the
    reference when nothing is pinned."""
    if "cell_digests" in out:
        ref = reference.setdefault("cell_digests", out["cell_digests"])
        return sum(
            1 for label, digest in out["cell_digests"].items()
            if digest is None or digest != ref.get(label)
        ) + sum(1 for label in ref if label not in out["cell_digests"])
    ref = reference.setdefault("digest", out["digest"])
    return int(out["digest"] != ref)


def run(args) -> int:
    # SIGTERM unwinds like an exception, so the running pass's process
    # group is killed and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    host = fingerprint()
    print("# host " + json.dumps(host, sort_keys=True), flush=True)
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    os.makedirs(WORK_DIR, exist_ok=True)
    os.makedirs(args.out, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "size": args.size, "host": host, "passes": []}
    try:
        base = {"workload": args.workload, "seed": args.seed,
                "size": args.size, "host": host,
                "chrome": os.path.join(args.out, f"{args.workload}.trace.json")}
        if args.workload == "trace_replay":
            path = os.path.join(work, f"silo-seed{args.seed}", "trace.npz")
            os.makedirs(os.path.dirname(path))
            fixture = _child({"record": {"path": path, "seed": args.seed,
                                         "size": args.size}}, work, deadline)
            record["fixture"] = fixture
            base["fixture"] = path
            print(f"# fixture {fixture['accesses']} accesses recorded in "
                  f"{fixture['record_s']:.3f} s (not part of setup_s)",
                  flush=True)
        reference = {} if args.pin else \
            load_pinned(args.workload, args.seed, args.size) or {}
        pinned = bool(reference)
        attempted = failed = 0
        cells = 1
        traced_turn = False
        measure_until = time.monotonic() + args.seconds
        longest = 0.0
        while True:
            untraced = [p for p in record["passes"] if not p["traced"]]
            traced = [p for p in record["passes"] if p["traced"]]
            enough = len(untraced) >= MIN_UNTRACED if not args.trace else \
                bool(untraced and traced)
            now = time.monotonic()
            if (enough and now >= measure_until) or now + longest >= deadline:
                break
            cfg = dict(base, traced=bool(args.trace and traced_turn))
            traced_turn = not traced_turn
            tmp = tempfile.mkdtemp(dir=work)
            try:
                out = _child(dict(cfg, tmp=tmp), tmp, deadline)
                cells = out["cells"]
                bad = check_pass(out, reference)
            except (RuntimeError, ValueError, KeyError) as exc:
                out, bad = {"error": str(exc)}, cells
                print(f"# pass failed: {exc}", file=sys.stderr, flush=True)
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
            longest = max(longest, time.monotonic() - now)
            attempted += cells
            failed += bad
            out["traced"] = cfg["traced"]
            out["failed_cells"] = bad
            record["passes"].append(out)
            _print_pass(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["pinned"] = pinned
    record["attempted"], record["failed"] = attempted, failed
    good = [p for p in record["passes"] if "error" not in p]
    if not any(not p["traced"] for p in good) or \
            (args.trace and not any(p["traced"] for p in good)):
        print("# no successful pass: no result", file=sys.stderr)
        return 1
    metrics = (layer_metrics(good, attempted, failed) if args.trace
               else end_to_end_metrics(good))
    units = PER_LAYER if args.trace else END_TO_END
    record["metrics"] = metrics
    if args.pin and failed == 0:
        pin(args.workload, reference)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(args.out, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for key, value in metrics.items():
        print(f"{key:26s} {value:>18.6g} {units[key]}")
    print(f"# {attempted} attempted, {failed} failed, digests "
          f"{'pinned' if pinned else 'agree across passes'}"
          if not failed else f"# {failed} of {attempted} FAILED")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def _print_pass(out: dict) -> None:
    if "error" in out:
        return
    kind = "traced" if out["traced"] else "untraced"
    print(f"# pass {kind}: run {out['run_s']:.3f} s, setup "
          f"{out['setup_s']:.3f} s, {out['accesses']} accesses, "
          f"{out['failed_cells']} failed", flush=True)


def end_to_end_metrics(passes) -> dict:
    """Medians over untraced passes; peak RSS is the largest of all."""
    runs = [p for p in passes if not p["traced"]]
    return {
        "accesses_per_s": statistics.median(
            p["accesses"] / p["run_s"] for p in runs),
        "cells_per_s": statistics.median(p["cells"] / p["run_s"] for p in runs),
        "setup_s": statistics.median(p["setup_s"] for p in runs),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in runs),
    }


def layer_metrics(passes, attempted: int, failed: int) -> dict:
    """Medians over traced passes, sweep figures over untraced ones."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    out = {}
    for key in PER_LAYER:
        if key in SWEEP_METRICS:
            out[key] = statistics.median(
                p.get("sweep", {}).get(key, 0.0) for p in untraced)
        elif key == "trace.overhead":
            out[key] = (statistics.median(p["run_s"] for p in traced)
                        / statistics.median(p["run_s"] for p in untraced))
        elif key == "failed_share":
            out[key] = failed / attempted
        else:
            out[key] = statistics.median(p["layers"][key] for p in traced)
    return out


# -- comparing two records ---------------------------------------------------


def compare(paths) -> int:
    """Side-by-side metrics of two run records from the same host."""
    records = []
    for path in paths:
        with open(path) as fh:
            records.append(json.load(fh))
    hosts = [{k: r["host"][k] for k in HOST_KEYS} for r in records]
    if hosts[0] != hosts[1]:
        print("refusing to compare: host fingerprints differ", file=sys.stderr)
        for path, host in zip(paths, hosts):
            print(f"  {path}: {json.dumps(host, sort_keys=True)}",
                  file=sys.stderr)
        return 3
    old, new = (r["metrics"] for r in records)
    print(f"{'metric':26s} {'old':>14s} {'new':>14s} {'new/old':>9s}")
    for key in old:
        if key in new:
            ratio = new[key] / old[key] if old[key] else float("nan")
            print(f"{key:26s} {old[key]:14.6g} {new[key]:14.6g} {ratio:9.3f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test size (no pinned digests)")
    parser.add_argument("--out", default=OUT_DIR,
                        help="directory for run records and Chrome traces")
    parser.add_argument("--pin", action="store_true",
                        help="pin this run's digests for the default seed "
                             "(after an intended change of results)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two records in perfbench/out/")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.pin and (args.seed != DEFAULT_SEED or args.size != "full"):
        parser.error("--pin applies to the default seed at full size")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no simulator source under {ROOT}/src; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
