"""The repository's end-to-end benchmark.

Usage, from the root of a checkout::

    python3 rdfbench/run.py --workload serve_hot --seed 1 --seconds 15 \\
        --trace 0

One run builds the database from source data (several times, for a
steady ``setup_s``), runs one workload closed-loop for ``--seconds``,
checks every answer against plain SQL, and prints as its last line one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` --
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  The line before it is an ``info``
object with the raw wall values, the probe factors and the stream
hashes.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("serve_hot", "serve_plain", "scan_inproc")
#: Database builds per run; ``setup_s`` takes their median.
SETUP_REPS = 3
SETUP_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "read_p50_ms": "ms",
    "read_p95_ms": "ms", "write_p50_ms": "ms", "write_p90_ms": "ms",
    "rows_per_s": "1/s", "peak_rss_mb": "MB",
    "db_bytes_per_triple": "B",
}


def _pin() -> int:
    """Pin this process -- and so every thread and child it starts --
    to one CPU of the allowed set."""
    cpu = sorted(os.sched_getaffinity(0))[-1]
    os.sched_setaffinity(0, {cpu})
    return cpu


def _child_env() -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    return env


def _setup(seed: int, work: str, env: dict) -> dict:
    """Build the database in a child process (so the measuring process
    never holds the raw triples) and return its timings."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "dbsetup.py"), str(seed), work,
         str(SETUP_REPS)],
        stdout=subprocess.PIPE, env=env, timeout=SETUP_TIMEOUT_S,
        text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [SRC, HERE]
    cpu = _pin()
    env = _child_env()
    work = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        result = _run(args, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["info"]["cpu"] = cpu
    print(json.dumps({"info": result["info"]}, sort_keys=True))
    print(json.dumps(result["result"]))
    return 0


def _run(args, work: str, env: dict) -> dict:
    import data as d
    from probe import Probe
    from workloads import layer_metrics, run_scan, run_serve

    setup = _setup(args.seed, work, env)
    with open(os.path.join(work, "dataset.json"), encoding="utf-8") as f:
        dataset = d.Dataset(**json.load(f))
    # Everything allocated so far lives for the whole run: keep the
    # collector from rescanning it during measured operations.
    gc.collect()
    gc.freeze()
    probe = Probe()
    if args.workload == "scan_inproc":
        outcome = run_scan(dataset, work, args.seconds, bool(args.trace),
                           probe)
    else:
        outcome = run_serve(args.workload, dataset, work, args.seconds,
                            bool(args.trace), probe, env)
    probe.close()

    builds = setup["builds"]
    load_s = statistics.median([b["bulkload_s"] for b in builds])
    reify_s = statistics.median([b["reify_s"] for b in builds])
    setup_s = statistics.median(
        [b["bulkload_s"] + b["reify_s"] for b in builds]) + outcome["warm_s"]
    last = builds[-1]
    phases = outcome["phases"]
    summaries = {phase.name: phase.metrics() for phase in phases}
    writes = outcome.get("writes")
    if writes is not None:
        summaries["writes"] = writes.metrics()
    attempted = sum(p.attempted for p in phases) + (
        writes.attempted if writes is not None else 0)
    failed = sum(p.failed for p in phases) + outcome["oracle_failures"] + (
        writes.failed if writes is not None else 0)

    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "setup": {"reps": len(builds),
                  "raw_s": [b["raw_s"] for b in builds],
                  "bulkload_s": [b["bulkload_s"] for b in builds],
                  "reify_s": [b["reify_s"] for b in builds],
                  "probe_factor": [b["probe_factor"] for b in builds],
                  "warm_s": outcome["warm_s"],
                  "warm_raw_s": outcome["warm_raw_s"]},
        "phases": summaries,
        "stream_hashes": outcome["stream_hashes"],
        "oracle_failures": outcome["oracle_failures"],
    }
    if args.trace:
        metrics = layer_metrics(phases[0], phases[1], writes)
        metrics.update({"setup.bulkload_s": load_s,
                        "setup.reify_s": reify_s,
                        "setup.warm_s": outcome["warm_s"]})
        units = {name: _layer_unit(name) for name in metrics}
    else:
        main_phase = summaries[phases[0].name]
        write_source = summaries["writes"] if writes is not None \
            else main_phase
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": main_phase["ops_per_s"],
            "read_p50_ms": main_phase["read_p50_ms"],
            "read_p95_ms": main_phase["read_p95_ms"],
            "write_p50_ms": write_source["write_p50_ms"],
            "write_p90_ms": write_source["write_p90_ms"],
            "rows_per_s": main_phase["rows_per_s"],
            "peak_rss_mb": outcome["peak_rss_kb"] / 1024.0,
            "db_bytes_per_triple": last["file_bytes"] / last["triples"],
        }
        units = END_TO_END
    return {
        "info": info,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        },
    }


def _layer_unit(name: str) -> str:
    words = name.replace(".", "_").split("_")
    if "ms" in words:
        return "ms"
    if words[-1] == "s":
        return "s"
    if name.endswith(("ratio", "share", "overhead")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
