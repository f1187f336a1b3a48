"""Run the benchmark on one workload, or on all of them.

    python3 bench/run.py                      # BENCHMARK.json's workloads, one process each
    python3 bench/run.py --workload occluded-oracle --seed 3 --seconds 40 --trace 0
    python3 bench/run.py --workload gen-icosphere   # on demand, not in the standing set

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics of a traced run instead. The full result, the
environment and (traced runs) every span are written to
``bench/out/<workload>-seed<n>-trace<t>.json``. The exit code is 0 only if
every correctness check passed.

The benchmark measures ``pfa`` from the ``src/`` tree next to it, with one
trial thread and one BLAS thread, so its numbers describe the program on
a small shared machine rather than the machine's core count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# must be in the environment before numpy loads its BLAS
THREAD_ENV = {
    "PFA_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or 'all' for those in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget of the timed loop (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    """Where and on what the numbers were measured."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    try:
        # stop git from searching above the checkout, which may not be a repository
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as f:
            src_lines += sum(1 for _ in f)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "platform": platform.platform(),
        "git_commit": commit,
        "src_lines": src_lines,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict,
            sizes=None):
    """Run one workload in this process; returns its result and result line."""
    import workloads

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        result = workloads.WORKLOADS[workload](
            work, seed, seconds, trace, sizes or workloads.Sizes())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not trace:
        # each workload runs in its own process, so this is the workload's peak
        result.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    missing = sorted(set(units) - set(result.metrics))
    result.check("every metric of BENCHMARK.json was measured", not missing,
                 f"missing {missing}" if missing else "")
    line = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name], "unit": unit}
            for name, unit in units.items() if name in result.metrics
        },
    }
    return result, line


def run_one(args, spec) -> int:
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result, line = measure(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    metrics = line["metrics"]
    env = environment()
    document = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "info": result.info,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in result.checks],
        "unit_seconds": result.unit_seconds,
        **line,
    }
    if result.trace is not None:
        document["spans"] = result.trace["spans"]
        document["counters"] = result.trace["counters"]
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_file, "w", encoding="utf-8") as f:
        json.dump(document, f)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps(result.info, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    for name, ok, detail in result.checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    print(f"wrote {out_file.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0 if result.correct else 1


def run_all(args, spec) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    summary = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            summary[name] = json.loads(lines[-1])
        except (json.JSONDecodeError, IndexError):
            summary[name] = None
        if proc.returncode != 0 or not (summary[name] or {}).get("correct"):
            print(f"workload {name} FAILED (exit {proc.returncode})")
            status = 1
    print(json.dumps({"correct": status == 0, "workloads": summary}))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(THREAD_ENV)
    if not (SRC / "pfa" / "__init__.py").is_file():
        print(f"error: no pfa sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
