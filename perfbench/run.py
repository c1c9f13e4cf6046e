"""Benchmark of the weylkl library and CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kl-tables --seed 1 --seconds 30 --trace 0

Workloads: ``kl-tables``, ``strata-sweep`` and ``cli`` (see ``worker.py``).
Each run sets the workload up ``SETUP_SAMPLES`` times in fresh interpreters
to measure set-up time, then runs it once more in a fresh interpreter that
measures, checks every output and reports.  With ``--trace 1`` the measuring
run records spans around each library call and reports per-layer metrics
instead of the end-to-end ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``correct`` is false when any
output differed from its reference; ``failed`` counts operations that
raised, exited non-zero or gave a wrong output.  The lines before it list
every metric under the name the workload gives it, the provenance of the
run, and where the full result (and, when traced, the spans) was written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("kl-tables", "strata-sweep", "cli")
SETUP_SAMPLES = 5
SETUP_TIMEOUT = 60
RUN_TIMEOUT = 150


class WorkerError(RuntimeError):
    pass


def run_worker(argv, timeout):
    """Run the worker in its own process group; on timeout kill the group,
    so no CLI subprocess of the worker outlives the run."""
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise WorkerError("worker printed no result")
    return json.loads(lines[-1])


def provenance(root):
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "weylkl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "noise": "no CPU pinning and no cache dropping; other tenants share the machine",
    }


def main():
    parser = argparse.ArgumentParser(description="weylkl benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "weylkl" / "__init__.py").is_file():
        print("error: src/weylkl not found; run from the root of a weylkl checkout",
              file=sys.stderr)
        return 2

    base = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    try:
        setups = []
        for _ in range(SETUP_SAMPLES):
            start = time.monotonic()
            setups.append(run_worker(base + ["--setup-only"], SETUP_TIMEOUT)["ready"] - start)
        start = time.monotonic()
        result = run_worker(base, RUN_TIMEOUT)
        setups.append(result["ready"] - start)
    except (WorkerError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {args.workload} run failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    named = {"setup_s": (statistics.median(setups), "s", "setup_s"),
             **result["end_to_end"]}
    failed_ratio = failed / attempted if attempted else 0.0
    info = provenance(root)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"  ops={attempted} failed={failed} wrong_output={result['wrong']} "
          f"failed_ratio={failed_ratio:.6f}")
    for value, unit, name in named.values():
        print(f"  {name} = {value:.6g} {unit}")
    if args.trace:
        for name, (value, unit) in result["layers"].items():
            print(f"  {name} = {value:.6g} {unit}")

    out = root / ".bench_build" / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": info, "setup_samples_s": setups,
        "attempted": attempted, "failed": failed, "wrong": result["wrong"],
        "end_to_end": {name: {"value": v, "unit": u} for v, u, name in named.values()}
        | {"failed_ratio": {"value": failed_ratio, "unit": "ratio"}},
        "layers": {k: {"value": v, "unit": u} for k, (v, u) in result["layers"].items()},
    }, indent=1) + "\n", encoding="utf-8")
    print(f"  result written to {path.relative_to(root)}")

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in named.items()}
    print(json.dumps({"correct": result["wrong"] == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
