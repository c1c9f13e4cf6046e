"""Quick self-check of the benchmark itself.

Run from the repository root (about a minute):

    python3 perfbench/selfcheck.py

For each workload, at a small size, it asserts that:

* the untraced run prints every ``end_to_end`` metric of BENCHMARK.json with
  its unit, and its result file carries the workload's own metric names;
* the traced run prints every ``per_layer`` metric with its unit and writes
  spans with a name, start, end, parent and op id;
* a run whose references are deliberately corrupted reports wrong outputs
  and failed operations, so the output checks are not vacuous;
* on the in-process workloads, a library call that raises (injected into
  the first call) counts as one failed operation and the run goes on.

It also asserts that the benchmark exits non-zero without a result in a
directory holding only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_build" / "perfbench"
SECONDS = "2"
SEED = "7"

# the names each workload reports its end-to-end metrics under
OWN_NAMES = {
    "kl-tables": ("setup_s", "peak_rss_mb", "failed_ratio", "kl_pairs_per_s",
                  "kl_round_p50_ms", "kl_round_p90_ms"),
    "strata-sweep": ("setup_s", "peak_rss_mb", "failed_ratio", "blocks_per_s",
                     "block_p50_ms", "block_p90_ms"),
    "cli": ("setup_s", "peak_rss_mb", "failed_ratio", "cli_per_s", "cli_p50_ms",
            "cli_p90_ms"),
}


def run(argv, cwd=ROOT):
    return subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def check_metrics(result, specs, where):
    metrics = result["metrics"]
    for spec in specs:
        got = metrics.get(spec["name"])
        assert got is not None, f"{where}: metric {spec['name']} missing"
        assert got["unit"] == spec["unit"], f"{where}: {spec['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{where}: {spec['name']} value"


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in OWN_NAMES:
        base = ["perfbench/run.py", "--workload", workload, "--seed", SEED,
                "--seconds", SECONDS]

        done = run(base + ["--trace", "0"])
        assert done.returncode == 0, f"{workload}: exit {done.returncode}\n{done.stderr}"
        result = last_json(done.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        check_metrics(result, bench["end_to_end"], workload)
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in bench["end_to_end"])
        saved = json.loads((OUT / f"result-{workload}-seed{SEED}-trace0.json").read_text())
        for name in OWN_NAMES[workload]:
            assert saved["end_to_end"][name]["unit"], f"{workload}: {name} unit"

        done = run(base + ["--trace", "1"])
        assert done.returncode == 0, f"{workload}: traced exit {done.returncode}"
        check_metrics(last_json(done.stdout), bench["per_layer"], f"{workload} traced")
        spans = [json.loads(line) for line in
                 (OUT / f"spans-{workload}-seed{SEED}.jsonl").read_text().splitlines()]
        assert spans and all({"name", "start", "end", "parent", "op"} <= set(s) for s in spans)

        done = run(["perfbench/worker.py", "--workload", workload, "--seed", SEED,
                    "--seconds", SECONDS, "--corrupt-reference"])
        assert done.returncode == 0, f"{workload}: corrupted exit {done.returncode}"
        corrupted = last_json(done.stdout)
        assert corrupted["wrong"] > 0 and corrupted["failed"] > 0, \
            f"{workload}: a corrupted reference went unnoticed"

        if workload != "cli":
            done = run(["perfbench/worker.py", "--workload", workload, "--seed", SEED,
                        "--seconds", SECONDS, "--inject-raise"])
            assert done.returncode == 0, f"{workload}: injected raise exit {done.returncode}"
            injected = last_json(done.stdout)
            assert injected["failed"] == 1 and injected["wrong"] == 0, \
                f"{workload}: a raising call was not counted as one failed op"
            assert injected["attempted"] > 1, f"{workload}: the run stopped at the raise"
        print(f"selfcheck {workload}: PASS")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run(["perfbench/run.py", "--workload", "cli", "--seed", SEED,
                "--seconds", SECONDS, "--trace", "0"], cwd=bare)
    assert done.returncode != 0 and not done.stdout.strip(), "bare directory ran"
    shutil.rmtree(bare)
    print("selfcheck without sources: PASS")


if __name__ == "__main__":
    main()
