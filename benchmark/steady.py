"""Steadiness check: two sets of ten benchmark runs per workload on one
commit, compared metric by metric against the bounds in BENCHMARK.json.

    python3 benchmark/steady.py

The first set uses seeds 1-10 and the second seeds 101-110, on every
workload of BENCHMARK.json.  Within each set, every end-to-end metric must
have a quartile spread, (Q3 - Q1) / median over the runs, within its bound.
Between sets, the two medians may not differ by more than the bound in
either direction, and the share of failed operations must be identical.
Every run must report ``correct``.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SEED_BASES = (1, 101)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).parent / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]
    ok = True
    summary: dict = {}
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for index, base in enumerate(SEED_BASES):
            runs = []
            for i in range(RUNS):
                runs.append(one_run(workload, base + i, spec["run_seconds"]))
                print(f"{workload} set {index + 1} run {i + 1}: " + " ".join(
                    f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()), flush=True)
            sets.append(runs)
            if not all(run["correct"] for run in runs):
                print(f"{workload}: set {index + 1} has an incorrect run")
                ok = False
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        if len(set(shares)) > 1:
            print(f"{workload}: failed share differs between sets: {shares}")
            ok = False
        rows = {}
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            medians, spreads = [], []
            for runs in sets:
                values = [run["metrics"][name]["value"] for run in runs]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
            verdict = "ok"
            if max(spreads) > bound:
                verdict = "SPREAD"
            if max(medians[1] / medians[0], medians[0] / medians[1]) - 1 > bound:
                verdict = "DRIFT"
            ok &= verdict == "ok"
            rows[name] = {"medians": medians, "spreads": spreads, "bound": bound,
                          "verdict": verdict}
            print(f"{workload:14} {name:14} medians "
                  + " ".join(f"{m:12.5g}" for m in medians)
                  + "  spreads " + " ".join(f"{s:6.3f}" for s in spreads)
                  + f"  bound {bound:5.3f}  {verdict}")
        summary[workload] = {"failed_share": shares, "metrics": rows}
    out = ROOT / ".bench_work" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print("steady" if ok else "NOT steady", f"(details in {out.relative_to(ROOT)})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
