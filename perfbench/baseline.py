#!/usr/bin/env python3
"""Measure a baseline: ten seeds per workload, plus one traced run each.

    python3 perfbench/baseline.py --label seed [--seeds 0-9] [--seconds 30]

Runs perfbench/run.py once per (workload, seed), one process at a time,
and writes perfbench/baseline/<label>.json: per workload and end-to-end
metric the ten values, their median and quartiles, the spread (quartile
distance over the median) set against the metric's bound, and the traced
run's per-layer metrics and machine facts. An existing file with the same
seeds and run length keeps the entries of workloads not measured again.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import arith

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pretrain-ref", "pretrain-wide", "finetune-eval")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    detail = HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(detail.read_text(encoding="utf-8"))


def summarize(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = arith.iqr_share(values)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": spread, "bound": bound, "spread_below_third_of_bound": spread < bound / 3}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = _seeds(args.seeds)

    out = HERE / "baseline" / f"{args.label}.json"
    report = {"label": args.label, "seeds": seeds, "seconds": seconds, "workloads": {}}
    if out.exists():
        previous = json.loads(out.read_text(encoding="utf-8"))
        if previous["seeds"] == seeds and previous["seconds"] == seconds:
            report["workloads"] = previous["workloads"]
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            detail = run_once(workload, seed, seconds, 0)
            line = detail["result"]
            runs.append({"seed": seed, "correct": line["correct"],
                         "attempted": line["attempted"], "failed": line["failed"],
                         "metrics": {k: v["value"] for k, v in line["metrics"].items()},
                         "figures": detail["figures"], "machine": detail["machine"]})
            print(f"{workload} seed {seed}: correct={line['correct']} failed={line['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()),
                  flush=True)
        metrics = {name: summarize([r["metrics"][name] for r in runs], bound)
                   for name, bound in bounds.items()}
        traced = run_once(workload, seeds[0], seconds, 1)
        report["workloads"][workload] = {
            "runs": runs, "end_to_end": metrics,
            "per_layer": traced["metrics"], "trace_overhead": traced["overhead"],
            "kernels": traced["kernels"], "step_flops": traced["step_flops"],
            "traced_machine": traced["machine"]}
        for name, m in metrics.items():
            flag = "ok" if m["spread_below_third_of_bound"] else "WIDE"
            print(f"  {name:20s} median {m['median']:12.4f}  spread {m['spread']:.4f}  "
                  f"bound {m['bound']}  {flag}", flush=True)

    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
