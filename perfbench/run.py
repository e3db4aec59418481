#!/usr/bin/env python3
"""adaptlm benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload pretrain-ref --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its src/.
With --trace 0 the run sets up five times (setup_s is the median), then
repeats identical rounds for --seconds and reports the end-to-end metrics.
With --trace 1 it sets up once under the tracer, then alternates untraced
and traced rounds for --seconds, and reports the per-layer metrics, the
tracing overhead and the reference rates. Either way
the last line of standard output is one JSON object with correct, attempted,
failed and metrics; a readable report, with the metrics under the names
perfbench/README.md gives them, comes before it. Detailed results and the
spans go to perfbench/results/.
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
import traceback
from pathlib import Path
from time import perf_counter

import arith
import microbench
from tracing import KERNELS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
LATENCY_Q = 90.0


def _import_program():
    src = ROOT / "src"
    if not (src / "adaptlm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {src / 'adaptlm'} is missing")
    sys.path.insert(0, str(src))
    import adaptlm
    if Path(adaptlm.__file__).resolve().parent != (src / "adaptlm").resolve():
        sys.exit(f"perfbench: imported adaptlm from {adaptlm.__file__}, not from {src}")
    return adaptlm


def declared_metrics() -> dict[str, dict[str, str]]:
    """Metric name -> unit, for trace 0 and trace 1, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def machine_facts(kernels) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_desc = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": blas_desc,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "kernel_backend": kernels.backend(),
        "numba_importable": kernels.HAVE_NUMBA,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_rounds(workload, ctx, tally, seconds, tracer=None):
    """Closed loop: identical rounds back to back until seconds have passed.
    With a tracer, every second round runs traced, so traced and untraced
    rounds share the machine's conditions. Returns (untraced, traced) rounds,
    at least one of each kind asked for. A round that raises ends the loop
    and counts as a failed operation."""
    plain, traced = [], []
    deadline = perf_counter() + seconds
    index = 0
    while perf_counter() < deadline or not plain or (tracer is not None and not traced):
        traced_turn = tracer is not None and index % 2 == 1
        if traced_turn:
            tracer.round = len(traced)
            tracer.install()
        try:
            result = workload.run_round(ctx, index, tally)
        except Exception:  # the program failed: report it, keep what was measured
            tally.ops()
            tally.failures.append("round raised:\n" + traceback.format_exc())
            break
        finally:
            if traced_turn:
                tracer.uninstall()
        (traced if traced_turn else plain).append(result)
        index += 1
    return plain, traced


def rate(rounds, field) -> float:
    """All items of the run's timed calls of one field over their summed
    seconds. A sum, not a median: the host alternates between fast and slow
    phases lasting seconds, and a median over calls then jumps between the
    two phase speeds from run to run, while a sum moves with the share of
    time spent in each."""
    calls = [call for r in rounds for call in getattr(r, field)]
    return sum(items for _, items, _ in calls) / sum(seconds for _, _, seconds in calls)


def end_to_end(rounds, setup_times) -> tuple[dict, dict]:
    """Contract metrics, plus figures reported beside them."""
    lat = [x for r in rounds for x in r.latencies_ms]
    values = {
        "setup_s": arith.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "train_items_per_s": rate(rounds, "train"),
        "eval_items_per_s": rate(rounds, "evals"),
        "latency_ms.mean": sum(lat) / len(lat),
        "latency_ms.p90": arith.percentile(lat, LATENCY_Q),
    }
    extra = {"latency_ms.p50": arith.percentile(lat, 50.0),
             "latency_samples": len(lat),
             "latency_beyond_p90": arith.samples_beyond(len(lat), LATENCY_Q),
             "rounds": len(rounds)}
    return values, extra


def named_figures(workload, e2e, rounds) -> list[tuple[str, float, str]]:
    """The end-to-end metrics under the workload's own names and units, then
    the round figures it reports besides (median over rounds)."""
    out = [("setup_s", e2e["setup_s"], "s"), ("peak_rss_mb", e2e["peak_rss_mb"], "MB")]
    for metric, (name, unit) in workload.names.items():
        out.append((name, e2e[metric], unit))
    for name, unit in workload.extra_figures.items():
        out.append((name, arith.median([r.figures[name] for r in rounds]), unit))
    return out


def run_untraced(workload, seed, seconds, work, tally):
    setup_times = []
    ctx = None
    for i in range(SETUP_REPEATS):
        t0 = perf_counter()
        ctx = workload.setup(work / f"setup{i}", seed, tally)
        setup_times.append(perf_counter() - t0)
    workload.warm_up(ctx)
    rounds, _ = _run_rounds(workload, ctx, tally, seconds)
    if not rounds:
        raise RuntimeError("no round completed")
    values, extra = end_to_end(rounds, setup_times)
    return {"metrics": values, "samples": extra, "setup_times_s": setup_times,
            "figures": named_figures(workload, dict(values, **extra), rounds),
            "rounds": [vars(r) for r in rounds]}


def run_traced(adaptlm, workload, seed, seconds, work, tally, spans_path):
    tracer = Tracer("adaptlm")
    tracer.install()
    try:
        ctx = workload.setup(work / "setup0", seed, tally)
    finally:
        tracer.uninstall()
    workload.warm_up(ctx)
    plain, traced = _run_rounds(workload, ctx, tally, seconds, tracer)
    if not plain or not traced:
        raise RuntimeError("no round completed")
    tracer.write(spans_path)

    layers = tracer.layer_metrics(len(traced))
    plain_s = arith.median([r.wall_s for r in plain])
    traced_s = arith.median([r.wall_s for r in traced])
    layers["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s

    b, l, h, f, heads = tracer.dominant_encoder_shape()
    sgemm = microbench.sgemm_reference(b, l, h, f, heads, seed=seed)
    layers["sgemm.gflop_per_s"] = sgemm
    layers["encoder.sgemm_ratio"] = layers["encoder.gflop_per_s"] / sgemm
    micro = microbench.kernel_microbench(adaptlm.kernels, tracer.kernel_time, tracer.kernel_args)
    for name in KERNELS:
        layers[f"kernels.{name}.micro_us"] = micro[name]["us"] if name in micro else 0.0
    return {"metrics": layers,
            "overhead": {"untraced_round_s": plain_s, "traced_round_s": traced_s,
                         "untraced_rounds": len(plain), "traced_rounds": len(traced)},
            "sgemm_shape": {"batch": b, "length": l, "hidden": h, "ff_dim": f, "heads": heads},
            "step_flops": tracer.step_flops(),
            "step_breakdown": tracer.step_breakdown(),
            "kernels": micro,
            "spans": len(tracer.names)}


def print_report(workload_name, trace, facts, result, tally, units):
    print(f"== perfbench {workload_name} (trace {trace})")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    if trace == 0:
        s = result["samples"]
        print(f"rounds: {s['rounds']}; latency samples: {s['latency_samples']} "
              f"({s['latency_beyond_p90']} beyond p90)")
        for name, value, unit in result["figures"]:
            print(f"  {name:28s} {value:14.4f} {unit}")
    else:
        o = result["overhead"]
        print(f"traced rounds: {o['traced_rounds']} (untraced {o['untraced_rounds']}); "
              f"round {o['untraced_round_s']:.3f} s untraced, {o['traced_round_s']:.3f} s traced; "
              f"{result['spans']} spans")
        if result["step_flops"]:
            sf = result["step_flops"]
            print("MLM step GFLOP: " + ", ".join(f"{k} {v / 1e9:.4f}" for k, v in sf.items()))
            sb = result["step_breakdown"]
            print(f"MLM step self time by span, mean of {sb['steps']} traced steps "
                  f"(sum {sum(sb['self_ms'].values()):.3f} ms of the {sb['recorded_ms']:.3f} ms "
                  "train_mlm records):")
            for name, ms in sb["self_ms"].items():
                print(f"  {name:40s} {ms:8.3f} ms")
        print(f"sgemm reference shape: {result['sgemm_shape']}")
        for name, k in result["kernels"].items():
            print(f"  kernel {name:27s} {k['us']:10.1f} us  {k['ops']:>10d} ops "
                  f"{k['bytes']:>10d} B  {k['gop_per_s']:7.3f} Gop/s {k['gb_per_s']:7.3f} GB/s "
                  f"at {k['shapes']}")
    for name, value in result["metrics"].items():
        print(f"  {name:40s} {value:14.4f} {units[name]}")
    print(f"checks: {tally.attempted} operations, {len(tally.failures)} failed")
    for failure in tally.failures:
        print(f"  FAILED: {failure}")


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    worst = 0
    for name in ("pretrain-ref", "pretrain-wide", "finetune-eval"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("pretrain-ref", "pretrain-wide", "finetune-eval", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    adaptlm = _import_program()
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]

    facts = machine_facts(adaptlm.kernels)
    load_before = os.getloadavg()
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = HERE / "work" / f"{stem}-{os.getpid()}"
    tally = workloads.Tally()
    try:
        if args.trace:
            result = run_traced(adaptlm, workload, args.seed, args.seconds, work, tally,
                                results_dir / f"{stem}-spans.tsv")
        else:
            result = run_untraced(workload, args.seed, args.seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    load_after = os.getloadavg()
    facts.update(loadavg_before=[round(x, 2) for x in load_before],
                 loadavg_after=[round(x, 2) for x in load_after],
                 under_load=load_before[0] > facts["nproc"])

    metrics = result["metrics"]
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(declared))} are computed "
                           "but not declared in BENCHMARK.json, or declared but not computed")
    print_report(args.workload, args.trace, facts, result, tally, declared)
    line = {"correct": not tally.failures, "attempted": tally.attempted,
            "failed": len(tally.failures),
            "metrics": {k: {"value": float(v), "unit": declared[k]} for k, v in metrics.items()}}
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=facts, failures=tally.failures, result=line)
    (results_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1, default=str) + "\n",
                                              encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
