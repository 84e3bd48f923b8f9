"""Benchmark of the doubleslit simulator.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload presets --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Workloads: presets, fine-scan, wide-slit, oracle-check (see workloads.py),
or ``all`` to run each in turn, each in its own fresh process.

``--trace 0`` measures the end-to-end metrics: setup_s, requests_per_s,
request_p50_s, peak_rss_mb. ``--trace 1`` runs the workload untraced, then
traced, then once more under tracemalloc, and reports the per-layer
metrics and the tracing overhead. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Each run also
writes a record (versions, threads, host reference loop) under
.perfbench_out/records/, and a traced run its spans under .perfbench_out/spans/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import record
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Fresh interpreters timed per run for setup_s; their median is reported.
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60
WORKLOAD_NAMES = ("presets", "fine-scan", "wide-slit", "oracle-check")


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked (no program, or the wrong one)."""


def median(values) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def rate(count: int, seconds: float) -> float:
    if seconds <= 0.0:
        raise ValueError("rate over a non-positive time")
    return count / seconds


def end_to_end(loop, setup_samples, peak_rss_kb: int) -> dict:
    """The four end-to-end metrics of one untraced run."""
    return {
        "setup_s": {"value": median(setup_samples), "unit": "s"},
        "requests_per_s": {"value": rate(loop.attempted - loop.failed, loop.busy), "unit": "1/s"},
        "request_p50_s": {"value": median(loop.latencies), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_kb / 1024.0, "unit": "MB"},
    }


def import_program():
    """Import doubleslit from this checkout's src/, and only from there."""
    if not (SRC / "doubleslit" / "__init__.py").is_file():
        raise BenchError(f"no doubleslit package under {SRC}")
    sys.path.insert(0, str(SRC))
    import doubleslit

    if SRC.resolve() not in Path(doubleslit.__file__).resolve().parents:
        raise BenchError(f"doubleslit imported from {doubleslit.__file__}, not from {SRC}")
    return doubleslit


def setup_samples(workload: str, seed: int, count: int) -> list:
    """Seconds from spawning a fresh interpreter until it has imported
    doubleslit and generated the workload's inputs. The probes run one
    after another; each has exited before the next starts."""
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()}")
        # perf_counter is CLOCK_MONOTONIC, shared by every process of the host.
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


@dataclass
class LoopResult:
    latencies: list = field(default_factory=list)
    busy: float = 0.0  # wall time spent in requests, checks excluded
    round_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    problems: list = field(default_factory=list)


def timed_loop(workload, inputs, seconds: float, refs, tracer=None) -> LoopResult:
    """Closed loop, one client: whole rounds until `seconds` of request time
    (a single round when `seconds` is 0).

    Each request is timed alone. Its output is checked as soon as it
    returns, with the clock stopped, and dropped before the next request,
    so that the process never holds more than one output.
    """
    out = LoopResult()
    while out.rounds == 0 or out.busy < seconds:
        round_s = 0.0
        for inp in inputs:
            if tracer is not None:
                tracer.request = out.attempted
            t0 = time.perf_counter()
            result = _attempt(workload.request, inp)
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.request = -1
            out.latencies.append(latency)
            round_s += latency
            _check(workload, inp, result, refs, out)
            del result
        out.round_s.append(round_s)
        out.busy += round_s
        out.rounds += 1
    return out


def _attempt(request, inp):
    try:
        return request(inp)
    except Exception as exc:  # a failed request is counted, not fatal
        return exc


def _check(workload, inp, result, refs, out: LoopResult) -> None:
    out.attempted += 1
    if isinstance(result, Exception):
        problems = ["".join(traceback.format_exception_only(type(result), result)).strip()]
    else:
        problems = workload.check(inp, result, refs)
    if problems:
        out.failed += 1
        out.problems.append({"input": inp.label, "round": out.rounds, "problems": problems})


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """One run of one workload in this process; returns (result, record)."""
    import_program()
    workload = workloads.WORKLOADS[name]
    workdir = OUT / name
    samples = [] if trace else setup_samples(name, seed, SETUP_PROBES)
    inputs = workload.make_inputs(seed, workdir / "inputs")
    refs = checks.References(seed)
    if workload.warmup:  # one untimed round: lazy set-up, allocator growth
        for inp in inputs:
            workload.request(inp)

    info = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    info.update(record.environment(ROOT))
    info["reference_loop_s"] = record.reference_loop_s()
    info["inputs"] = {inp.label: inp.config_text or f"figure {inp.figure_id}" for inp in inputs}

    loop = timed_loop(workload, inputs, seconds, refs)
    loops = [loop]
    if not trace:
        metrics = end_to_end(loop, samples, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        info["setup_samples_s"] = samples
    else:
        with spans.Tracer() as tracer:
            traced = timed_loop(workload, inputs, seconds, refs, tracer)
        with spans.Tracer(memory=True) as mem_tracer:
            memory = timed_loop(workload, inputs, 0.0, refs, mem_tracer)
        loops += [traced, memory]
        values = spans.layer_metrics(tracer.spans, traced.attempted, mem_tracer.spans)
        metrics = {k: {"value": v, "unit": spans.LAYER_METRICS[k]} for k, v in values.items()}
        overhead = (traced.busy / traced.attempted) / (loop.busy / loop.attempted) - 1.0
        info["trace_overhead_pct"] = 100.0 * overhead
        info["untraced_request_s"] = loop.busy / loop.attempted
        info["traced_request_s"] = traced.busy / traced.attempted
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        (spans_dir / f"{name}-seed{seed}.json").write_text(
            json.dumps({"timed": tracer.dump(), "memory": mem_tracer.dump()}), encoding="utf-8"
        )

    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    info.update(
        attempted=attempted,
        failed=failed,
        rounds=[lp.rounds for lp in loops],
        requests_per_round=len(inputs),
        latency_samples=len(loop.latencies),
        round_s=[lp.round_s for lp in loops],
        problems=[p for lp in loops for p in lp.problems][:20],
        metrics=metrics,
    )
    return result, info


def run_all(args) -> dict:
    """Each workload in its own fresh process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            records = OUT / "records"
            records.mkdir(parents=True, exist_ok=True)
            path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(info, indent=1) + "\n", encoding="utf-8")
            for problem in info["problems"]:
                print(f"FAILED {problem}", file=sys.stderr)
            if "trace_overhead_pct" in info:
                print(f"tracing overhead against the untraced loop: {info['trace_overhead_pct']:+.1f}%")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}: attempted {result['attempted']}, failed {result['failed']}")
    for metric, value in result["metrics"].items():
        print(f"  {metric:<32s} {value['value']:.6g} {value['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
