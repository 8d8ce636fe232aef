"""Set-up, rounds and metrics of one benchmark run."""

from __future__ import annotations

import gc
import math
import statistics
import time
from pathlib import Path

from reference import Meter, normalising_factor
from tracing import ACCESS_KINDS, LAYER_METRICS, Tracer, layer_metrics

# latency_tail_ms percentile. Above p90 the spread between processes of the
# same code is 10-18 % on the shared 2-core machine of README.md; every
# workload has at least 12 samples beyond p90 in a run.
TAIL_PCT = 0.90
SETUPS = 7  # set-up runs per process; setup_s is their median
SETUP_REFERENCE = 3  # reference samples before each set-up, so its window is set-up time

# name -> unit of every end-to-end metric, all reference-normalised
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "write_p50_ms": "ms",
    "read_p50_ms": "ms",
    "report_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "verify_ms": "ms",
    "repair_ms": "ms",
}


def end_to_end(samples: dict[str, list[float]]) -> dict[str, float]:
    """The end-to-end metrics from seconds per operation, by kind."""
    access = sorted(x for kind in ACCESS_KINDS for x in samples[kind])
    rank = math.ceil(TAIL_PCT * len(access))
    if len(access) - rank < 10:
        raise RuntimeError(f"only {len(access) - rank} samples beyond p{100 * TAIL_PCT:g}")

    def ms(kind):
        return 1e3 * statistics.median(samples[kind])

    return {
        "setup_s": statistics.median(samples["setup"]),
        "ops_per_s": len(access) / sum(access),
        "write_p50_ms": ms("write"),
        "read_p50_ms": ms("read"),
        "report_p50_ms": ms("report"),
        "latency_tail_ms": 1e3 * access[rank - 1],
        "verify_ms": ms("verify"),
        "repair_ms": ms("repair"),
    }


def measure(workload, seconds: float, trace: bool, out_dir: Path) -> tuple[dict, int, list[str]]:
    """Set up, warm up, then run whole rounds for `seconds`.

    Returns (metrics, attempted operations, information lines). With
    trace, every round runs twice from the same state, untraced then
    traced, so the difference of the two is the tracing overhead.
    """
    tracer = Tracer() if trace else None
    meter = Meter()
    for _ in range(SETUPS):
        gc.collect()
        for _ in range(SETUP_REFERENCE):
            meter.sample_reference()
        meter.time("setup", workload.setup)
    workload.check_setup()
    workload.run_round(0, Meter())  # warm-up: caches, lazy imports; checked, not counted

    traced = Meter(tracer)
    rounds = 0
    start = time.perf_counter()
    while rounds < workload.min_rounds or time.perf_counter() - start < seconds:
        rounds += 1
        gc.collect()
        workload.run_round(rounds, meter)
        if trace:
            if tracer.full:
                break
            gc.collect()
            tracer.install()
            try:
                workload.run_round(rounds, traced)
            finally:
                tracer.uninstall()
    attempted = sum(kind != "setup" for m in (meter, traced) for kind, _, _ in m.timeline)
    info = [
        f"workload {workload.name} seed {workload.seed}: {rounds} rounds, {attempted} operations, "
        f"{statistics.median(meter.reference) * 1e3:.4f} ms median reference sample of {len(meter.reference)}",
    ]
    if not trace:
        metrics = end_to_end(meter.by_kind())
        raw = end_to_end(meter.by_kind(normalised=False))
        n_access = sum(kind in ACCESS_KINDS for kind, _, _ in meter.timeline)
        info.append(f"latency_tail_ms is p{100 * TAIL_PCT:g} of {n_access} access operations")
        info.append("raw, not normalised: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, attempted, info

    # every traced round repeats an untraced one, operation for operation
    factor = normalising_factor(meter.reference + traced.reference)
    plain, spanned = meter.by_kind(normalised=False), traced.by_kind(normalised=False)
    n_traced = sum(len(spanned[k]) for k in ACCESS_KINDS)
    untraced_s = sum(sum(plain[k][: len(spanned[k])]) for k in ACCESS_KINDS)
    traced_s = sum(sum(spanned[k]) for k in ACCESS_KINDS)
    metrics = layer_metrics(tracer, factor, (traced_s - untraced_s) / n_traced)
    info.append(
        f"traced {n_traced} access operations, {len(tracer.name)} spans; normalised by the run's "
        f"factor {factor:.4f}: untraced {1e3 * factor * untraced_s / n_traced:.4f} ms/op, "
        f"traced {1e3 * factor * traced_s / n_traced:.4f} ms/op"
    )
    trace_file = out_dir / f"trace-{workload.name}-seed{workload.seed}.jsonl.gz"
    tracer.write(trace_file)
    info.append(f"spans written to {trace_file}")
    return {k: {"value": metrics[k], "unit": u} for k, u in LAYER_METRICS.items()}, attempted, info
