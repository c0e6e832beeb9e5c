"""Per-layer measurements shared by the workloads' traced runs.

``traced_build`` times one pipeline's way from DSL to first native
result through the layers' public functions; ``kernel_probe`` times the
generated kernels directly (per-group times from an ``instrument=True``
build, the memory-bandwidth bound, thread scaling and the batch entry).
"""

from __future__ import annotations

import time

from repro import Tracer
from repro.codegen.build import (
    CANONICAL_NAME, build_flags, build_native, get_cache, load_native,
)
from repro.codegen.cgen import generate_c

import bandwidth
from common import THREADS, geomean, median

#: compile_plan's phases as its spans name them ("align_scale" runs only
#: with grouping off, never under the options pinned here)
PHASES = ("inline", "bounds_check", "grouping", "storage", "plan_assembly")


def compile_phases(tracer: Tracer) -> dict[str, float]:
    """Milliseconds per compile phase from ``compile_plan``'s spans."""
    out = {phase: 0.0 for phase in PHASES}
    for span in tracer.spans():
        if span.name in out:
            out[span.name] += span.dur_us / 1e3
    return out


def traced_build(rec, op: int, case, cache_dir) -> tuple[dict, dict, object]:
    """Build ``case`` through the public layer functions, one span each.

    Returns (layer times, first-call outputs, native).  The artifact
    step is ``compile_artifact`` split in its two halves: ``generate_c``
    and the cache's ``get_or_compile`` (a lookup when warm, gcc when
    cold), so the gcc figure carries no code generation.
    """
    tracer = Tracer(enabled=True)
    t = {}
    with rec.span("op", op):
        with rec.span("compiler", op):
            t0 = time.perf_counter()
            compiled = case.compile(tracer=tracer)
            t["plan_ms"] = (time.perf_counter() - t0) * 1e3
        with rec.span("cgen", op):
            t0 = time.perf_counter()
            source = generate_c(compiled.plan, CANONICAL_NAME)
            t["cgen_ms"] = (time.perf_counter() - t0) * 1e3
        with rec.span("gcc", op):
            t0 = time.perf_counter()
            info = get_cache(cache_dir).get_or_compile(source,
                                                       build_flags())
            t["gcc_s"] = time.perf_counter() - t0
        with rec.span("dlopen", op):
            t0 = time.perf_counter()
            native = load_native(compiled.plan, case.name, info)
            t["dlopen_ms"] = (time.perf_counter() - t0) * 1e3
        with rec.span("first_call", op):
            t0 = time.perf_counter()
            outputs = native(case.values, case.frames[0], n_threads=THREADS)
            t["first_call_ms"] = (time.perf_counter() - t0) * 1e3
    t["c_source_kb"] = len(source.encode()) / 1024.0
    t["so_kb"] = info.so_path.stat().st_size / 1024.0
    t["cache_hit"] = info.cache_hit
    t["phases"] = compile_phases(tracer)
    return t, outputs, native


def build_layer_metrics(builds: list[dict]) -> dict:
    """Sum the per-pipeline layer times of one round of traced builds."""
    out = {
        "compiler.plan_ms": sum(b["plan_ms"] for b in builds),
        "codegen.cgen_ms": sum(b["cgen_ms"] for b in builds),
        "codegen.c_source_kb": sum(b["c_source_kb"] for b in builds),
        "codegen.so_kb": sum(b["so_kb"] for b in builds),
        "codegen.dlopen_ms": sum(b["dlopen_ms"] for b in builds),
        "codegen.first_call_ms": sum(b["first_call_ms"] for b in builds),
        "codegen.warm_lookup_ms": sum(b["gcc_s"] for b in builds) * 1e3,
        "codegen.warm_cache_hits": sum(bool(b["cache_hit"])
                                       for b in builds),
        "codegen.warm_cache_misses": sum(not b["cache_hit"]
                                         for b in builds),
    }
    for phase in PHASES:
        out[f"compiler.phase.{phase}_ms"] = sum(b["phases"][phase]
                                                for b in builds)
    return out


def store_load_ms(case) -> float:
    """Time ``build_native(store="ro")`` on the warm schedule store."""
    compiled = case.compile()
    t0 = time.perf_counter()
    native = build_native(compiled.plan, case.name, store="ro")
    elapsed = (time.perf_counter() - t0) * 1e3
    if not native.loaded_from_store:
        raise RuntimeError(f"{case.name}: schedule store was not warm")
    return elapsed


def warm_store(case) -> None:
    """Publish the lead pipeline's artifact to the schedule store."""
    build_native(case.compile().plan, case.name, store="rw")


def _time_calls(fn, min_calls: int, budget_s: float) -> list[float]:
    times = []
    end = time.perf_counter() + budget_s
    while len(times) < min_calls or time.perf_counter() < end:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def kernel_probe(cases, bw_gbs: float, budget_s: float = 0.15) -> tuple:
    """Direct native calls per app; returns (per-app detail, metrics)."""
    detail = {}
    for case in cases:
        plan = case.compile().plan
        plain = build_native(plan, case.name)
        timed = build_native(plan, case.name, instrument=True)
        frames = case.frames
        frame = frames[0]
        plain(case.values, frame, n_threads=THREADS)
        two = _time_calls(lambda: plain(case.values, frame,
                                        n_threads=THREADS), 3, budget_s)
        one = _time_calls(lambda: plain(case.values, frame, n_threads=1),
                          3, budget_s)
        batch = [frames[i % len(frames)] for i in range(8)]
        batched = _time_calls(lambda: plain.run_batch(
            case.values, batch, n_threads=THREADS), 2, budget_s)
        groups, overhead = [], []
        end = time.perf_counter() + budget_s
        while len(overhead) < 3 or time.perf_counter() < end:
            t0 = time.perf_counter()
            timed(case.values, frame, n_threads=THREADS)
            call = time.perf_counter() - t0
            stats = timed.last_stats
            groups.append(stats.group_seconds)
            overhead.append(call - stats.total_seconds)
        ms = median(two) * 1e3
        nbytes = bandwidth.plan_bytes(plan, case.values)
        bound_ms = nbytes / (bw_gbs * 1e9) * 1e3
        detail[case.name] = {
            "ms_per_frame": ms,
            "batch_ms_per_frame": median(batched) * 1e3 / len(batch),
            "thread_speedup": median(one) / median(two),
            "call_overhead_us": median(overhead) * 1e6,
            "group_ms": [median([g[i] for g in groups]) * 1e3
                         for i in range(len(groups[0]))],
            "bytes_computed": nbytes,
            "bw_bound_ms": bound_ms,
            "pct_of_bw_bound": 100.0 * bound_ms / ms,
        }
    metrics = {
        f"kernel.{key}": geomean([d[key] for d in detail.values()])
        for key in ("ms_per_frame", "batch_ms_per_frame", "thread_speedup",
                    "call_overhead_us", "pct_of_bw_bound")}
    metrics["kernel.bw_probe_gbs"] = bw_gbs
    metrics["kernel.groups_ms"] = geomean(
        [sum(d["group_ms"]) for d in detail.values()])
    return detail, metrics


def cache_counts(cache_dir) -> tuple[int, int]:
    stats = get_cache(cache_dir).stats()
    return stats.hits, stats.misses
