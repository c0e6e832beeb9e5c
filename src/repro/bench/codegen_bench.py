"""Fast-path codegen benchmark: specialized vs legacy generated code.

Usage::

    python -m repro.bench.codegen_bench [--scale small|paper|tiny]
        [--apps harris,unsharp|all] [--runs 9] [--threads N]
        [--json BENCH_codegen.json] [--throughput] [--batch-sweep]

Compares, per application at its default tile sizes, the native backend
with fast-path specialization on (interior/boundary loop splitting,
clamp elimination, floor-div strength reduction, load CSE, ``omp simd``,
persistent scratch arenas) against the legacy always-safe code
(``specialize=False, simd=False``).

Measurement protocol: the two variants are *interleaved* run-for-run
(A, B, A, B, ...) so slow drift on a shared/1-core machine hits both
equally, the first pair is discarded as warm-up, and the reported
figure is the **median** over the remaining runs — robust against the
occasional scheduler hiccup that poisons a mean.  Bit-identity of the
two variants' outputs is asserted as part of the run.

Each app's record also carries ``thread_speedup``: the specialized
build at one thread against ``--threads``, interleaved the same way, as
the ratio of the two medians.  It is recorded, not gated — single-shot
scaling verdicts flip between identical runs on a loaded machine.

With ``--throughput`` a sustained frames/sec figure (after warm-up) is
measured as well — the view that rewards removing per-call overheads
such as scratch allocation, which single-shot latency can hide.

Each app is additionally recompiled with ``CompileOptions.narrow`` on;
the record carries the per-thread scratch-arena bytes with and without
narrowing, the footprint-reduction ratio and the narrowed-stage count.
When narrowing actually fires the narrowed build is also timed
interleaved with the other variants (bit-identity of its outputs
asserted); with zero decisions the emitted source is byte-identical —
the compile cache returns the same artifact — so no third timing is
taken.

With ``--batch-sweep`` each app additionally sweeps the batched entry
point over N in {1, 2, 4, 8, 16}: ``run_batch`` on N identical frames
against N sequential single-frame calls, asserting bit-identical
outputs and reporting the per-frame amortization of the fixed dispatch
costs (ctypes crossing, argument marshalling, arena/thread-team setup)
the batch ABI exists to remove.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro import compile_pipeline
from repro.bench.harness import (
    APP_BUILDERS, DEFAULT_TILES, format_table, make_instance,
    throughput_stats, variant_options,
)
from repro.codegen.build import build_native


def _build(instance, options, label, n_threads):
    """Compile + build one configuration; returns run() and the plan."""
    compiled = compile_pipeline(instance.app.outputs, instance.values,
                                options,
                                name=f"cgb_{instance.name}_{label}")
    native = build_native(compiled.plan,
                          f"cgb_{instance.name}_{label}",
                          vectorize=True)

    def run():
        return native(instance.values, instance.inputs,
                      n_threads=n_threads)

    return run, compiled.plan, native


def _time_once(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1000.0


def _interleaved_ms(fns, runs: int) -> list[list[float]]:
    """Time ``fns`` round-robin ``runs + 1`` times; the first round is
    warm-up and dropped.  One list of times (ms) per function."""
    times: list[list[float]] = [[] for _ in fns]
    for i in range(runs + 1):
        for out, fn in zip(times, fns):
            ms = _time_once(fn)
            if i:
                out.append(ms)
    return times


def _scratch_bytes(plan) -> int:
    """Total per-thread scratch arena footprint across tiled groups."""
    from repro.codegen.cgen import CGenerator
    gen = CGenerator(plan)
    return sum(gen._arena_layout(gp)[1]
               for gp in plan.group_plans if gp.is_tiled)


#: batch sizes explored by --batch-sweep
BATCH_SIZES = (1, 2, 4, 8, 16)


def batch_sweep(instance, native, n_threads: int,
                min_frames: int = 64) -> list[dict]:
    """Sweep ``run_batch`` over :data:`BATCH_SIZES` for one built app.

    Per batch size N: at least ``min_frames`` frames go through
    ``run_batch`` in N-sized calls and through N sequential single-frame
    calls, interleaved chunk-for-chunk so drift hits both equally.
    Outputs are asserted bit-identical; the record carries both
    frames/sec figures and the batch/sequential speedup.
    """
    out_name = instance.output_name
    want = native(instance.values, instance.inputs,
                  n_threads=n_threads)[out_name]
    records = []
    for size in BATCH_SIZES:
        frames = [instance.inputs] * size
        got = native.run_batch(instance.values, frames,
                               n_threads=n_threads)
        identical = all(
            bool(np.array_equal(result[out_name], want))
            for result in got)
        chunks = max(1, min_frames // size)
        batch_s = seq_s = 0.0
        for _ in range(chunks):
            t0 = time.perf_counter()
            native.run_batch(instance.values, frames,
                             n_threads=n_threads)
            batch_s += time.perf_counter() - t0
            t0 = time.perf_counter()
            for frame in frames:
                native(instance.values, frame, n_threads=n_threads)
            seq_s += time.perf_counter() - t0
        n_frames = chunks * size
        records.append({
            "batch": size,
            "frames": n_frames,
            "batch_fps": n_frames / batch_s if batch_s > 0 else 0.0,
            "sequential_fps": n_frames / seq_s if seq_s > 0 else 0.0,
            "speedup": seq_s / batch_s if batch_s > 0 else 0.0,
            "outputs_identical": identical,
        })
    return records


def bench_app(name: str, scale: str, runs: int, n_threads: int,
              throughput: bool = False, batch: bool = False) -> dict:
    """Measure one application; returns the JSON-ready record."""
    instance = make_instance(name, scale)
    base_opts, _ = variant_options(name, "opt+vec")
    on_opts = base_opts.with_specialize(True, simd=True)
    off_opts = base_opts.with_specialize(False, simd=False)

    narrow_opts = on_opts.with_narrow(True)

    run_on, plan_on, native_on = _build(instance, on_opts, "spec",
                                        n_threads)
    run_off, plan_off, _ = _build(instance, off_opts, "legacy", n_threads)

    # the narrowing leg is only *timed* when decisions exist: with none,
    # the emitted source is byte-identical and the compile cache returns
    # the same artifact, so a third timing would measure pure noise
    narrow_plan = compile_pipeline(
        instance.app.outputs, instance.values, narrow_opts,
        name=f"cgb_{instance.name}_nplan").plan
    narrow_timed = bool(narrow_plan.narrowing)
    native_nar = None
    if narrow_timed:
        run_nar, plan_nar, native_nar = _build(instance, narrow_opts,
                                               "narrow", n_threads)
    else:
        run_nar, plan_nar = run_on, narrow_plan

    out_name = instance.output_name
    want = run_on()[out_name]
    identical = bool(np.array_equal(want, run_off()[out_name]))
    narrow_identical = not narrow_timed or bool(
        np.array_equal(want, run_nar()[out_name]))

    # interleaved A/B(/C) timing; first round is warm-up
    on_ms, off_ms, *nar = _interleaved_ms(
        [run_on, run_off] + ([run_nar] if narrow_timed else []), runs)
    nar_ms = nar[0] if nar else on_ms

    # thread scaling of the specialized build: one thread against
    # n_threads, interleaved the same way
    def run_one():
        return native_on(instance.values, instance.inputs, n_threads=1)

    one_ms, many_ms = _interleaved_ms([run_one, run_on], runs)
    median_one = float(np.median(one_ms))
    median_many = float(np.median(many_ms))

    median_on = float(np.median(on_ms))
    median_off = float(np.median(off_ms))
    median_nar = float(np.median(nar_ms))
    scratch = _scratch_bytes(plan_on)
    narrow_scratch = _scratch_bytes(plan_nar)
    record = {
        "app": name,
        "scale": scale,
        "tile_sizes": list(DEFAULT_TILES[name]),
        "n_threads": n_threads,
        "runs": runs,
        "median_on_ms": median_on,
        "median_off_ms": median_off,
        "speedup": median_off / median_on if median_on > 0 else 0.0,
        "times_on_ms": on_ms,
        "times_off_ms": off_ms,
        "outputs_identical": identical,
        # median 1-thread time over median n_threads time
        "median_1thread_ms": median_one,
        "thread_speedup":
            median_one / median_many if median_many > 0 else 0.0,
        "uses_arena": native_on.has_arena,
        # precision narrowing (CompileOptions.narrow) on top of the
        # specialized variant: per-thread scratch arena bytes, the
        # footprint reduction, and the runtime cost/benefit
        "scratch_bytes": scratch,
        "narrow_scratch_bytes": narrow_scratch,
        "narrow_footprint_ratio":
            scratch / narrow_scratch if narrow_scratch > 0 else 1.0,
        "narrowed_stages": len(plan_nar.narrowing or {}),
        "narrow_timed": narrow_timed,
        "median_narrow_ms": median_nar,
        "narrow_overhead":
            median_nar / median_on if median_on > 0 else 1.0,
        "narrow_outputs_identical": narrow_identical,
    }
    if throughput:
        record["throughput_on"] = throughput_stats(run_on).as_dict()
        record["throughput_off"] = throughput_stats(run_off).as_dict()
    if batch:
        record["batch_sweep"] = batch_sweep(instance, native_on,
                                            n_threads)
    native_on.release()
    if native_nar is not None:
        native_nar.release()
    return record


def run_bench(apps: list[str], scale: str, runs: int, n_threads: int,
              json_path: str | Path | None, throughput: bool,
              batch: bool = False, out=sys.stdout) -> dict:
    """Benchmark every requested app and write the JSON report."""
    records = []
    for name in apps:
        print(f"[codegen_bench] {name} (scale={scale}) ...", file=out,
              flush=True)
        records.append(bench_app(name, scale, runs, n_threads,
                                 throughput, batch))

    speedups = [r["speedup"] for r in records]
    doc = {
        "benchmark": "codegen_specialization",
        "scale": scale,
        "n_threads": n_threads,
        "runs_per_variant": runs,
        "machine": {"platform": platform.platform(),
                    "python": platform.python_version()},
        "apps": records,
        "summary": {
            "apps_at_or_above_1_25x":
                sum(1 for s in speedups if s >= 1.25),
            "median_speedup": float(np.median(speedups)) if speedups
                else 0.0,
            "min_speedup": min(speedups) if speedups else 0.0,
            "all_outputs_identical":
                all(r["outputs_identical"] for r in records),
            "all_narrow_outputs_identical":
                all(r["narrow_outputs_identical"] for r in records),
            "max_narrow_footprint_ratio":
                max((r["narrow_footprint_ratio"] for r in records),
                    default=1.0),
            "max_narrow_overhead":
                max((r["narrow_overhead"] for r in records), default=1.0),
        },
    }
    if json_path:
        Path(json_path).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"[codegen_bench] wrote {json_path}", file=out)

    headers = ["app", "legacy ms", "specialized ms", "speedup",
               "identical", f"1 vs {n_threads} threads"]
    rows = [[r["app"], r["median_off_ms"], r["median_on_ms"],
             f'{r["speedup"]:.2f}x',
             "yes" if r["outputs_identical"] else "NO",
             f'{r["thread_speedup"]:.2f}x']
            for r in records]
    if throughput:
        headers += ["legacy fps", "specialized fps"]
        for row, r in zip(rows, records):
            row += [f'{r["throughput_off"]["fps"]:.2f}',
                    f'{r["throughput_on"]["fps"]:.2f}']
    print(f"\n## Fast-path codegen: specialize on vs off "
          f"(scale={scale}, medians of {runs} interleaved runs)\n",
          file=out)
    print(format_table(headers, rows), file=out)
    s = doc["summary"]
    print(f"\nmedian speedup {s['median_speedup']:.2f}x, "
          f"{s['apps_at_or_above_1_25x']}/{len(records)} apps >= 1.25x, "
          f"min {s['min_speedup']:.2f}x, outputs identical: "
          f"{s['all_outputs_identical']}", file=out)

    print(f"\n## Precision narrowing: scratch footprint and runtime "
          f"(scale={scale})\n", file=out)
    nheaders = ["app", "scratch B", "narrowed B", "ratio", "stages",
                "overhead", "identical"]
    nrows = [[r["app"], r["scratch_bytes"], r["narrow_scratch_bytes"],
              f'{r["narrow_footprint_ratio"]:.2f}x', r["narrowed_stages"],
              f'{r["narrow_overhead"]:.2f}x' if r["narrow_timed"]
              else "-",
              "yes" if r["narrow_outputs_identical"] else "NO"]
             for r in records]
    print(format_table(nheaders, nrows), file=out)

    if batch:
        print(f"\n## Batch entry point: run_batch(N) vs N sequential "
              f"calls (scale={scale})\n", file=out)
        bheaders = ["app"] + [f"N={n}" for n in BATCH_SIZES] \
            + ["identical"]
        brows = []
        for r in records:
            sweep = r["batch_sweep"]
            brows.append(
                [r["app"]]
                + [f'{e["speedup"]:.2f}x' for e in sweep]
                + ["yes" if all(e["outputs_identical"] for e in sweep)
                   else "NO"])
        print(format_table(bheaders, brows), file=out)
    return doc


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        description="Benchmark fast-path specialization vs legacy codegen")
    parser.add_argument("--scale", default="small",
                        choices=["paper", "small", "tiny"])
    parser.add_argument("--apps", default="all",
                        help="comma-separated app names, or 'all'")
    parser.add_argument("--runs", type=int, default=9,
                        help="timed runs per variant (after warm-up pair)")
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--json", default="BENCH_codegen.json",
                        help="output JSON path ('' disables)")
    parser.add_argument("--throughput", action="store_true",
                        help="also measure sustained frames/sec")
    parser.add_argument("--batch-sweep", action="store_true",
                        help="sweep run_batch over N in "
                             f"{list(BATCH_SIZES)} vs sequential calls")
    args = parser.parse_args(argv)

    if args.apps == "all":
        apps = list(APP_BUILDERS)
    else:
        apps = [a.strip() for a in args.apps.split(",") if a.strip()]
        unknown = [a for a in apps if a not in APP_BUILDERS]
        if unknown:
            parser.error(f"unknown apps: {unknown}; "
                         f"choose from {sorted(APP_BUILDERS)}")
    run_bench(apps, args.scale, args.runs, args.threads,
              args.json or None, args.throughput, args.batch_sweep)


if __name__ == "__main__":
    main()
