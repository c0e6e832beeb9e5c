"""The four workloads.  Each is a function of a run ``Context``.

Every workload follows the same order: warm the artifact cache
(untimed; gcc runs here only on the first run in a checkout), set up
repeatedly and report the median (``setup_s``), run the
timed legs, then check outputs outside the timed window.  ``--trace 1``
runs the same legs with spans and adds the per-layer probes.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import shutil
import threading
import time
from contextlib import contextmanager
from functools import partial

import numpy as np

from repro.codegen.build import BuildError, build_native
from repro.serve import DeadlineExceeded, Overloaded, WorkerCrashed
from repro.serve.shm import SEGMENT_PREFIX, live_segments, shm_dir

import bandwidth
import checks
import layers
from common import (
    APPS, CACHE, COLD_APPS, FRAMES, SERVE_CLIENTS, SERVE_FRAMES,
    SERVE_MAX_QUEUE, SERVE_WORKERS, SETUP_BUDGET_S, SETUP_MAX, SETUP_MIN,
    SIZE, STATE, THREADS,
    AppCase, cpu_seconds, geomean, median, peak_rss_mb, percentile,
    proc_cpu_seconds, proc_peak_rss_mb, windowed_p99, windowed_rate,
)

_ops = itertools.count()

#: serve workloads: (image side, worker processes, open-loop rate)
SERVE_THREAD = (128, 0, 1000.0)
SERVE_SHARDED = (512, 2, 500.0)
#: what the serving tier reports as a native-served frame
NATIVE = "native"
#: serve legs take turns in blocks of this many seconds
BLOCK_S = 2.0


# -- shared steps -------------------------------------------------------------
def _warm(ctx, names, size, lead: str | None = "harris") -> None:
    """Untimed: publish every artifact the workload loads (and, when
    tracing, the instrumented ones) plus the lead app's schedule-store
    entry, so gcc never runs inside a timed window."""
    for name in names:
        case = AppCase(name, size, ctx.seed, 0)
        plan = case.compile().plan
        build_native(plan, name)
        if ctx.trace:
            build_native(plan, name, instrument=True)
    if lead is not None:
        layers.warm_store(AppCase(lead, size, ctx.seed, 0))


def _setup(ctx, make, close=None):
    """Set up repeatedly (once when tracing) before the measured legs;
    earlier set-ups are closed untimed.  ``_finish`` times as many again
    after the legs, so ``setup_s``, the median of both, samples the
    machine at the run's start and end."""
    ctx.setup = (make, close, [])
    return _time_setups(ctx, keep=True)


def _time_setups(ctx, keep: bool):
    """Add timed set-ups until this side has ``SETUP_MIN`` of them and
    ``SETUP_BUDGET_S`` of set-up time, or ``SETUP_MAX`` ran; with
    ``keep`` the last one stays open and is returned."""
    make, close, times = ctx.setup
    side, kept = [], None
    while not side or not ctx.trace and len(side) < SETUP_MAX and (
            len(side) < SETUP_MIN or sum(side) < SETUP_BUDGET_S):
        if kept is not None and close is not None:
            close(kept)
        kept = None     # one set-up alive at a time, as in a real start
        t0 = time.perf_counter()
        kept = make()
        side.append(time.perf_counter() - t0)
    times += side
    if keep:
        return kept
    if close is not None:
        close(kept)
    return None


def _finish(ctx) -> None:
    if not ctx.trace:
        _time_setups(ctx, keep=False)
    ctx.e2e["setup_s"] = median(ctx.setup[2])
    ctx.show(f"setup_s (median of {len(ctx.setup[2])} set-ups)",
             ctx.e2e["setup_s"], "s")
    ctx.e2e["peak_rss_mb"] = peak_rss_mb()
    ctx.show("peak_rss_mb", ctx.e2e["peak_rss_mb"], "MB")
    if ctx.trace:
        path = ctx.rec.write_chrome(
            STATE / "traces" / f"{ctx.workload}-s{ctx.seed}.json")
        print(f"  span file {path.relative_to(STATE.parent)}")


@contextmanager
def _empty_cache():
    """A fresh, empty artifact cache directory, removed afterwards."""
    path = STATE / f"cold-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _layer_probes(ctx, cases, lead) -> None:
    """Traced-run probes every workload shares: kernels, bandwidth, the
    schedule store's warm load and, where the workload has no cold leg
    of its own, one cold build of the lead app so gcc is measured."""
    if "codegen.cold_gcc_s" not in ctx.layer:
        with _empty_cache() as cold_dir:
            parts = layers.traced_build(ctx.rec, next(_ops), lead,
                                        cold_dir)[0]
        ctx.layer["codegen.cold_gcc_s"] = parts["gcc_s"]
        ctx.layer["codegen.cold_cache_hits"] = int(parts["cache_hit"])
        ctx.layer["codegen.cold_cache_misses"] = int(not parts["cache_hit"])
    bw = bandwidth.probe_gbs(THREADS)
    detail, metrics = layers.kernel_probe(cases, bw)
    ctx.layer.update(metrics)
    ctx.detail["kernels"] = detail
    for name, d in detail.items():
        groups = ", ".join(f"{g:.3f}" for g in d["group_ms"])
        print(f"  kernel {name}: {d['ms_per_frame']:.3f} ms/frame, batch "
              f"{d['batch_ms_per_frame']:.3f}, groups [{groups}] ms, call "
              f"overhead {d['call_overhead_us']:.1f} us, "
              f"{d['bytes_computed'] / 1e6:.2f} MB computed -> "
              f"{d['pct_of_bw_bound']:.1f}% of bound, 2-thread speedup "
              f"{d['thread_speedup']:.2f}")
    print(f"  copy bandwidth probe {bw:.2f} GB/s ({THREADS} threads)")
    ctx.layer["schedule.store_load_ms"] = median(
        [layers.store_load_ms(lead) for _ in range(5)])


def _overhead(ctx, untraced_per_op: float, traced_per_op: float) -> None:
    ctx.layer["trace.overhead_pct"] = \
        (traced_per_op / untraced_per_op - 1.0) * 100.0
    print(f"  tracing overhead {ctx.layer['trace.overhead_pct']:.2f}% "
          f"({untraced_per_op * 1e3:.4f} -> {traced_per_op * 1e3:.4f} "
          f"ms/op)")


# -- build ----------------------------------------------------------------------
def _build_op(ctx, case, cache_dir, traced: bool):
    """compile_pipeline -> build_native -> first call of one app."""
    ctx.fails.attempted += 1
    op = next(_ops)
    t0 = time.perf_counter()
    try:
        if traced:
            parts, outputs, _ = layers.traced_build(ctx.rec, op, case,
                                                    cache_dir)
        else:
            plan = case.compile().plan
            native = build_native(plan, case.name, cache_dir=cache_dir)
            outputs = native(case.values, case.frames[0], n_threads=THREADS)
            parts = None
    except BuildError as exc:
        print(f"  build error {case.name}: {exc}")
        ctx.fails.fail("build_error")
        return None, None, None, op
    return time.perf_counter() - t0, outputs, parts, op


def _warm_round(ctx, cases, traced: bool):
    """One warm-cache build round over all apps."""
    total, parts, ops, outs = 0.0, [], [], {}
    for case in cases.values():
        s, outputs, p, op = _build_op(ctx, case, CACHE, traced)
        if s is None:
            continue
        total += s
        outs[case.name] = outputs
        parts.append(p)
        ops.append(op)
    return total, parts, ops, outs


def build(ctx) -> None:
    _warm(ctx, APPS, SIZE)
    cases = _setup(ctx, lambda: {name: AppCase(name, SIZE, ctx.seed, 1)
                                 for name in APPS})
    legs = ("warm", "traced") if ctx.trace else ("warm",)
    rounds = {leg: [] for leg in legs}
    t_parts, t_ops, t_wall, last = [], [], 0.0, {}
    cold, cold_out, cold_parts = {}, {}, []
    # the cold leg gets a fresh, empty artifact cache (gcc runs for every
    # app); its builds are spread over the run, between warm rounds, so
    # that each lands in a different stretch of the machine's speed
    hits0, misses0 = layers.cache_counts(CACHE)
    cpu, warm_s, n = 0.0, 0.0, 0
    with _empty_cache() as cold_dir:
        while warm_s < ctx.seconds or len(cold) < len(COLD_APPS) \
                or min(len(r) for r in rounds.values()) < 2:
            due = len(cold) * ctx.seconds / len(COLD_APPS)
            if len(cold) < len(COLD_APPS) and warm_s >= due:
                name = COLD_APPS[len(cold)]
                s, outputs, parts, _ = _build_op(ctx, cases[name], cold_dir,
                                                 ctx.trace)
                cold[name] = s
                if s is not None:
                    cold_out[name] = outputs
                    cold_parts.append(parts)
                continue
            leg = legs[n % len(legs)]
            n += 1
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            total, parts, ops, outs = _warm_round(ctx, cases,
                                                  leg == "traced")
            dt = time.perf_counter() - t0
            warm_s += dt
            rounds[leg].append(total)
            if leg == "warm":
                cpu += cpu_seconds() - cpu0
                last.update(outs)
            else:
                t_parts.append(parts)
                t_ops.extend(ops)
                t_wall += dt
        hits, misses = layers.cache_counts(cold_dir)
    cold = {name: s for name, s in cold.items() if s is not None}
    print(f"  cold leg cache: {hits} hits, {misses} misses")
    ctx.check(hits == 0 and misses == len(COLD_APPS))
    hits, misses = layers.cache_counts(CACHE)
    print(f"  warm leg cache: {hits - hits0} hits, {misses - misses0} "
          f"misses over {sum(len(r) for r in rounds.values())} rounds")
    ctx.check(misses == misses0)

    warm = rounds["warm"]
    ctx.e2e["ops_per_s"] = len(cases) / median(warm)
    ctx.e2e["second_leg_ms"] = geomean(cold.values()) * 1e3
    ctx.show("cold_build_s", sum(cold.values()), "s")
    ctx.show("warm_build_s", median(warm), "s")
    ctx.show("ops_per_s (warm app builds)", ctx.e2e["ops_per_s"], "1/s")
    ctx.show("second_leg_ms (cold build per app, geomean)",
             ctx.e2e["second_leg_ms"], "ms")
    ctx.detail["cold_build_s"] = cold
    ctx.detail["warm_rounds_s"] = warm

    if ctx.trace:
        per_round = [layers.build_layer_metrics(p) for p in t_parts]
        for key in per_round[0]:
            ctx.layer[key] = median([r[key] for r in per_round])
        ctx.layer["codegen.cold_gcc_s"] = sum(p["gcc_s"] for p in cold_parts)
        ctx.layer["codegen.cold_cache_hits"] = sum(
            bool(p["cache_hit"]) for p in cold_parts)
        ctx.layer["codegen.cold_cache_misses"] = sum(
            not p["cache_hit"] for p in cold_parts)
        ctx.layer["proc.cpu_ms_per_op"] = cpu / (len(warm) * len(cases)) \
            * 1e3
        _overhead(ctx, median(warm) / len(cases),
                  median(rounds["traced"]) / len(cases))
        ctx.self_time_metrics(t_ops, t_wall / len(t_ops))
        _layer_probes(ctx, list(cases.values()), cases["harris"])

    for name, outputs in last.items():
        ctx.check(checks.against_reference(cases[name], outputs, 0))
    for name, outputs in cold_out.items():
        ctx.check(checks.identical(f"{name} cold vs warm", outputs,
                                   last[name]))
    _finish(ctx)


# -- offline --------------------------------------------------------------------
def _interleaved(cases, legs: dict, seconds: float):
    """Run every leg on every app in short alternating slices until
    ``seconds`` pass, so that each leg and each app sees every stretch
    of the machine's speed.  Returns per leg the per-app call times and
    the wall time of the leg's slices."""
    times = {leg: {case.name: [] for case in cases} for leg in legs}
    walls = dict.fromkeys(legs, 0.0)
    slice_s = max(0.02, seconds / len(cases) / len(legs) / 8)
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        for case in cases:
            for leg, call in legs.items():
                t_slice = time.perf_counter()
                while True:
                    t0 = time.perf_counter()
                    call(case, k)
                    t1 = time.perf_counter()
                    times[leg][case.name].append(t1 - t0)
                    k += 1
                    if t1 - t_slice >= slice_s:
                        break
                walls[leg] += time.perf_counter() - t_slice
    return times, walls


def _rate(times, per_call: int = 1) -> float:
    """Geometric mean over apps of frames per second at each app's
    median call time."""
    return geomean([per_call / median(t) for t in times.values()])


def offline(ctx) -> None:
    _warm(ctx, APPS, SIZE)

    def make():
        cases = [AppCase(name, SIZE, ctx.seed, FRAMES) for name in APPS]
        natives = {}
        for case in cases:
            natives[case.name] = build_native(case.compile().plan,
                                              case.name)
            natives[case.name](case.values, case.frames[0],
                               n_threads=THREADS)
        return cases, natives

    cases, natives = _setup(ctx, make)
    last = {}

    def single(case, k):
        idx = k % FRAMES
        last[case.name] = (idx, natives[case.name](
            case.values, case.frames[idx], n_threads=THREADS))

    def batch(case, k):
        natives[case.name].run_batch(case.values, case.frames,
                                     n_threads=THREADS)

    legs = {"single": single, "batch": batch}
    if ctx.trace:
        instrumented = {case.name: build_native(case.compile().plan,
                                                case.name, instrument=True)
                        for case in cases}
        ops = []

        def traced(case, k):
            op = next(_ops)
            native = instrumented[case.name]
            t0 = time.perf_counter()
            native(case.values, case.frames[k % FRAMES], n_threads=THREADS)
            t1 = time.perf_counter()
            ctx.rec.add("op", op, t0, t1)
            groups = native.last_stats.group_seconds
            g0 = t0 + max(0.0, (t1 - t0 - sum(groups)) / 2)
            for seconds in groups:
                ctx.rec.add("kernel_groups", op, g0, min(g0 + seconds, t1))
                g0 += seconds
            ops.append(op)

        legs["traced"] = traced
    cpu0 = cpu_seconds()
    times, walls = _interleaved(cases, legs, ctx.seconds)
    cpu = cpu_seconds() - cpu0
    counts = {leg: sum(len(t) for t in per_app.values())
              for leg, per_app in times.items()}
    frames = sum(counts.values()) + (FRAMES - 1) * counts["batch"]
    ctx.fails.attempted += frames
    single_t, batch_t = times["single"], times["batch"]
    for case in cases:
        single_ms = median(single_t[case.name]) * 1e3
        batch_ms = median(batch_t[case.name]) * 1e3 / FRAMES
        print(f"  {case.name}: {single_ms:.4f} ms/frame single, "
              f"{batch_ms:.4f} ms/frame batch (medians of "
              f"{len(single_t[case.name])} calls + "
              f"{len(batch_t[case.name])} batches)")
    ctx.e2e["ops_per_s"] = _rate(single_t)
    ctx.e2e["second_leg_ms"] = 1e3 / _rate(batch_t, FRAMES)
    ctx.show("frames_per_s", ctx.e2e["ops_per_s"], "frames/s")
    ctx.show("batch_frames_per_s", _rate(batch_t, FRAMES), "frames/s")
    ctx.show("second_leg_ms (batch ms per frame, geomean)",
             ctx.e2e["second_leg_ms"], "ms")

    if ctx.trace:
        ctx.layer["proc.cpu_ms_per_op"] = cpu / frames * 1e3
        _overhead(ctx, 1.0 / ctx.e2e["ops_per_s"],
                  1.0 / _rate(times["traced"]))
        ctx.self_time_metrics(ops, walls["traced"] / len(ops))
        builds = [layers.traced_build(ctx.rec, next(_ops), case, CACHE)[0]
                  for case in cases]
        ctx.layer.update(layers.build_layer_metrics(builds))
        _layer_probes(ctx, cases, cases[list(APPS).index("harris")])

    for case in cases:
        native = natives[case.name]
        idx, timed_out = last[case.name]
        direct = [native(case.values, frame, n_threads=THREADS)
                  for frame in case.frames]
        ctx.check(checks.identical(f"{case.name} timed vs direct",
                                   timed_out, direct[idx]))
        batched = native.run_batch(case.values, case.frames,
                                   n_threads=THREADS)
        ctx.check(all(checks.identical(f"{case.name} batch frame {i}",
                                       b, d)
                      for i, (b, d) in enumerate(zip(batched, direct))))
        ctx.check(checks.against_reference(case, direct[0], 0))
        ctx.check(checks.against_reference(case, direct[FRAMES - 1],
                                           FRAMES - 1))
    _finish(ctx)


# -- serving ----------------------------------------------------------------------
class _Tally:
    """Thread-safe attempted/failed tallies of one serving leg."""

    def __init__(self, ctx):
        self._ctx = ctx
        self._lock = threading.Lock()

    def attempt(self, n: int = 1) -> None:
        with self._lock:
            self._ctx.fails.attempted += n

    def fail(self, exc: BaseException | None, backend: str = NATIVE) -> None:
        if exc is None and backend == NATIVE:
            return
        if exc is None:
            kind = "interpreter_fallback"
        elif isinstance(exc, Overloaded):
            kind = "overloaded"
        elif isinstance(exc, DeadlineExceeded):
            kind = "timeout"
        elif isinstance(exc, WorkerCrashed):
            kind = "crashed"
        else:
            kind = "other"
            print(f"  serve error: {type(exc).__name__}: {exc}")
        with self._lock:
            self._ctx.fails.fail(kind)


#: stage boundaries by tier: (layer name, timeline mark ending it)
_THREAD_STAGES = (("queue_wait", "dequeued"), ("batch_wait", "dispatched"),
                  ("execute", "completed"))
_SHARDED_STAGES = (("transport_in", "worker_submitted"),
                   ("queue_wait", "worker_dequeued"),
                   ("batch_wait", "worker_dispatched"),
                   ("execute", "worker_completed"),
                   ("transport_out", "completed"))


def _stamps(frame) -> dict[str, float]:
    stamps = {}
    for event in frame.timeline().events():
        stamps.setdefault(event.kind, event.ts)
    return stamps


def _closed_leg(ctx, svc, case, seconds, stages=None, samples=None):
    """``SERVE_CLIENTS`` clients, each waiting for its result before the
    next submit.  With ``stages`` (the tier's stage table) every request
    is traced: a root span, the submit call and one span per server
    stage, cut at the timeline's marks."""
    tally = _Tally(ctx)
    lat, stamps, ops, stage_rows = [], [], [], []
    lock = threading.Lock()
    n = len(case.frames)
    end = time.perf_counter() + seconds

    def client(c: int) -> None:
        k = c
        my_lat, my_stamps, my_ops, my_rows = [], [], [], []
        while time.perf_counter() < end:
            idx = k % n
            k += SERVE_CLIENTS
            t0 = time.perf_counter()
            try:
                future = svc.submit(case.values, case.frames[idx])
                t_sub = time.perf_counter()
                frame = future.result(timeout=60)
            except Exception as exc:  # noqa: BLE001 - tallied by kind
                tally.fail(exc)
                continue
            t1 = time.perf_counter()
            tally.fail(None, frame.backend)
            my_lat.append(t1 - t0)
            my_stamps.append(t1)
            if samples is not None and len(my_lat) <= 4:
                with lock:
                    samples.append((idx, {key: np.array(v) for key, v
                                          in frame.outputs.items()}))
            if stages is not None:
                op = next(_ops)
                marks = _stamps(frame)
                ctx.rec.add("op", op, t0, t1)
                ctx.rec.add("submit", op, t0, t_sub)
                prev, row = t_sub, {"client": t1 - t0}
                for name, kind in stages:
                    ts = min(max(marks.get(kind, prev), prev), t1)
                    ctx.rec.add(name, op, prev, ts)
                    row[name] = ts - prev
                    prev = ts
                row["server"] = marks["completed"] - marks["submitted"]
                row["submit"] = t_sub - t0
                my_rows.append(row)
                my_ops.append(op)
            frame.release()
        tally.attempt((k - c) // SERVE_CLIENTS)
        with lock:
            lat.extend(my_lat)
            stamps.extend(my_stamps)
            ops.extend(my_ops)
            stage_rows.extend(my_rows)

    threads = [threading.Thread(target=client, args=(c,))
               for c in range(SERVE_CLIENTS)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    return lat, stamps, wall, ops, stage_rows


def _schedules(seed: int, rate: float, seconds: float, n_frames: int,
               blocks: int) -> list:
    """Seeded open-loop schedules, one per block: (send offsets from the
    block's start, frame picks), drawn before any timing."""
    out = []
    for block in range(blocks):
        rng = np.random.default_rng([seed, 1, block])
        count = int(rate * seconds)
        out.append((np.cumsum(rng.exponential(1.0 / rate, count)),
                    rng.integers(0, n_frames, count)))
    return out


def _open_leg(ctx, svc, case, schedule):
    """Open loop: sends on a seeded exponential schedule regardless of
    completions; latency is timed from each frame's due time."""
    offsets, picks = schedule
    count = len(offsets)
    tally = _Tally(ctx)
    done_at = np.full(count, np.nan)
    late = np.zeros(count)
    submit_s = np.full(count, np.nan)
    pending = [0]
    idle = threading.Condition()

    def on_done(i: int, future) -> None:
        t = time.perf_counter()
        exc = future.exception()
        if exc is not None:
            tally.fail(exc)
        else:
            frame = future.result()
            tally.fail(None, frame.backend)
            done_at[i] = t
            frame.release()
        with idle:
            pending[0] -= 1
            idle.notify()

    start = time.perf_counter() + 0.01
    due = start + offsets
    for i in range(count):
        now = time.perf_counter()
        if due[i] > now:
            time.sleep(due[i] - now)
        tally.attempt()
        t0 = time.perf_counter()
        late[i] = t0 - due[i]
        with idle:
            pending[0] += 1
        try:
            future = svc.submit(case.values, case.frames[picks[i]])
        except Exception as exc:  # noqa: BLE001 - tallied by kind
            tally.fail(exc)
            with idle:
                pending[0] -= 1
            continue
        submit_s[i] = time.perf_counter() - t0
        future.add_done_callback(partial(on_done, i))
    with idle:
        idle.wait_for(lambda: pending[0] == 0, timeout=60)
    ok = ~np.isnan(done_at)
    return (done_at[ok] - due[ok], done_at[ok], late,
            submit_s[~np.isnan(submit_s)])


def _owners_file():
    return STATE / "shm-owners"


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _reap_own_segments() -> int:
    """Unlink ``reproshm-*`` segments left by this benchmark's earlier
    runs that died before closing their service (tokens embed the
    creating pid), then register this run."""
    owners = _owners_file()
    pids = [int(p) for p in owners.read_text().split()] \
        if owners.exists() else []
    root = shm_dir()
    reaped = 0
    for pid in pids:
        if pid == os.getpid() or _alive(pid) or root is None:
            continue
        prefix = f"{SEGMENT_PREFIX}-{pid:x}x"
        for path in list(root.iterdir()):
            if path.name.startswith(prefix):
                path.unlink(missing_ok=True)
                reaped += 1
    keep = [p for p in pids if p != os.getpid() and _alive(p)]
    owners.write_text("".join(f"{p}\n" for p in keep + [os.getpid()]))
    return reaped


def _unregister_owner() -> None:
    owners = _owners_file()
    pids = [int(p) for p in owners.read_text().split()
            if int(p) != os.getpid()]
    owners.write_text("".join(f"{p}\n" for p in pids))


def _workers():
    return [p.pid for p in multiprocessing.active_children()]


def _serve(ctx, size: int, processes: int, rate: float) -> None:
    _warm(ctx, ["harris"], size)
    reaped = _reap_own_segments() if processes else 0
    if processes:
        print(f"  reaped {reaped} leaked segments of earlier runs")

    def make():
        case = AppCase("harris", size, ctx.seed, SERVE_FRAMES)
        compiled = case.compile()
        if processes:
            svc = compiled.serve(processes=processes, store="ro",
                                 max_queue=SERVE_MAX_QUEUE, n_threads=1)
        else:
            svc = compiled.serve(workers=SERVE_WORKERS,
                                 max_queue=SERVE_MAX_QUEUE, n_threads=1)
        state = svc.wait_ready(60)
        if state != NATIVE:
            svc.close()
            raise RuntimeError(f"service came up as {state!r}")
        for i in range(32):
            svc.run(case.values, case.frames[i % SERVE_FRAMES],
                    timeout=60).release()
        return case, svc

    def close(state) -> None:
        """Close a set-up's service; segments it leaves count as failures."""
        state[1].close()
        leaked = len(live_segments(state[1].token)) if processes else 0
        if leaked:
            ctx.fails.fail("other", leaked)

    case, svc = _setup(ctx, make, close=close)
    try:
        _serve_legs(ctx, svc, case, processes, rate)
        if processes:
            # workers' slab pools grow with the frames in flight, so their
            # peak follows the load's bursts: reported, not gated
            ctx.layer["proc.worker_peak_rss_mb"] = max(
                proc_peak_rss_mb(pid) for pid in _workers())
            ctx.show("worker peak_rss_mb",
                     ctx.layer["proc.worker_peak_rss_mb"], "MB")
        if ctx.trace:
            ctx.layer["shm.reaped_segments"] = reaped
            _layer_probes(ctx, [case], case)
            ctx.layer.update(layers.build_layer_metrics(
                [layers.traced_build(ctx.rec, next(_ops), case, CACHE)[0]]))
    finally:
        svc.close()
    if processes:
        leaked = len(live_segments(svc.token))
        print(f"  shm.leaked_segments = {leaked} after close")
        ctx.layer["shm.leaked_segments"] = leaked
        if leaked == 0:
            _unregister_owner()
        else:
            ctx.fails.fail("other", leaked)
    _finish(ctx)


def _serve_legs(ctx, svc, case, processes: int, rate: float) -> None:
    """Closed-loop, (traced) and open-loop blocks of ``BLOCK_S`` take
    turns for the run's duration, so each leg sees every stretch of the
    machine's speed."""
    legs = ("closed", "traced", "open") if ctx.trace else ("closed", "open")
    blocks = max(1, round(ctx.seconds / BLOCK_S / len(legs)))
    schedules = _schedules(ctx.seed, rate, BLOCK_S, len(case.frames), blocks)
    stages = _SHARDED_STAGES if processes else _THREAD_STAGES
    samples: list = []
    lat, stamps, windows, wall, cpu = [], [], [], 0.0, 0.0
    t_n, t_wall, ops, rows = 0, 0.0, [], []
    open_lat, open_stamps, late, submit_s = [], [], [], []
    before = svc.stats()
    transport0 = svc.transport() if processes else None
    pids = _workers()
    for block in range(blocks):
        for leg in legs:
            if leg == "closed":
                cpu0 = cpu_seconds() + sum(proc_cpu_seconds(p) for p in pids)
                b_lat, b_stamps, b_wall, _, _ = _closed_leg(
                    ctx, svc, case, BLOCK_S,
                    samples=samples if block == 0 else None)
                cpu += cpu_seconds() + sum(proc_cpu_seconds(p)
                                           for p in pids) - cpu0
                lat += b_lat
                stamps += b_stamps
                windows += windowed_rate(b_stamps, each=True)
                wall += b_wall
            elif leg == "traced":
                b_lat, _, b_wall, b_ops, b_rows = _closed_leg(
                    ctx, svc, case, BLOCK_S, stages=stages)
                t_n += len(b_lat)
                t_wall += b_wall
                ops += b_ops
                rows += b_rows
            else:
                o_lat, o_stamps, o_late, o_submit = _open_leg(
                    ctx, svc, case, schedules[block])
                open_lat += list(o_lat)
                open_stamps += list(o_stamps)
                late += list(o_late)
                submit_s += list(o_submit)
    after = svc.stats()
    fps = median(windows)
    ctx.detail["closed_window_rates"] = windows
    p50 = percentile(lat, 50) * 1e3
    p99 = windowed_p99(stamps, lat) * 1e3

    if ctx.trace:
        _overhead(ctx, wall / len(lat), t_wall / t_n)
        ctx.self_time_metrics(ops, SERVE_CLIENTS * t_wall / t_n)
        for name in ("queue_wait", "execute"):
            values = [r[name] for r in rows]
            ctx.layer[f"serve.{name}_p50_ms"] = percentile(values, 50) * 1e3
            ctx.layer[f"serve.{name}_p99_ms"] = percentile(values, 99) * 1e3
        ctx.layer["serve.batch_wait_p50_ms"] = percentile(
            [r["batch_wait"] for r in rows], 50) * 1e3
        ctx.layer["serve.client_gap_p50_ms"] = percentile(
            [r["client"] - r["server"] for r in rows], 50) * 1e3
        ctx.layer["proc.cpu_ms_per_op"] = cpu / len(lat) * 1e3
        completed = after.completed - before.completed
        batches = after.batches - before.batches
        batched = after.batched_frames - before.batched_frames
        ctx.layer["serve.mean_batch_size"] = batched / batches \
            if batches else 1.0
        ctx.layer["serve.batched_share"] = batched / completed \
            if completed else 0.0
        hits = after.pool.get("hits", 0) - before.pool.get("hits", 0)
        misses = after.pool.get("misses", 0) - before.pool.get("misses", 0)
        ctx.layer["runtime.pool_hit_rate"] = hits / (hits + misses) \
            if hits + misses else 0.0

    open_p50 = percentile(open_lat, 50) * 1e3
    open_p99 = windowed_p99(open_stamps, open_lat) * 1e3

    ctx.e2e["ops_per_s"] = fps
    # the open-loop figures are reported, not gated: near the tier's
    # capacity they move with the machine's speed phases by more than
    # the largest bound (see README)
    ctx.e2e["second_leg_ms"] = p50
    ctx.show("frames_per_s", fps, "frames/s")
    ctx.show("p50_ms", p50, "ms")
    ctx.show("p99_ms (median of 1 s windows)", p99, "ms")
    print(f"  closed loop: {len(lat)} frames, {SERVE_CLIENTS} clients")
    ctx.show("open_p50_ms", open_p50, "ms")
    ctx.show("open_p99_ms (median of 1 s windows)", open_p99, "ms")
    ctx.show("loadgen late p99", percentile(late, 99) * 1e3, "ms")
    print(f"  open loop: {len(open_lat)} frames at {rate:g}/s")
    ctx.layer.update({
        "serve.client_p50_ms": p50, "serve.client_p99_ms": p99,
        "serve.open_p50_ms": open_p50, "serve.open_p99_ms": open_p99,
        "serve.submit_p99_us": percentile(submit_s, 99) * 1e6,
        "loadgen.late_p99_ms": percentile(late, 99) * 1e3,
    })
    if processes:
        transport = svc.transport()
        ctx.layer["router.copied_in"] = (transport["input_copies"]
                                         - transport0["input_copies"])
        ctx.layer["router.copied_out"] = transport["copied_out"]
        ctx.layer["router.respawns"] = transport["respawns"]
        if transport["respawns"]:
            ctx.fails.fail("crashed", transport["respawns"])

    # served frames, bit for bit against a direct native call
    direct = build_native(svc.plan, case.name)
    for idx, outputs in samples:
        want = direct(case.values, case.frames[idx], n_threads=1)
        ctx.check(checks.identical(f"served frame {idx}", outputs, want))
    print(f"  {len(samples)} served frames compared with direct calls")
    ctx.check(checks.against_reference(
        case, direct(case.values, case.frames[0], n_threads=1), 0))


def serve_thread(ctx) -> None:
    _serve(ctx, *SERVE_THREAD)


def serve_sharded(ctx) -> None:
    _serve(ctx, *SERVE_SHARDED)
