"""Pinned workload definitions and helpers shared by every workload.

Everything a workload runs is fixed here, in the benchmark's own files,
so that an edit to ``repro.bench.harness`` cannot move the benchmark:
the app builders and their reduced-level arguments, image sizes, tile
sizes, compile options, thread counts and rates.
"""

from __future__ import annotations

import math
import os
import resource
from pathlib import Path

import numpy as np

from repro import CompileOptions, compile_pipeline
from repro.apps import bilateral, camera, harris, interpolate, iunsharp
from repro.apps import laplacian, pyramid, unsharp

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
#: the warm artifact cache (never the library's default cache)
CACHE = STATE / "cache"

#: app -> (builder, builder kwargs); the reduced-level builders the
#: repository uses at 512x512
APPS = {
    "unsharp": (unsharp.build_pipeline, {}),
    "bilateral": (bilateral.build_pipeline, {}),
    "harris": (harris.build_pipeline, {}),
    "camera": (camera.build_pipeline, {}),
    "pyramid_blend": (pyramid.build_pipeline, {"levels": 3}),
    "interpolate": (interpolate.build_pipeline, {"levels": 4}),
    "local_laplacian": (laplacian.build_pipeline,
                        {"j_levels": 4, "levels": 3}),
    "iunsharp": (iunsharp.build_pipeline, {}),
}

#: tile sizes per app (group-dimension order), as pinned for this
#: benchmark
TILES = {
    "unsharp": (4, 32, 256),
    "bilateral": (32, 64, 16),
    "harris": (32, 256),
    "camera": (32, 256),
    "pyramid_blend": (8, 64, 256),
    "interpolate": (8, 64, 256),
    "local_laplacian": (64, 256),
    "iunsharp": (32, 256),
}

#: how outputs are judged against the app's NumPy reference: ``None``
#: is "exact" (max |err| < 1e-4); a number is the "select" criterion of
#: the repository's app tests, for apps that index a LUT, pick a bin or
#: take a threshold select on float values, where a one-ulp difference
#: may flip an element to the adjacent bin or branch: 90% of elements
#: exact, mean |err| < 1e-4, and max |err| within one step, the number.
#: unsharp is judged by "select": its threshold select flips a handful
#: of pixels at 512x512.  The app tests' one-step bound is 0.06; for
#: camera one step is at most the tone curve's largest LUT step (index
#: 0 -> 1 of x**GAMMA) times the sharpening gain on the centre pixel,
#: 0.0644, which a 0 -> 1 flip reaches at 512x512 (0.0619).
CRITERIA = {
    "unsharp": 0.06, "bilateral": 0.06, "harris": None,
    "camera": (1.0 / (camera.LUT_SIZE - 1)) ** camera.GAMMA
    * (1.0 + camera.SHARPEN_WEIGHT),
    "pyramid_blend": None, "interpolate": None,
    "local_laplacian": 0.06, "iunsharp": None,
}

SIZE = 512          # offline, build and serve_sharded image side
THREADS = 2         # n_threads of every native call (= nproc of the VM)
FRAMES = 8          # distinct frames per app (offline)
COLD_APPS = ("harris", "bilateral", "interpolate")
SERVE_FRAMES = 16   # distinct frames per serve workload
SERVE_WORKERS = 2
SERVE_CLIENTS = 2
SERVE_MAX_QUEUE = 1024
#: set-up repeats, before the measured legs and again after them: on
#: each side at least SETUP_MIN, then more until SETUP_BUDGET_S of set-up
#: has been timed or SETUP_MAX repeats ran (cheap set-ups get more
#: repeats, so their median is not one noisy sample)
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 2.0


class AppCase:
    """One app at one size with seeded distinct frames."""

    def __init__(self, name: str, size: int, seed: int, n_frames: int):
        builder, kwargs = APPS[name]
        self.name = name
        self.app = builder(**kwargs)
        self.values = {self.app.params["R"]: size,
                       self.app.params["C"]: size}
        self.frames = make_frames(self.app, self.values, seed, n_frames)

    def compile(self, tracer=None):
        return compile_pipeline(self.app.outputs, self.values,
                                CompileOptions.optimized(TILES[self.name]),
                                name=self.name,
                                tracer=tracer)


def make_frames(app, values, seed: int, n: int) -> list[dict]:
    """``n`` distinct seeded frames: one synthesized base frame, then
    seeded even 2-D rolls of it (even, so Bayer mosaics keep their
    phase).  Synthesis runs once; the rolls are cheap."""
    if n == 0:
        return []
    rng = np.random.default_rng(seed)
    base = app.make_inputs(values, rng)
    frames = [base]
    for _ in range(n - 1):
        frame = {}
        for image, array in base.items():
            shifts = tuple(2 * int(rng.integers(1, max(2, d // 2)))
                           for d in array.shape[:2])
            frame[image] = np.ascontiguousarray(
                np.roll(array, shifts, axis=(0, 1)))
        frames.append(frame)
    return frames


# -- statistics -------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100)."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median(values) -> float:
    return percentile(values, 50.0)


def windowed_p99(stamps, latencies, window_s: float = 1.0) -> float:
    """Median over fixed windows (by completion stamp) of each window's
    p99; windows holding fewer than 1000 samples (under ten beyond p99)
    are merged into the next.  A single stall then moves one window,
    not the run's figure."""
    order = np.argsort(np.asarray(stamps))
    stamps = np.asarray(stamps)[order]
    latencies = np.asarray(latencies)[order]
    if len(stamps) == 0:
        return 0.0
    p99s, start, t0 = [], 0, stamps[0]
    for i in range(len(stamps)):
        if stamps[i] - t0 >= window_s and i - start >= 1000:
            p99s.append(np.percentile(latencies[start:i], 99))
            start, t0 = i, stamps[i]
    if len(stamps) - start >= 1000 or not p99s:
        p99s.append(np.percentile(latencies[start:], 99))
    return float(np.median(p99s))


def windowed_rate(stamps, window_s: float = 0.5, each: bool = False):
    """Median over fixed windows of completions per second, so that a
    stall of the machine moves one window rather than the run's rate."""
    stamps = np.sort(np.asarray(stamps))
    if len(stamps) < 2:
        return 0.0
    edges = np.arange(stamps[0], stamps[-1], window_s)
    if len(edges) < 2:
        return (len(stamps) - 1) / (stamps[-1] - stamps[0])
    counts, _ = np.histogram(stamps, bins=edges)
    if each:
        return (counts / window_s).tolist()
    return float(np.median(counts)) / window_s


# -- process accounting -----------------------------------------------------
def peak_rss_mb() -> float:
    """Peak RSS of this process (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def proc_cpu_seconds(pid: int) -> float:
    """User+system CPU of a live process, from /proc (0 if gone)."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
    except OSError:
        return 0.0
    parts = fields.split()
    return (int(parts[11]) + int(parts[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    """VmHWM (peak RSS) of a live process, from /proc (0 if gone)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Failures:
    """Attempted/failed operations with failures counted by kind."""

    KINDS = ("build_error", "wrong_output", "overloaded", "timeout",
             "crashed", "interpreter_fallback", "other")

    def __init__(self):
        self.attempted = 0
        self.by_kind = {kind: 0 for kind in self.KINDS}

    def fail(self, kind: str, n: int = 1) -> None:
        self.by_kind[kind] += n

    @property
    def failed(self) -> int:
        return sum(self.by_kind.values())

    def line(self) -> str:
        rate = self.failed / self.attempted if self.attempted else 0.0
        kinds = ", ".join(f"{k}={v}" for k, v in self.by_kind.items())
        return (f"fail_rate {rate:.6f} share ({self.failed} failed / "
                f"{self.attempted} attempted; {kinds})")
