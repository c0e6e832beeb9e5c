"""Memory-bandwidth bound for the generated kernels.

``probe_gbs`` is a STREAM-style copy in NumPy, split across the same
number of threads the kernels use (``np.copyto`` releases the GIL).
``plan_bytes`` computes the bytes one frame must move from the plan's
storage decisions: every input image read once, every live-out written
once, and every other full buffer written once and read once.  Scratch
(tile-local) buffers move no memory traffic in this model.  The bytes
are computed, not measured.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.compiler.storage import FULL
from repro.poly.affine import to_affine

PROBE_BYTES = 64 << 20  # per array; larger than the last-level cache


def probe_gbs(n_threads: int, repeats: int = 20) -> float:
    """Best-of-``repeats`` copy bandwidth in GB/s (read + write bytes)."""
    src = np.ones(PROBE_BYTES // 8)
    dst = np.zeros_like(src)
    chunks = np.array_split(np.arange(src.size), n_threads)
    spans = [(int(c[0]), int(c[-1]) + 1) for c in chunks]

    def copy(lo: int, hi: int) -> None:
        np.copyto(dst[lo:hi], src[lo:hi])

    best = float("inf")
    for _ in range(repeats):
        threads = [threading.Thread(target=copy, args=span)
                   for span in spans]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        best = min(best, time.perf_counter() - t0)
    return 2 * src.nbytes / best / 1e9


def plan_bytes(plan, values) -> int:
    """Computed bytes one frame moves through memory (see module doc)."""
    total = 0
    for image in plan.ir.graph.inputs:
        n = image.dtype.np_dtype.itemsize
        for extent in image.extents:
            n *= to_affine(extent, params_only=True).evaluate_int(values)
        total += n
    narrowing = plan.narrowing or {}
    for group_plan in plan.group_plans:
        for stage in group_plan.ordered_stages:
            if plan.storage[stage].kind != FULL:
                continue
            box = plan.ir[stage].domain.concretize(values)
            if box is None:
                continue
            n = narrowing.get(stage, stage.dtype).np_dtype.itemsize
            for interval in box:
                n *= interval.size
            total += n if plan.ir[stage].is_output else 2 * n
    return total
