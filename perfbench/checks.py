"""Output checks, run outside every timed window.

Two kinds: native outputs against the app's hand-written NumPy
reference (by the app's criterion in ``common.CRITERIA``), and served or
batched outputs bit-for-bit against a direct native call on the same
input.  Every check prints one line; a failed check is counted as a
``wrong_output`` failure by the caller.
"""

from __future__ import annotations

import numpy as np

from common import CRITERIA


def against_reference(case, outputs: dict, frame_index: int) -> bool:
    """Compare one frame's native outputs with the NumPy reference."""
    expected = case.app.reference(case.frames[frame_index], case.values)
    step = CRITERIA[case.name]
    ok = True
    for key, ref in expected.items():
        err = np.abs(np.asarray(outputs[key], dtype=np.float64)
                     - np.asarray(ref, dtype=np.float64))
        mismatches = int((err >= 1e-4).sum())
        max_err = float(err.max()) if err.size else 0.0
        if step is None:
            passed = max_err < 1e-4
        else:
            passed = (float(np.quantile(err, 0.9)) < 1e-4
                      and max_err < step and float(err.mean()) < 1e-4)
        ok &= passed
        criterion = "exact" if step is None else f"select, step {step:.4g}"
        print(f"check {case.name}/{key} frame {frame_index}: "
              f"{'ok' if passed else 'FAIL'} ({criterion}) "
              f"{mismatches} of {err.size} elements differ, "
              f"max err {max_err:.6g}")
    return ok


def identical(label: str, got: dict, want: dict) -> bool:
    """Bit-for-bit comparison of two output dicts."""
    same = all(np.array_equal(np.asarray(got[k]), np.asarray(want[k]))
               for k in want)
    if not same:
        print(f"check {label}: FAIL (not bit-identical)")
    return same
