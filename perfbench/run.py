"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload offline --seed 1 --seconds 40 \
        --trace 0 [--save DIR]

Run from the root of a source checkout: the program is imported from
``src/`` and every file the run writes (artifact cache, compiler
temporaries, span files, detail JSON) lands under ``.perfbench/``.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
traced variant of the same workload and prints the per-layer metrics.
The last line of standard output is the result JSON; the exit code is
non-zero when any operation failed or any output check failed.  The
workload runs in a child process; this one waits for it and then stops
and reaps every process the run started (``supervise.py``).
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("build", "offline", "serve_thread", "serve_sharded")


class Context:
    """What a workload reads (seed, duration, trace flag) and fills in."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool):
        from common import Failures
        from recorder import Recorder
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.fails = Failures()
        self.rec = Recorder() if trace else None
        self.e2e: dict[str, float] = {}
        self.layer: dict[str, float] = {}
        #: per-workload figures printed by their own names (not in the JSON)
        self.report: list[tuple[str, float, str]] = []
        self.detail: dict = {}
        self.checks_ok = True
        #: (make, close, set-up times) of the workload's set-up
        self.setup = None

    def show(self, name: str, value: float, unit: str) -> None:
        self.report.append((name, value, unit))
        print(f"  {name} = {value:.6g} {unit}", flush=True)

    def check(self, ok: bool) -> None:
        """Record one output check; a failed check is a failed op."""
        if not ok:
            self.checks_ok = False
            self.fails.fail("wrong_output")

    def self_time_metrics(self, ops, e2e_per_op_s: float) -> None:
        """Per-op self time per layer over the traced main leg's ``ops``,
        and how far their sum is from the traced end-to-end time per op
        (the difference is the harness's own time between ops)."""
        totals, roots, root_s = self.rec.self_times(set(ops))
        for layer, seconds in totals.items():
            self.layer[f"self.{layer}_us"] = seconds / max(roots, 1) * 1e6
        per_op = root_s / max(roots, 1)
        gap = (e2e_per_op_s - per_op) / e2e_per_op_s * 100.0 \
            if e2e_per_op_s else 0.0
        self.layer["trace.self_gap_pct"] = gap
        print(f"  self times sum to {per_op * 1e3:.4f} ms/op against "
              f"{e2e_per_op_s * 1e3:.4f} ms/op traced end to end "
              f"(gap {gap:.2f}%, tolerance 10%: "
              f"{'ok' if abs(gap) <= 10.0 else 'over'})", flush=True)


def _setup_environment() -> None:
    """Keep every file the run writes inside the checkout."""
    state = ROOT / ".perfbench"
    tmp = state / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["REPRO_CACHE_DIR"] = str(state / "cache")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, default=None,
                        help="also write the result JSON into this "
                             "directory (input of compare.py)")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print("perfbench: run from the root of a source checkout "
              "(src/repro and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    _setup_environment()
    # a stop request unwinds the run, so open services are closed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    import workloads
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload} seed {args.seed} seconds "
          f"{args.seconds:g} trace {args.trace}", flush=True)
    started = time.perf_counter()
    getattr(workloads, args.workload)(ctx)
    print(f"  {ctx.fails.line()}")
    print(f"  wall {time.perf_counter() - started:.1f} s", flush=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    source = ctx.layer if args.trace else ctx.e2e
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing and not args.trace:
        raise RuntimeError(f"workload did not measure {missing}")
    metrics = {m["name"]: {"value": float(source.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    for name, entry in metrics.items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}"
              + (" (not exercised by this workload)"
                 if name in missing else ""))
    correct = ctx.checks_ok and ctx.fails.failed == 0
    result = {"correct": correct,
              "attempted": max(1, ctx.fails.attempted),
              "failed": ctx.fails.failed, "metrics": metrics}

    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    (results / f"{tag}.json").write_text(json.dumps(
        {"result": result, "report": ctx.report, "detail": ctx.detail,
         "failures": ctx.fails.by_kind}, indent=1, default=str))
    if args.save is not None:
        args.save.mkdir(parents=True, exist_ok=True)
        (args.save / f"{tag}.json").write_text(json.dumps(result))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    from supervise import INNER_ENV, supervise
    if os.environ.get(INNER_ENV) == "1":
        sys.exit(main())
    sys.exit(supervise(__file__, sys.argv[1:]))
