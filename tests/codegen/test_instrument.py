"""Instrumented native builds: per-group timers and tile counters.

Skipped entirely when no C compiler is available (the instrument flag
itself is still exercised at the source level).
"""

import math

import numpy as np
import pytest

from repro import CompileOptions, Tracer, compile_pipeline
from repro.apps import harris as harris_app
from repro.bench.harness import SMALL_BUILDERS
from repro.codegen.build import (
    NativeStats, build_native, compiler_available,
)
from repro.codegen.cgen import generate_c

RNG = np.random.default_rng(23)


@pytest.fixture(scope="module")
def harris():
    app = harris_app.build_pipeline()
    R, C = app.params["R"], app.params["C"]
    values = {R: 64, C: 48}
    inputs = app.make_inputs(values, RNG)
    compiled = compile_pipeline(app.outputs, values,
                                CompileOptions.optimized((16, 16)))
    return app, values, inputs, compiled


# -- source level (no compiler needed) --------------------------------------

def test_instrumented_source_has_stats_symbols(harris):
    _, _, _, compiled = harris
    source = generate_c(compiled.plan, "p", instrument=True)
    assert "repro_now" in source
    assert "repro_group_tiles" in source
    assert "void pipe_p_stats(" in source
    assert "void pipe_p_stats_reset(" in source
    assert "#pragma omp atomic" in source


def test_plain_source_is_unchanged(harris):
    _, _, _, compiled = harris
    source = generate_c(compiled.plan, "p")
    assert "repro_now" not in source
    assert "repro_group" not in source


def test_instrument_changes_cache_key(harris):
    _, _, _, compiled = harris
    from repro.codegen.build import CANONICAL_NAME, CompileCache, build_flags
    flags = build_flags()
    plain = CompileCache.key_for(generate_c(compiled.plan, CANONICAL_NAME),
                                 flags)
    inst = CompileCache.key_for(
        generate_c(compiled.plan, CANONICAL_NAME, instrument=True), flags)
    assert plain != inst


# -- compiled level ----------------------------------------------------------

needs_cc = pytest.mark.skipif(not compiler_available(),
                              reason="no C compiler found")


@needs_cc
def test_instrumented_build_fills_last_stats(harris):
    app, values, inputs, compiled = harris
    native = build_native(compiled.plan, "inst_harris", instrument=True)
    assert native.instrumented
    assert native.last_stats is None
    out = native(values, inputs)
    stats = native.last_stats
    assert isinstance(stats, NativeStats)
    assert len(stats.group_seconds) == len(compiled.plan.group_plans)
    assert all(s >= 0.0 for s in stats.group_seconds)
    # the fused harris group is tiled: tiles must have been counted
    assert sum(stats.group_tiles) > 0
    assert stats.total_seconds >= 0.0
    assert "group 0" in stats.render()
    # results must match the interpreter despite the timers
    ref = compiled(values, inputs)
    for k in ref:
        np.testing.assert_allclose(out[k], ref[k], rtol=2e-4, atol=2e-5)


@needs_cc
def test_tile_counters_match_planned_tile_space():
    """The collapsed tile loop runs every tile of the space exactly once
    across the team: the counted tiles equal the ``parallel tiles``
    total that ``summary()`` reports for each tiled group."""
    app = SMALL_BUILDERS["unsharp"]()
    values = {app.params["R"]: 128, app.params["C"]: 128}
    compiled = compile_pipeline(app.outputs, values,
                                CompileOptions.optimized((4, 32, 64)),
                                name="inst_unsharp")
    plan = compiled.plan
    native = build_native(plan, "inst_unsharp", instrument=True)
    native(values, app.make_inputs(values, np.random.default_rng(0)),
           n_threads=2)
    want = [math.prod(gp.tile_counts(plan.ir, plan.estimates))
            if gp.is_tiled else 0 for gp in plan.group_plans]
    assert list(native.last_stats.group_tiles) == want


@needs_cc
def test_stats_reset_between_calls(harris):
    app, values, inputs, compiled = harris
    native = build_native(compiled.plan, "inst_harris2", instrument=True)
    native(values, inputs)
    first = native.last_stats
    native(values, inputs)
    second = native.last_stats
    # counters reset per call: tile counts are identical, not doubled
    assert second.group_tiles == first.group_tiles


@needs_cc
def test_uninstrumented_build_has_no_stats(harris):
    app, values, inputs, compiled = harris
    native = build_native(compiled.plan, "plain_harris")
    assert not native.instrumented
    native(values, inputs)
    assert native.last_stats is None


@needs_cc
def test_instrumented_call_feeds_tracer(harris):
    app, values, inputs, compiled = harris
    native = build_native(compiled.plan, "inst_harris3", instrument=True)
    tracer = Tracer(enabled=True)
    native(values, inputs, tracer=tracer)
    gauges = tracer.metrics.gauges()
    assert any(name.startswith("native.group[") for name in gauges)
    counters = tracer.metrics.counters()
    assert sum(v for k, v in counters.items()
               if k.endswith(".tiles")) > 0
