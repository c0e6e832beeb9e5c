"""Native (gcc + ctypes) backend equivalence tests.

Every pipeline is executed with the interpreter backend and the compiled
C backend; results must agree to floating tolerance.  Skipped entirely
when no C compiler is available.
"""

import math

import numpy as np
import pytest

from repro import CompileOptions, compile_pipeline
from repro.apps import harris as harris_app
from repro.bench.harness import SMALL_BUILDERS
from repro.codegen.build import build_native, compiler_available
from repro.lang import (
    Accumulate, Accumulator, Case, Cast, Condition, Float, Function, Image,
    Int, Interval, Parameter, Select, Stencil, Sum, UChar, Variable,
)

pytestmark = pytest.mark.skipif(not compiler_available(),
                                reason="no C compiler found")

RNG = np.random.default_rng(11)


def both_backends(compiled, name, values, inputs, n_threads=1):
    interp = compiled(values, inputs)
    native = build_native(compiled.plan, name)
    nat = native(values, inputs, n_threads=n_threads)
    return interp, nat


@pytest.mark.parametrize("options,label", [
    (CompileOptions.optimized((32, 256)), "opt"),
    (CompileOptions.optimized((16, 16)), "opt16"),
    (CompileOptions.base(), "base"),
])
def test_harris_native_matches_interpreter(options, label):
    app = harris_app.build_pipeline()
    R, C = app.params["R"], app.params["C"]
    values = {R: 61, C: 45}
    inputs = app.make_inputs(values, RNG)
    compiled = compile_pipeline(app.outputs, values, options,
                                name=f"nat_harris_{label}")
    interp, nat = both_backends(compiled, f"nat_harris_{label}",
                                values, inputs, n_threads=2)
    np.testing.assert_allclose(nat["harris"], interp["harris"],
                               rtol=1e-5, atol=1e-6)


def test_native_novec_flag_builds():
    app = harris_app.build_pipeline()
    R, C = app.params["R"], app.params["C"]
    values = {R: 33, C: 33}
    inputs = app.make_inputs(values, RNG)
    compiled = compile_pipeline(app.outputs, values,
                                CompileOptions.optimized((16, 16)),
                                name="nat_novec")
    native = build_native(compiled.plan, "nat_novec", vectorize=False)
    expected = compiled(values, inputs)["harris"]
    out = native(values, inputs)["harris"]
    np.testing.assert_allclose(out, expected, rtol=1e-5, atol=1e-6)


def test_native_histogram():
    R, C = Parameter(Int, "R"), Parameter(Int, "C")
    I = Image(UChar, [R, C], name="I")
    x, y, b = Variable("x"), Variable("y"), Variable("b")
    row, col = Interval(0, R - 1, 1), Interval(0, C - 1, 1)
    hist = Accumulator(redDom=([x, y], [row, col]),
                       varDom=([b], [Interval(0, 255, 1)]),
                       typ=Int, name="hist")
    hist.defn = Accumulate(hist(Cast(Int, I(x, y))), 1, Sum)
    values = {R: 37, C: 53}
    img = RNG.integers(0, 256, size=(37, 53), dtype=np.uint8)
    compiled = compile_pipeline([hist], values, name="nat_hist")
    interp, nat = both_backends(compiled, "nat_hist", values, {I: img})
    np.testing.assert_array_equal(nat["hist"], interp["hist"])


def test_native_time_iterated():
    R = Parameter(Int, "R")
    I = Image(Float, [R + 2], name="I")
    t, x = Variable("t"), Variable("x")
    f = Function(varDom=([t, x], [Interval(0, 4, 1), Interval(0, R + 1, 1)]),
                 typ=Float, name="f")
    f.defn = [
        Case(Condition(t, "==", 0), I(x)),
        Case(Condition(t, ">=", 1) & Condition(x, ">=", 1)
             & Condition(x, "<=", R),
             (f(t - 1, x - 1) + f(t - 1, x) + f(t - 1, x + 1)) / 3.0),
    ]
    values = {R: 40}
    data = RNG.random(42, dtype=np.float32)
    compiled = compile_pipeline([f], values, name="nat_jacobi")
    interp, nat = both_backends(compiled, "nat_jacobi", values, {I: data})
    np.testing.assert_allclose(nat["f"], interp["f"], rtol=1e-5)


def test_native_sampling_chain():
    R = Parameter(Int, "R")
    I = Image(Float, [2 * R + 2], name="I")
    x = Variable("x")
    down = Function(varDom=([x], [Interval(0, R, 1)]), typ=Float, name="down")
    down.defn = (I(2 * x) + I(2 * x + 1)) / 2.0
    up = Function(varDom=([x], [Interval(0, 2 * R, 1)]), typ=Float, name="up")
    up.defn = down(x // 2)
    values = {R: 53}
    data = RNG.random(108, dtype=np.float32)
    compiled = compile_pipeline([up], values, CompileOptions.optimized((16,)),
                                name="nat_updown")
    assert len(compiled.plan.group_plans) == 1  # fused across sampling
    interp, nat = both_backends(compiled, "nat_updown", values, {I: data})
    np.testing.assert_allclose(nat["up"], interp["up"], rtol=1e-6)


def test_native_multi_output_liveout_in_group():
    """blur is an output AND consumed in-group by sharp: the C backend
    must give it a scratchpad plus an owned-region copy-out."""
    R = Parameter(Int, "R")
    I = Image(Float, [R + 2], name="I")
    x = Variable("x")
    dom = Interval(0, R + 1, 1)
    c = Condition(x, ">=", 1) & Condition(x, "<=", R)
    blur = Function(varDom=([x], [dom]), typ=Float, name="blur")
    blur.defn = [Case(c, Stencil(I(x), 1.0 / 3, [1, 1, 1]))]
    sharp = Function(varDom=([x], [dom]), typ=Float, name="sharp")
    sharp.defn = [Case(c, I(x) * 2.0 - (blur(x - 1) + blur(x + 1)) / 2.0)]
    values = {R: 300}
    data = RNG.random(302, dtype=np.float32)
    compiled = compile_pipeline([blur, sharp], values,
                                CompileOptions.optimized((32,)),
                                name="nat_multi")
    # both in one tiled group
    assert len(compiled.plan.group_plans) == 1
    interp, nat = both_backends(compiled, "nat_multi", values, {I: data},
                                n_threads=2)
    np.testing.assert_allclose(nat["blur"], interp["blur"], rtol=1e-5)
    np.testing.assert_allclose(nat["sharp"], interp["sharp"], rtol=1e-5)


def test_native_data_dependent_lut():
    R = Parameter(Int, "R")
    I = Image(Float, [R], name="I")
    x = Variable("x")
    lut = Function(varDom=([x], [Interval(0, 255, 1)]), typ=Float, name="lut")
    lut.defn = x * x / 255.0
    f = Function(varDom=([x], [Interval(0, R - 1, 1)]), typ=Float, name="f")
    f.defn = lut(Cast(Int, Select(I(x) > 1.0, 255.0, I(x) * 255.0)))
    values = {R: 64}
    data = (RNG.random(64) * 1.2).astype(np.float32)
    compiled = compile_pipeline([f], values, name="nat_lut")
    interp, nat = both_backends(compiled, "nat_lut", values, {I: data})
    np.testing.assert_allclose(nat["f"], interp["f"], rtol=1e-5)


def test_native_different_sizes_same_binary():
    """One compiled binary serves multiple parameter values."""
    app = harris_app.build_pipeline()
    R, C = app.params["R"], app.params["C"]
    est = {R: 256, C: 256}
    compiled = compile_pipeline(app.outputs, est,
                                CompileOptions.optimized((32, 256)),
                                name="nat_resize")
    native = build_native(compiled.plan, "nat_resize")
    for r, c in [(31, 97), (64, 64), (130, 40)]:
        values = {R: r, C: c}
        inputs = app.make_inputs(values, RNG)
        expected = app.reference(inputs, values)["harris"]
        out = native(values, inputs)["harris"]
        np.testing.assert_allclose(out, expected, rtol=2e-4, atol=2e-5)


#: channel-first apps and tiles whose leading tile covers the whole
#: channel dimension: a single ``T0`` tile, the rest of the tile space
#: spread over the team
CHANNEL_FIRST_TILES = {
    "unsharp": (4, 32, 64),
    "camera": (32, 64, 32),
    "pyramid_blend": (8, 32, 64),
    "interpolate": (8, 32, 64),
    "local_laplacian": (8, 32, 64),
}


@pytest.mark.parametrize("name", sorted(CHANNEL_FIRST_TILES))
def test_outputs_identical_across_thread_counts(name):
    """Whichever thread runs a tile, the bytes it writes are the same:
    single calls and batches agree exactly at 1, 2 and 3 threads."""
    app = SMALL_BUILDERS[name]()
    values = {app.params["R"]: 128, app.params["C"]: 128}
    compiled = compile_pipeline(
        app.outputs, values,
        CompileOptions.optimized(CHANNEL_FIRST_TILES[name]),
        name=f"nat_threads_{name}")
    plan = compiled.plan
    channel_groups = [gp.tile_counts(plan.ir, plan.estimates)
                      for gp in plan.group_plans
                      if gp.is_tiled and gp.transforms.ndim == 3]
    assert channel_groups
    for counts in channel_groups:
        assert counts[0] == 1 and math.prod(counts) >= 2, counts

    native = build_native(plan, f"nat_threads_{name}")
    frames = [app.make_inputs(values, np.random.default_rng(seed))
              for seed in (1, 2)]
    single = {n: native(values, frames[0], n_threads=n) for n in (1, 2, 3)}
    batch = {n: native.run_batch(values, frames, n_threads=n)
             for n in (1, 2, 3)}
    want = single[1]
    for n in (2, 3):
        for out in want:
            assert single[n][out].tobytes() == want[out].tobytes(), (n, out)
    for n in (1, 2, 3):
        for out in want:
            assert batch[n][0][out].tobytes() == want[out].tobytes(), \
                (n, out)
            assert batch[n][1][out].tobytes() == \
                batch[1][1][out].tobytes(), (n, out)


def test_untiled_collapsed_nests_match_interpreter():
    """The base variant's 3-D full-buffer stages run their collapsed
    channel x row loops in parallel and still match the interpreter."""
    app = SMALL_BUILDERS["unsharp"]()
    values = {app.params["R"]: 37, app.params["C"]: 53}
    inputs = app.make_inputs(values, RNG)
    compiled = compile_pipeline(app.outputs, values, CompileOptions.base(),
                                name="nat_unsharp_base")
    interp = compiled(values, inputs)
    native = build_native(compiled.plan, "nat_unsharp_base")
    for n in (1, 2, 3):
        nat = native(values, inputs, n_threads=n)
        for out in interp:
            np.testing.assert_allclose(nat[out], interp[out],
                                       rtol=1e-5, atol=1e-6)
