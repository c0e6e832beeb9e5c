"""Golden tests for ``CompiledPipeline.summary()`` and ``explain()``.

The summary must state each tiled group's tile sizes and halo widths;
the explain output must replay every Algorithm 1 merge decision with its
overlap cost.  Every paper application must produce a non-trivial
decision log (the acceptance property of the observability layer).
"""

import re

import pytest

from repro import CompileOptions, compile_pipeline
from repro.bench.harness import DEFAULT_TILES, SMALL_BUILDERS

ALL_APPS = sorted(SMALL_BUILDERS)


def _compile(name: str, size: int = 128):
    app = SMALL_BUILDERS[name]()
    values = {app.params["R"]: size, app.params["C"]: size}
    options = CompileOptions.optimized(DEFAULT_TILES[name])
    return compile_pipeline(app.outputs, values, options, name=name)


# -- golden: harris ----------------------------------------------------------

@pytest.fixture(scope="module")
def harris():
    return _compile("harris")


def test_harris_summary_golden(harris):
    text = harris.summary()
    # one fused group of all 6 non-inlined stages, 32x256 tiles, halo 2,2
    assert re.search(r"group 0 \[tiled 32x256, halo 2,2\]", text), text
    for stage in ("Ix", "Iy", "Sxx", "Syy", "Sxy", "harris"):
        assert stage in text
    assert "scratch:" in text


def test_harris_explain_golden(harris):
    text = harris.explain()
    assert "== grouping decisions (Algorithm 1) ==" in text
    assert "== final groups ==" in text
    assert "== storage ==" in text
    assert "options: tiles=32x256" in text
    merges = [l for l in text.splitlines() if ": merge" in l]
    assert len(merges) == 5, text  # 6 stages fuse pairwise in 5 rounds
    # every merge line carries its measured overlap cost
    for line in merges:
        assert re.search(r"overlap \d", line), line
    assert "overlap within threshold" in text


# -- golden: parallel tile count ----------------------------------------------

def test_unsharp_parallel_tiles_golden():
    """The tiles the generated code shares out, per group dimension:
    unsharp's colour channel is a single tile at 4x32x256, so all of
    the parallelism is in the other two dimensions."""
    unsharp = _compile("unsharp", size=512)
    for text in (unsharp.summary(), unsharp.explain()):
        lines = text.splitlines()
        i = next(i for i, l in enumerate(lines)
                 if l.startswith("  group 0 [tiled 4x32x256"))
        assert lines[i + 1] == "    parallel tiles: 51 (1x17x3)", text


def test_pyramid_parallel_tiles_golden(pyramid):
    # blended's domain is [0, R] x [0, C]: at 256 the last row and
    # column start a fifth row tile and a second column tile; the
    # 3-wide channel dimension is one tile
    assert "    parallel tiles: 10 (1x5x2)" in pyramid.summary().splitlines()


# -- golden: pyramid_blend ---------------------------------------------------

@pytest.fixture(scope="module")
def pyramid():
    return _compile("pyramid_blend", size=256)


def test_pyramid_summary_golden(pyramid):
    text = pyramid.summary()
    assert re.search(r"group \d+ \[tiled ", text), text
    # pyramid halos are fractional at coarse levels: widths render as
    # fractions or integers, never empty
    for line in text.splitlines():
        m = re.search(r"halo ([\d,/ ]+)\]", line)
        if m:
            assert m.group(1).strip(), line


def test_pyramid_explain_golden(pyramid):
    text = pyramid.explain()
    assert "== grouping decisions (Algorithm 1) ==" in text
    merges = [l for l in text.splitlines() if ": merge" in l]
    # each accepted merge reduces the group count by exactly one, so the
    # log must account for every singleton that disappeared
    n_stages = len(pyramid.plan.ir.stages)
    n_groups = len(pyramid.plan.group_plans)
    assert len(merges) == n_stages - n_groups, text
    assert len(merges) >= 3, text
    assert n_groups < n_stages


# -- every paper app produces a non-trivial decision log ---------------------

@pytest.mark.parametrize("name", ALL_APPS)
def test_explain_nontrivial_for_every_app(name):
    compiled = _compile(name, size=256)
    decisions = compiled.plan.grouping.decisions
    assert decisions, f"{name}: no merge candidates evaluated"
    text = compiled.explain()
    assert "== grouping decisions (Algorithm 1) ==" in text
    # at least one decision line with a round marker
    assert re.search(r"round \d+: (merge|keep)", text), text
    # overlap costs appear for threshold-checked candidates
    overlap_lines = [l for l in text.splitlines() if "overlap" in l]
    assert overlap_lines, text


@pytest.mark.parametrize("name", ALL_APPS)
def test_summary_reports_tiles_and_halos(name):
    compiled = _compile(name, size=256)
    text = compiled.summary()
    tiled = [gp for gp in compiled.plan.group_plans if gp.is_tiled]
    if tiled:
        assert re.search(r"\[tiled \d+(x\d+)*, halo ", text), text
