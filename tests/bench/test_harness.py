"""Tests for the bench harness and figure modules (fast paths only)."""

import io

import numpy as np
import pytest

from repro.bench import figure5, figure6, figure8
from repro.bench.harness import (
    APP_BUILDERS, DEFAULT_TILES, PAPER_TABLE2, SIZES, TimingStats,
    format_table, make_instance, time_ms, time_stats, variant_options,
)


def test_every_app_has_harness_metadata():
    for name in APP_BUILDERS:
        assert name in SIZES["paper"]
        assert name in SIZES["small"]
        assert name in DEFAULT_TILES
        if name != "iunsharp":  # not a paper benchmark: no Table 2 row
            assert name in PAPER_TABLE2


def test_paper_sizes_match_table2():
    assert SIZES["paper"]["harris"] == (6400, 6400)
    assert SIZES["paper"]["camera"] == (2528, 1920)
    assert SIZES["paper"]["unsharp"] == (2048, 2048)


def test_make_instance_tiny():
    instance = make_instance("harris", "tiny")
    assert instance.name == "harris"
    rows, cols = SIZES["tiny"]["harris"]
    assert list(instance.values.values()) == [rows, cols]
    img = next(iter(instance.inputs.values()))
    assert img.shape == (rows + 2, cols + 2)


def test_variant_options():
    options, vec = variant_options("harris", "base")
    assert not options.group and not options.tile and not vec
    options, vec = variant_options("harris", "opt+vec")
    assert options.group and options.tile and vec
    assert options.tile_sizes == DEFAULT_TILES["harris"]


def test_time_ms_discards_first_run():
    calls = []

    def fn():
        calls.append(1)

    t = time_ms(fn, runs=4)
    assert len(calls) == 4
    assert t >= 0


def test_time_stats_protocol():
    calls = []

    def fn():
        calls.append(1)

    stats = time_stats(fn, runs=5)
    assert len(calls) == 5
    assert stats.runs == 4  # warm-up discarded
    assert 0 <= stats.min_ms <= stats.mean_ms
    assert stats.std_ms >= 0
    d = stats.as_dict()
    assert set(d) == {"min_ms", "mean_ms", "std_ms", "runs"}
    assert "min" in stats.render() and "mean" in stats.render()


def test_timing_stats_from_times():
    stats = TimingStats.from_times([2.0, 4.0, 6.0])
    assert stats.min_ms == 2.0
    assert stats.mean_ms == 4.0
    assert stats.runs == 3
    assert stats.std_ms == pytest.approx(np.std([2.0, 4.0, 6.0]))


def test_time_ms_is_mean_of_kept_runs():
    # compat shim: time_ms must agree with time_stats' mean
    import itertools
    ticks = itertools.count()

    def fn():
        next(ticks)

    assert time_ms(fn, runs=3) >= 0


def test_format_table_alignment():
    text = format_table(["a", "bbb"], [[1, 2.5], [None, "x"]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert all(len(l) == len(lines[0]) for l in lines)
    assert "2.50" in text and "-" in text


def test_figure5_module():
    out = io.StringIO()
    stats = figure5.run_figure5(size=512, tile=32, out=out)
    text = out.getvalue()
    assert "overlapped" in text and "parallelogram" in text
    over, split, para = stats
    assert over.parallel and not para.parallel
    assert over.redundancy > 0 and split.redundancy == 0


def test_figure6_module():
    out = io.StringIO()
    tight, naive = figure6.run_figure6(out=out)
    text = out.getvalue()
    assert "tight" in text and "naive" in text
    assert "over-approximation" in text


def test_figure8_module():
    out = io.StringIO()
    plan = figure8.run_figure8(levels=3, size=256, tiles=(8, 32, 32),
                               out=out)
    text = out.getvalue()
    assert "groups" in text
    assert len(plan.group_plans) < len(plan.ir.stages)


def test_spec_lines_in_paper_ballpark():
    """Table 2's LoC column: our DSL specs are the same order of
    magnitude as the paper's (16-107 lines)."""
    from repro.bench.harness import spec_lines
    for name in APP_BUILDERS:
        lines = spec_lines(name)
        assert 10 < lines < 200, (name, lines)


def test_paper_table2_reference_values():
    """The paper's own numbers, transcribed for the comparison columns."""
    assert PAPER_TABLE2["harris"]["t16_ms"] == 18.69
    assert PAPER_TABLE2["local_laplacian"]["stages"] == 99
    assert PAPER_TABLE2["camera"]["speedup_htuned"] == 1.04


def test_codegen_bench_records_thread_speedup(tmp_path):
    from repro.bench import codegen_bench
    from repro.codegen.build import compiler_available

    if not compiler_available():
        pytest.skip("no C compiler found")
    out = io.StringIO()
    doc = codegen_bench.run_bench(["iunsharp"], "tiny", runs=2,
                                  n_threads=2,
                                  json_path=tmp_path / "cg.json",
                                  throughput=False, out=out)
    [row] = doc["apps"]
    assert row["thread_speedup"] > 0.0
    assert row["median_1thread_ms"] > 0.0
    assert "1 vs 2 threads" in out.getvalue()
