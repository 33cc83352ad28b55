"""Tests of the benchmark's own arithmetic: counts, self times, seeding."""

import json
import math
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import counts  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402
from workloads import KERNEL_PROBLEMS, Workload, kernel_commands  # noqa: E402

from entwined.density import _cell_ceil, _cell_floor  # noqa: E402
from entwined.lattice import LatticeSpec  # noqa: E402
from entwined.paths import (Frame, build_cable, build_cord, build_fiber, concatenate,  # noqa: E402
                            right_envelope, with_frame)


def _rule_incidences(envelope, cell):
    """The counting rule of entwined.density applied segment by segment."""
    _, t1, _, t2 = envelope.physical_endpoints()
    return sum(_cell_ceil(max(a, b), cell) - _cell_floor(min(a, b), cell)
               for a, b in zip(t1.tolist(), t2.tolist()))


def test_one_fiber_by_hand():
    fiber = counts.fiber(10)
    assert counts.segments(fiber) == 8
    assert counts.counted(fiber) == 4
    assert counts.distinct_counted(fiber) == 4
    # each counted segment spans a quarter period: n/2 = 5 cells of eps = 0.2
    assert counts.incidences(fiber, 0.2) == 20


def test_cord_by_hand():
    cord = counts.cord(4, repeats=1)
    # four 8-segment fibers and three two-leg connectors between them
    assert counts.segments(cord) == 4 * 8 + 3 * 2
    assert counts.counted(cord) == 16
    assert counts.incidences(cord, 0.5) == 16 * 2


@pytest.mark.parametrize("n, M, repeats, origin", [
    (10, 20, 3, (0.0, 0.0)), (4, 3, 1, (0.5, 1.0)), (8, 8, 2, (0.0, 0.0)), (6, 1, 2, (0.0, 0.0))])
def test_cable_counts_match_built_path(n, M, repeats, origin):
    spec = LatticeSpec(n=n)
    path = build_cable(origin, spec, M=M, repeats=repeats)
    envelope = right_envelope(path)
    construct = counts.cable(n, M, repeats, (round(origin[0] * n), round(origin[1] * n)))
    assert counts.segments(construct) == len(path)
    assert counts.counted(construct) == len(envelope)
    rows = set(zip(envelope.x1.tolist(), envelope.t1.tolist(),
                   envelope.x2.tolist(), envelope.t2.tolist()))
    assert counts.distinct_counted(construct) == len(rows)
    assert counts.incidences(construct, spec.eps) == _rule_incidences(envelope, spec.eps)


def test_fiber_and_cord_counts_match_built_paths():
    spec = LatticeSpec(n=10)
    assert counts.segments(counts.fiber(10)) == len(build_fiber((0.0, 0.0), spec))
    assert counts.segments(counts.cord(10, 3)) == len(build_cord((0.0, 0.0), spec, repeats=3))


def test_reframed_and_joined_counts_match_built_path():
    spec = LatticeSpec(n=8)
    frames = [Frame(t_scale=7.3, x_scale=spec.mass_scale, drift=d, t0=0.31) for d in (0.25, -0.25)]
    path = concatenate([with_frame(build_cable((0.0, 0.0), spec, M=8, repeats=3), f)
                        for f in frames])
    construct = counts.joined([counts.reframed(counts.cable(8, 8, 3), f) for f in frames])
    envelope = right_envelope(path)
    assert counts.segments(construct) == len(path)
    assert counts.counted(construct) == len(envelope)
    assert counts.incidences(construct, 0.17) == _rule_incidences(envelope, 0.17)


def test_self_times_on_synthetic_tree():
    spans = [
        Span("cli.main", 0.0, 10.0, -1, 1),
        Span("paths.build_cable", 1.0, 4.0, 0, 1),
        Span("paths.cords_per_shift", 2.0, 3.0, 1, 1),
        Span("density.accumulate", 5.0, 9.0, 0, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    buckets = tracing.bucket_self_times(spans)
    assert buckets["cli.overhead_s"] == pytest.approx(3.0)
    assert buckets["paths.build_s"] == pytest.approx(3.0)
    assert buckets["density.accumulate_s"] == pytest.approx(4.0)
    # single-threaded self times add up to the root's duration
    assert sum(buckets.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("propagator.write_region", 0.0, 10.0, -1, 1),
        Span("propagator.write_ray", 1.0, 6.0, 0, 2),
        Span("propagator.write_ray", 4.0, 8.0, 0, 3),
        Span("density.accumulate", 9.0, 12.0, 0, 1),  # clipped to the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_ray_times_group_spans_per_thread():
    spans = [
        Span("propagator.write_region", 0.0, 10.0, -1, 1),
        Span("propagator.write_ray", 1.0, 2.0, 0, 2),
        Span("density.accumulate", 2.0, 3.5, 0, 2),
        Span("propagator.write_ray", 4.0, 5.0, 0, 2),
        Span("density.best_lag", 5.0, 6.0, 0, 2),
        Span("propagator.write_ray", 1.5, 2.0, 0, 3),
    ]
    assert sorted(tracing.ray_times(spans)) == pytest.approx([(2, 2.0), (2, 2.5), (3, 0.5)])


def test_inclusive_time_skips_nested_spans():
    spans = [Span("density.accumulate", 0.0, 2.0, -1, 1),
             Span("density.accumulate", 0.5, 1.0, 0, 1),
             Span("density.accumulate", 3.0, 4.0, -1, 1)]
    assert tracing.inclusive_time(spans, "density.accumulate") == pytest.approx(3.0)


def test_kernel_sweep_is_seeded_with_fixed_work():
    first, again, other = kernel_commands(7), kernel_commands(7), kernel_commands(8)
    assert first == again and first != other
    assert len(first) == KERNEL_PROBLEMS

    def sequences(commands):
        total = 0
        for argv in commands:
            n_steps = int(argv[argv.index("--n-steps") + 1])
            total += 2 ** (n_steps if "--incoming-corner" in argv else n_steps - 1)
        return total

    assert sequences(first) == sequences(other)
    for argv in first:
        n_steps = int(argv[argv.index("--n-steps") + 1])
        displacement = int(argv[argv.index("--displacement") + 1])
        assert abs(displacement) <= n_steps and (n_steps - displacement) % 2 == 0


SMALL = Workload(
    "small",
    lambda seed: [["carrier", "--n", "10", "--cords", "20"],
                  ["propagate", "--n", "10", "--cords", "10", "--v-count", "3", "--n-periods", "3"],
                  ["ring", "--n", "8", "--cords", "8", "--cycles", "4"],
                  ["chessboard", "--n-steps", "10", "--incoming-corner", "--phase-t-max", "2"]],
    lambda outs: 0.0,
    lambda outs, calibration: [],
    "1")


def _traced_rounds(tmp_path, rounds):
    bench = run.Bench(run.ROOT, tmp_path, time.monotonic() + 120.0)
    commands = SMALL.commands(0)
    reference = {}
    return [bench.round(SMALL, commands, [(1, False), (1, True), (2, True)], reference)
            for _ in range(rounds)]


def test_traced_run_counts_repeat_and_cover_every_per_layer_metric(tmp_path):
    rounds = _traced_rounds(tmp_path, 2)
    assert all(s.ok for r in rounds for s in r), [s.problems for r in rounds for s in r]
    first, second = (r[1].report["counts"] for r in rounds)
    assert first == second
    # the carrier (n=10, M=20) alone has 4 * n_fibers counted segments
    cable = counts.cable(10, 20, 3)
    assert first["paths.envelope_segments"] > counts.counted(cable)
    assert first["chessboard.sequences"] == 2 ** 10
    assert 0 < first["chessboard.match_ratio"] < 1

    values, _, problems = run.per_layer(rounds)
    assert not problems
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == set(values)
    assert all(math.isfinite(v) for v in values.values())


def test_benchmark_json_names_every_end_to_end_metric(tmp_path):
    bench = run.Bench(run.ROOT, tmp_path, time.monotonic() + 60.0)
    samples = bench.round(SMALL, SMALL.commands(0)[:1], [(1, False), (2, False)], {})
    assert all(s.ok for s in samples), [s.problems for s in samples]
    values, sample_counts = run.end_to_end(samples)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["end_to_end"]}
    assert names <= set(values)
    assert all(values[name] > 0 for name in names)
    assert sample_counts["failed_frac"] == 2
