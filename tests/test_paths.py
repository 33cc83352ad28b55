import re
from collections import Counter

import numpy as np
import pytest

from entwined import propagator
from entwined.density import accumulate, field_for_segments
from entwined.lattice import PERIOD, LatticeSpec
from entwined.paths import (LEFT_MOVER, RIGHT_MOVER, EntwinedPath, Frame, SegmentArray,
                            _connector_columns, build_cable, build_cord, build_fiber,
                            concatenate, cords_per_shift, right_envelope, with_frame)
from entwined.ring import RingSpec, _pair_path
from helpers import continuity_by_expansion

COLUMNS = ("x1", "t1", "x2", "t2", "envelope", "frame_idx")


@pytest.fixture
def spec():
    return LatticeSpec(n=10)


def test_lattice_spec_invariants():
    spec = LatticeSpec(n=10)
    assert spec.eps * 2 * spec.n == PERIOD == 4.0
    assert spec.cells_per_period == 20
    with pytest.raises(ValueError):
        LatticeSpec(n=0)
    with pytest.raises(ValueError):
        LatticeSpec(n=7)
    with pytest.raises(ValueError):
        LatticeSpec(n=10, mass_scale=0.0)


def test_lattice_for_mass_pins_compton_period():
    spec = LatticeSpec.for_mass(10, mass=2.0)
    assert spec.mass == pytest.approx(2.0)
    assert 4.0 * spec.mass_scale == pytest.approx(2.0 * np.pi / 2.0)


def test_fiber_geometry_and_closure(spec):
    fiber = build_fiber((0.0, 0.0), spec)
    fiber.validate_continuity()
    assert len(fiber) == 8
    x1, t1, x2, t2 = fiber.segs.physical_endpoints()
    assert (x1[0], t1[0]) == (0.0, 0.0)
    assert (x2[7], t2[7]) == (0.0, 0.0)  # the loop closes on its origin
    # forward strand then backward strand
    time_dir = fiber.segs.expand().time_dir
    assert time_dir.tolist() == [1, 1, 1, 1, -1, -1, -1, -1]
    # net signed time advance is zero
    assert (time_dir * np.abs(t2 - t1)).sum() == 0.0


def test_fiber_species_from_slope(spec):
    fiber = build_fiber((0.0, 0.0), spec)
    species = fiber.segs.expand().species.tolist()
    assert species == [RIGHT_MOVER, LEFT_MOVER, LEFT_MOVER, RIGHT_MOVER,
                       LEFT_MOVER, RIGHT_MOVER, RIGHT_MOVER, LEFT_MOVER]


def test_fiber_envelope_is_right_half(spec):
    fiber = build_fiber((0.0, 0.0), spec)
    env = right_envelope(fiber)
    assert len(env) == 4
    x1, _, x2, _ = env.physical_endpoints()
    assert (np.minimum(x1, x2) >= 0.0).all()
    assert (np.maximum(x1, x2) <= 1.0).all()


def test_sheared_fiber_envelope_same_count(spec):
    fiber = build_fiber((0.0, 0.0), spec, drift=0.2)
    env = right_envelope(fiber)
    assert len(env) == 4
    # envelope respects the sheared half x >= v*t
    x1, t1, x2, t2 = env.physical_endpoints()
    for x, t in ((x1, t1), (x2, t2)):
        assert (x >= 0.2 * t - 1e-12).all()


def test_fiber_shear_moves_events(spec):
    fiber = build_fiber((0.0, 0.0), spec, drift=0.5)
    _, _, x2, t2 = fiber.segs.physical_endpoints()
    assert (x2[0], t2[0]) == (1.5, 1.0)  # (1,1) sheared to (1 + v*t, t)


def test_superluminal_drift_rejected(spec):
    with pytest.raises(ValueError, match="superluminal drift"):
        build_fiber((0.0, 0.0), spec, drift=1.0)


def test_origin_must_sit_on_half_cell_grid(spec):
    build_fiber((0.3, 0.1), spec)  # multiples of eps/2 = 0.1
    with pytest.raises(ValueError, match="eps/2 grid"):
        build_fiber((0.05, 0.0), spec)


def test_continuity_is_exact_on_integer_grid(spec):
    for path in (build_fiber((0.0, 0.0), spec), build_cord((0.0, 0.0), spec, repeats=2),
                 build_cable((0.0, 0.0), spec, M=5, repeats=2)):
        path.validate_continuity()
        # all vertex coordinates are integer multiples of eps/2 by storage
        assert path.segs.x1.dtype.kind == path.segs.t1.dtype.kind == "i"


def test_cord_offsets(spec):
    cord = build_cord((0.0, 0.0), spec)
    starts = sorted({int(t) for t in cord.segs.t1[cord.segs.envelope == 1]})
    # fibers start at 0, 1, 2+eps, 3+eps (half-cell units: 0, n, 2n+2, 3n+2)
    n = spec.n
    assert starts[0] == 0
    fiber_starts = {0, n, 2 * n + 2, 3 * n + 2}
    got_starts = {int(cord.segs.t1[i]) for i in range(len(cord.segs))
                  if cord.segs.envelope[i] == 1 and cord.segs.x1[i] == 0 and cord.segs.t1[i] == cord.segs.t2[i] - n}
    assert fiber_starts <= got_starts


def test_cable_cords_per_shift_fig3():
    counts = cords_per_shift(10, 20)
    assert counts[0] == 0        # sin(0) = 0
    assert counts[5] == 20       # sin(pi/2) = 1
    assert counts == [0, 6, 11, 16, 19, 20, 19, 16, 11, 6]


def test_cable_envelope_count_is_four_per_fiber(spec):
    cable = build_cable((0.0, 0.0), spec, M=5, repeats=1)
    env = right_envelope(cable)
    assert len(env) == 4 * cable.n_fibers


def test_cable_metadata(spec):
    cable = build_cable((0.0, 0.0), spec, M=20, repeats=2)
    assert cable.extras["cords_per_shift"] == cords_per_shift(10, 20)
    assert cable.extras["total_cords"] == sum(cords_per_shift(10, 20)) * 2
    cable.validate_continuity()


def test_concatenate_single_path_is_identity(spec):
    fiber = build_fiber((0.0, 0.0), spec)
    assert concatenate([fiber]) is fiber


def test_concatenate_is_density_additive(spec):
    a = build_fiber((0.0, 0.0), spec)
    b = build_fiber((0.0, 1.0), spec)
    joined = concatenate([a, b])
    joined.validate_continuity()

    empty = field_for_segments(joined.segs, pad=2)
    field_joined = accumulate(empty.copy(), right_envelope(joined))
    # counted apart, into empty fields of the joined path's cells, then summed
    summed = sum(accumulate(empty.copy(), right_envelope(p)).counts.astype(np.int64) for p in (a, b))
    assert np.array_equal(field_joined.counts, summed)


def test_connector_cells_have_zero_density(spec):
    # two loops four periods apart: the connector sweep between them must
    # leave every cell in the gap untouched in both channels
    a = build_fiber((0.0, 0.0), spec)
    b = build_fiber((0.0, 16.0), spec)
    joined = concatenate([a, b])
    joined.validate_continuity()
    field = field_for_segments(joined.segs, pad=2)
    accumulate(field, right_envelope(joined))
    # gap rows strictly between the constructs (t in (4, 16))
    rows = slice(int(4.5 / spec.eps) - field.t0_cell, int(15.5 / spec.eps) - field.t0_cell)
    assert not field.adolescent[rows].any()
    assert not field.senescent[rows].any()


def test_concatenate_requires_matching_lattice(spec):
    other = LatticeSpec(n=20)
    with pytest.raises(ValueError, match="different lattices"):
        concatenate([build_fiber((0.0, 0.0), spec), build_fiber((0.0, 0.0), other)])


def test_concatenate_empty_rejected():
    with pytest.raises(ValueError):
        concatenate([])


def test_cross_frame_concatenation_bridges_gap(spec):
    a = with_frame(build_fiber((0.0, 0.0), spec), Frame(drift=0.25))
    b = with_frame(build_fiber((0.0, 1.0), spec), Frame(drift=-0.25))
    joined = concatenate([a, b])
    joined.validate_continuity()
    assert len(joined) == len(a.segs) + len(b.segs) + 1  # one uncounted bridge
    env = right_envelope(joined)
    assert len(env) == 8


@pytest.mark.parametrize("n", [8, 20, 50])
def test_ring_pair_passes_its_continuity_check(n):
    # the bridge lands on the second cable's start only up to rounding
    path = _pair_path(RingSpec(circumference=8.0 * np.pi), LatticeSpec(n=n), M=30)
    assert len(path.segs.frames) == 3
    path.validate_continuity()


def _seeded_frame_pairs(count):
    """``count`` seeded pairs of random frames."""
    rng = np.random.default_rng(17)
    for _ in range(count):
        yield [Frame(t_scale=rng.uniform(0.1, 3.0), x_scale=rng.uniform(0.1, 3.0),
                     drift=rng.uniform(-0.9, 0.9), x0=rng.uniform(-50.0, 50.0),
                     t0=rng.uniform(-50.0, 50.0)) for _ in range(2)]


def test_seeded_cross_frame_joins_pass_their_continuity_check(spec):
    for frames in _seeded_frame_pairs(500):
        concatenate([with_frame(build_fiber((0.0, 0.0), spec), f) for f in frames]
                    ).validate_continuity()


def test_half_cell_gap_across_frames_still_raises(spec):
    a = build_fiber((0.0, 0.0), spec).segs
    b = build_fiber((spec.half, 0.0), spec).segs  # starts half a cell right of a's end
    frames = (Frame(drift=0.25), Frame(drift=-0.25))  # both map t = 0 to itself
    b = b.reframed(b.frame_idx + 1, frames)
    path = EntwinedPath(SegmentArray.stack([a, b], frames), "composite", (0.0, 0.0))
    with pytest.raises(AssertionError,
                       match="at a frame change between stored rows 7 and 8$"):
        path.validate_continuity()


def test_row_endpoints_apply_each_rows_own_frame():
    # the ring pair's two cable frames and, between them, its bridge's frame
    segs = _pair_path(RingSpec(circumference=8.0 * np.pi), LatticeSpec(n=8), M=8).segs
    bridge = segs.frame_idx == 1
    assert len(segs.frames) == 3 and bridge.sum() == 1 and not segs.envelope[bridge].any()
    ends = segs.row_endpoints()
    half = segs.lattice.half
    for i, frame in enumerate(segs.frames):
        rows = segs.frame_idx == i
        x1, t1 = frame.apply(segs.x1[rows] * half, segs.t1[rows] * half)
        x2, t2 = frame.apply(segs.x2[rows] * half, segs.t2[rows] * half)
        for got, want in zip(ends, (x1, t1, x2, t2)):
            assert np.array_equal(got[rows], want)


def _fiber_rows(spec, **column):
    """The fiber's stored rows through the constructor, with ``column`` replaced."""
    segs = build_fiber((0.0, 0.0), spec).segs
    args = {name: getattr(segs, name) for name in COLUMNS + ("frames", "weight")}
    return SegmentArray(spec, **{**args, **column})


def _fiber_from_columns(spec, envelope=None, frame_idx=0, frames=(Frame(),), weight=None):
    """The fiber's vertex columns through ``from_columns``."""
    segs = build_fiber((0.0, 0.0), spec).segs
    cols = np.column_stack([segs.x1, segs.t1, segs.x2, segs.t2])
    return SegmentArray.from_columns(spec, cols, segs.envelope if envelope is None else envelope,
                                     frame_idx, frames, weight=weight)


@pytest.mark.parametrize("end", [(0, 42), (-10, 30)], ids=["not-lightlike", "zero-length"])
def test_rows_that_are_not_one_lightlike_step_are_refused(spec, end):
    # the fiber's row 3 runs from (-10, 30) to (0, 40); it is made to end at ``end``
    segs = build_fiber((0.0, 0.0), spec).segs
    x2, t2 = segs.x2.copy(), segs.t2.copy()
    x2[3], t2[3] = end
    message = (re.escape("a row (x1, t1, x2, t2) must be one lightlike step, |x2 - x1| == "
                         "|t2 - t1| != 0 half cells; stored row 3 has ")
               + r"\[ *" + " +".join(str(v) for v in (-10, 30, *end)) + r"\]$")
    with pytest.raises(ValueError, match=message):
        _fiber_rows(spec, x2=x2, t2=t2)
    with pytest.raises(ValueError, match=message):
        SegmentArray.from_columns(spec, np.column_stack([segs.x1, segs.t1, x2, t2]), 1, 0,
                                  (Frame(),))


def test_a_step_across_the_int32_range_keeps_its_direction(spec):
    # x2 - x1 and t2 - t1 of +-4e9 half cells would wrap in int32
    lo, hi = -2 * 10 ** 9, 2 * 10 ** 9
    segs = SegmentArray.from_columns(spec, [(lo, lo, hi, hi), (hi, hi, lo, lo), (lo, hi, hi, lo)],
                                     1, 0, (Frame(),))
    assert segs.time_dir.tolist() == [1, -1, -1]
    assert segs.species.tolist() == [RIGHT_MOVER, RIGHT_MOVER, LEFT_MOVER]


def _assert_signs_of_the_steps(segs):
    dx = segs.x2.astype(np.int64) - segs.x1
    dt = segs.t2.astype(np.int64) - segs.t1
    assert np.array_equal(segs.time_dir, np.sign(dt))
    assert np.array_equal(segs.species, np.sign(dx) * np.sign(dt))
    # no frame reverses time, so a row's direction is also its physical one
    assert all(frame.t_scale >= 0 for frame in segs.frames)
    _, t1, _, t2 = segs.row_endpoints()
    forward = segs.time_dir > 0
    assert (t2[forward] >= t1[forward]).all() and (t2[~forward] <= t1[~forward]).all()


@pytest.mark.parametrize("n", [2, 10, 20, 50])
def test_direction_and_species_are_the_signs_of_each_step(n):
    spec = LatticeSpec(n=n)
    for path in (build_fiber((0.5, 1.0), spec), build_cord((0.0, 0.0), spec, repeats=2),
                 build_cable((0.0, 0.0), spec, M=7, repeats=2),
                 _pair_path(RingSpec(circumference=8.0 * np.pi), spec, M=30)):
        _assert_signs_of_the_steps(path.segs)


def test_the_fans_framed_rows_take_their_signs_from_their_steps():
    lattice = LatticeSpec.for_mass(10, mass=1.0)
    _, plan = propagator.plan_region(
        propagator.region_for_fan(lattice, (-0.2, 0.0, 0.3), n_periods=3.0), 5)
    counted = [segments for segments, *_ in plan.passes]
    # one pass per ray, each under its own frame
    assert len(counted) == 3
    assert len({frame for segments in counted for frame in segments.frames}) == 3
    for segments in counted:
        _assert_signs_of_the_steps(segments)


@pytest.mark.parametrize("value", [-1, 2])
def test_envelope_values_other_than_0_or_1_are_refused(spec, value):
    envelope = build_fiber((0.0, 0.0), spec).segs.envelope.astype(np.int64)
    envelope[3] = value
    message = re.escape(f"envelope must be 0 (excluded) or 1 (counted); "
                        f"stored row 3 has {value}") + "$"
    with pytest.raises(ValueError, match=message):
        _fiber_rows(spec, envelope=envelope)
    with pytest.raises(ValueError, match=message):
        _fiber_from_columns(spec, envelope=envelope)
    with pytest.raises(ValueError, match="stored row 0 has"):
        _fiber_from_columns(spec, envelope=value)  # a scalar fills the column
    assert _fiber_rows(spec, envelope=envelope.clip(0, 1)).envelope.dtype == bool


def test_weight_zero_is_refused(spec):
    weight = np.ones(8, dtype=np.int64)
    weight[5] = 0
    with pytest.raises(ValueError, match="weight must be at least 1; stored row 5 has 0$"):
        _fiber_rows(spec, weight=weight)
    with pytest.raises(ValueError, match="weight must be at least 1; stored row 5 has 0$"):
        _fiber_from_columns(spec, weight=weight)


@pytest.mark.parametrize("index", [-1, 2])
def test_frame_index_outside_the_frame_table_is_refused(spec, index):
    # -1 would silently pick the last frame; 2 would fail later in a gather
    frames = (Frame(), Frame(t0=100.0))
    frame_idx = np.zeros(8, dtype=np.int32)
    frame_idx[4] = index
    message = re.escape(f"frame_idx must be in [0, 2), an index into the frame table; "
                        f"stored row 4 has {index}") + "$"
    with pytest.raises(ValueError, match=message):
        _fiber_rows(spec, frame_idx=frame_idx, frames=frames)
    with pytest.raises(ValueError, match=message):
        _fiber_from_columns(spec, frame_idx=frame_idx, frames=frames)
    with pytest.raises(ValueError, match="stored row 0 has"):
        _fiber_from_columns(spec, frame_idx=index, frames=frames)


def test_with_frame_requires_positive_time_scale(spec):
    fiber = build_fiber((0.0, 0.0), spec)
    with pytest.raises(ValueError):
        with_frame(fiber, Frame(t_scale=-1.0))


# --- multiplicity-encoded cables ---------------------------------------------


def materialised_cable(origin, spec, M, repeats):
    """A cable with every cord copy stored: ``build_cord`` trains chained in
    path order by lightlike connectors, one row per segment."""
    cols, env = [], []
    prev_end = None
    total_cords = 0
    for k, count in enumerate(cords_per_shift(spec.n, M)):
        if not count:
            continue
        cord = build_cord((origin[0], origin[1] + k * spec.eps), spec, repeats=repeats).segs
        train = np.column_stack([cord.x1, cord.t1, cord.x2, cord.t2]).astype(np.int64)
        start = (int(train[0, 0]), int(train[0, 1]))
        end = (int(train[-1, 2]), int(train[-1, 3]))
        for _ in range(count):
            if prev_end is not None:
                link = _connector_columns(prev_end, start)
                cols.append(link)
                env.append(np.zeros(len(link), dtype=np.int8))
            cols.append(train)
            env.append(cord.envelope)
            prev_end = end
        total_cords += count * repeats
    segs = SegmentArray.from_columns(spec, np.concatenate(cols), np.concatenate(env), 0, (Frame(),))
    return EntwinedPath(segs, "cable", origin, n_fibers=4 * total_cords)


def assert_same_row_counts(weighted: SegmentArray, unit: SegmentArray):
    """The same rows with the same summed weights, in any order: an
    envelope is a set of weighted rows, not a path."""
    def counts(segs):
        total = Counter()
        for row, w in zip(zip(*(getattr(segs, name).tolist() for name in COLUMNS)),
                          segs.weight.tolist()):
            total[row] += w
        return total

    assert counts(weighted) == counts(unit)
    assert weighted.frames == unit.frames


def assert_same_rows(weighted: SegmentArray, unit: SegmentArray):
    expanded = weighted.expand()
    assert len(weighted) == len(unit) == expanded.rows == unit.rows
    assert (expanded.weight == 1).all()
    for name in COLUMNS:
        assert np.array_equal(getattr(expanded, name), getattr(unit, name)), name
    assert expanded.frames == unit.frames


CABLES = [(10, 5, 2, (0.0, 0.0)), (10, 20, 3, (0.3, 0.1)), (4, 3, 1, (0.5, 1.0)),
          (6, 1, 2, (0.0, 0.0)), (8, 8, 2, (-0.25, 0.5))]


@pytest.mark.parametrize("n, M, repeats, origin", CABLES)
def test_expanded_cable_matches_materialised_cable(n, M, repeats, origin):
    spec = LatticeSpec(n=n)
    cable = build_cable(origin, spec, M=M, repeats=repeats)
    ref = materialised_cable(origin, spec, M, repeats)
    assert_same_rows(cable.segs, ref.segs)
    assert len(cable) == len(ref)
    assert cable.n_fibers == ref.n_fibers
    ref.validate_continuity()
    cable.validate_continuity()
    assert_same_row_counts(right_envelope(cable), right_envelope(ref))


def test_cable_stores_each_distinct_train_once(spec):
    cable = build_cable((0.0, 0.0), spec, M=20, repeats=2)
    cord_rows = build_cord((0.0, 0.0), spec, repeats=2).segs.rows
    shifts = sum(1 for c in cords_per_shift(spec.n, 20) if c)
    # one train per shift plus at most a two-leg back connector and a
    # two-leg shift connector
    assert cable.segs.rows <= shifts * (cord_rows + 4)
    assert len(cable) > 10 * cable.segs.rows
    assert right_envelope(cable).rows == 4 * 4 * 2 * shifts


def test_logical_views_follow_the_expanded_path(spec):
    cable = build_cable((0.0, 0.1), spec, M=5, repeats=2)
    ref = materialised_cable((0.0, 0.1), spec, 5, 2)
    rows, ref_rows = cable.segs.expand(), ref.segs.expand()
    for name in COLUMNS + ("weight",):
        assert np.array_equal(getattr(rows, name), getattr(ref_rows, name)), name
    assert rows.frames == ref_rows.frames
    ends, ref_ends = cable.segs.physical_endpoints(), ref.segs.physical_endpoints()
    assert all(np.array_equal(a, b) for a, b in zip(ends, ref_ends))
    for i in (0, 1, 57, len(ref) // 2, len(ref) - 1, -1):
        assert [e[i] for e in ends] == [e[i] for e in ref_ends]


def test_validate_continuity_reports_stored_rows(spec):
    cable = build_cable((0.0, 0.0), spec, M=5, repeats=1)
    # break the second copy's back connector at shift 2 (count 2): its first
    # leg runs one cell further, still one lightlike step
    segs = cable.segs
    start, body, link, copies = segs.runs[1]
    assert (link, copies) == (2, 2)
    leg = start + body
    segs.x2[leg] += 2 * np.sign(segs.x2[leg] - segs.x1[leg])
    segs.t2[leg] += 2 * np.sign(segs.t2[leg] - segs.t1[leg])
    # the leg no longer meets the link's second leg, stored on the next row
    with pytest.raises(AssertionError, match=f"between stored rows {leg} and {leg + 1}$"):
        cable.validate_continuity()


@pytest.mark.parametrize("frames", [
    (Frame(), Frame()),
    (Frame(t_scale=7.3, x_scale=0.5, drift=0.25, t0=0.31),
     Frame(t_scale=7.3, x_scale=0.5, drift=-0.25, t0=0.31))])
def test_concatenated_cables_expand_to_materialised_concatenation(frames):
    spec = LatticeSpec(n=8)
    origins = [(0.0, 0.0), (0.5, 3.0)]
    ours = concatenate([with_frame(build_cable(o, spec, M=8, repeats=2), f)
                        for o, f in zip(origins, frames)])
    ref = concatenate([with_frame(materialised_cable(o, spec, 8, 2), f)
                       for o, f in zip(origins, frames)])
    assert_same_rows(ours.segs, ref.segs)
    ours.validate_continuity()
    assert_same_row_counts(right_envelope(ours), right_envelope(ref))


def test_out_of_range_coordinates_fail_loudly():
    # t = 250000 at n = 10000 is 2.5e9 half-cell units, past int32
    with pytest.raises(ValueError, match="int32"):
        build_fiber((0, 250000), LatticeSpec(n=10000))
    build_fiber((0, 100000), LatticeSpec(n=10000))  # 1e9 units still fit


def test_negative_weights_rejected(spec):
    segs = build_fiber((0.0, 0.0), spec).segs
    with pytest.raises(ValueError, match="weight must be at least 1"):
        SegmentArray(spec, segs.x1, segs.t1, segs.x2, segs.t2, segs.envelope, segs.frame_idx,
                     segs.frames, weight=-segs.weight)


# --- continuity on the run layout --------------------------------------------


def _ring_pair(n):
    return [_pair_path(RingSpec(circumference=8.0 * np.pi), LatticeSpec(n=n), M=30)]


_SHEARED_PAIR = (Frame(t_scale=7.3, x_scale=0.5, drift=0.25, t0=0.31),
                 Frame(t_scale=7.3, x_scale=0.5, drift=-0.25, t0=0.31))


def _joined_cables(frames):
    origins = ((0.0, 0.0), (0.5, 3.0))
    return concatenate([with_frame(build_cable(o, LatticeSpec(n=8), M=8, repeats=2), f)
                        for o, f in zip(origins, frames)])


# every kind of path the suite builds, by a function of the n=10 lattice
_BUILT_PATHS = {
    "fibers": lambda spec: [build_fiber((0.0, 0.0), spec),
                            build_fiber((0.5, 1.0), spec, drift=0.2)],
    "cords": lambda spec: [build_cord((0.0, 0.0), spec, repeats=r) for r in (1, 2, 3)],
    "cables": lambda spec: [build_cable(o, LatticeSpec(n=n), M=M, repeats=r)
                            for n, M, r, o in CABLES],
    "materialised": lambda spec: [materialised_cable((0.0, 0.1), spec, 5, 2)],
    "ring-8": lambda spec: _ring_pair(8),
    "ring-20": lambda spec: _ring_pair(20),
    "ring-50": lambda spec: _ring_pair(50),
    "concatenated": lambda spec: [_joined_cables((Frame(), Frame())),
                                  _joined_cables(_SHEARED_PAIR)],
    "seeded-joins": lambda spec: [concatenate([with_frame(build_fiber((0.0, 0.0), spec), f)
                                               for f in frames])
                                  for frames in _seeded_frame_pairs(500)],
}


def _with(path, **columns):
    """``path`` with some of its stored columns replaced."""
    s = path.segs
    kept = {name: getattr(s, name) for name in COLUMNS + ("weight", "runs")}
    return EntwinedPath(SegmentArray(s.lattice, frames=s.frames, **{**kept, **columns}),
                        path.kind, path.origin)


def _stepped(segs, i, end):
    """The columns of end ``end`` (1 or 2) with row i's moved half a cell
    along its step, so the row stays one lightlike step."""
    x, t = getattr(segs, f"x{end}").copy(), getattr(segs, f"t{end}").copy()
    x[i] += np.sign(segs.x2[i] - segs.x1[i])
    t[i] += np.sign(segs.t2[i] - segs.t1[i])
    return {f"x{end}": x, f"t{end}": t}


def _mutants(path):
    """Copies of ``path`` with one row changed: an end moved half a cell along
    its step, a body weight changed, a row outside every run given weight 2,
    and a start after a frame change moved half a cell along its step."""
    s = path.segs
    edges = s.runs[[0, -1]].tolist() if len(s.runs) else []
    ends = {0, s.rows // 2, s.rows - 1}
    for start, body, link, _ in edges:
        ends |= {start, start + body - 1, start + body + link - 1}
    for i in sorted(ends):
        yield _with(path, **_stepped(s, i, 2))
    for start, body, _, _ in edges:
        weight = s.weight.copy()
        weight[start + body - 1] += 1
        yield _with(path, weight=weight)
    outside = np.ones(s.rows, dtype=bool)
    for start, body, link, _ in s.runs.tolist():
        outside[start:start + body + link] = False
    if outside.any():
        weight = s.weight.copy()
        weight[np.flatnonzero(outside)[outside.sum() // 2]] = 2
        yield _with(path, weight=weight)
    for i in np.flatnonzero(s.frame_idx[1:] != s.frame_idx[:-1]) + 1:
        yield _with(path, **_stepped(s, i, 1))


def _refusals(path) -> tuple[bool, bool]:
    """Whether the run-layout check and the expanding oracle refuse ``path``."""
    refused = []
    for check in (path.validate_continuity, lambda: continuity_by_expansion(path)):
        try:
            check()
        except AssertionError:
            refused.append(True)
        else:
            refused.append(False)
    return tuple(refused)


@pytest.mark.parametrize("kind", list(_BUILT_PATHS))
def test_run_layout_check_agrees_with_the_expanding_oracle(spec, kind):
    refused = 0
    for path in _BUILT_PATHS[kind](spec):
        assert _refusals(path) == (False, False)
        for mutant in _mutants(path):
            ours, oracle = _refusals(mutant)
            assert ours == oracle
            refused += ours
    assert refused  # the mutants reach both checks


@pytest.mark.parametrize("kind", list(_BUILT_PATHS))
def test_end_rows_are_the_expanded_paths_first_and_last(spec, kind):
    for path in _BUILT_PATHS[kind](spec):
        index = path.segs.expand_index()
        assert path.segs._end_rows() == (index[0], index[-1])


def test_huge_cables_are_checked_and_joined_without_expanding(monkeypatch):
    def refuse(self):
        raise AssertionError("expanded")

    monkeypatch.setattr(SegmentArray, "expand_index", refuse)
    spec = LatticeSpec(n=8)
    cables = [build_cable(o, spec, M=10 ** 16, repeats=2) for o in ((0.0, 0.0), (0.5, 3.0))]
    for frames in ((Frame(), Frame()), (Frame(t_scale=7.3, drift=0.25), Frame(drift=-0.25))):
        joined = concatenate([with_frame(c, f) for c, f in zip(cables, frames)])
        joined.validate_continuity()
        assert right_envelope(joined).rows == 2 * right_envelope(cables[0]).rows
    cables[0].validate_continuity()
