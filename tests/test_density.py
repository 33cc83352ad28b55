import json
import math
import tracemalloc

import numpy as np
import pytest

from entwined import density, propagator, ring
from entwined.density import (CHANNELS, DensityField, ReferenceDensity, Region, _format_matrix,
                              _incidences, accumulate, best_lag, compare,
                              export_field, field_for_segments, fit_sinusoid, reference_eval,
                              steady_region, whole_region)
from entwined.lattice import LatticeSpec
from entwined.paths import (RIGHT_MOVER, Frame, SegmentArray, build_cable, build_cord,
                            build_fiber, concatenate, right_envelope, with_frame)
from entwined.propagator import RaySpec, region_for_fan, write_region
from entwined.ring import RingSpec, run_ring
from test_paths import materialised_cable
from test_propagator import fresh_ray
from helpers import (best_lag_loop, cord_fiber_offsets, expand_then_mask, fit_sinusoid_oracle,
                     incidences_int, profile_oracle, savetxt_bytes)


@pytest.fixture
def spec():
    return LatticeSpec(n=10)


def x_summed(field, channel, region):
    ts, xs = region.slices(field)
    return field.channel(channel)[ts, xs].sum(axis=1)


def one_period_region(spec, field):
    return Region(0, spec.cells_per_period, field.x0_cell, field.x0_cell + field.x_cells)


# --- accumulate -----------------------------------------------------------


def test_empty_envelope_leaves_field_unchanged(spec):
    fiber = build_fiber((0.0, 0.0), spec)
    field = field_for_segments(fiber.segs)
    accumulate(field, fiber.segs.subset(np.zeros(8, dtype=bool)))
    accumulate(field, SegmentArray.empty(spec))
    assert not field.adolescent.any() and not field.senescent.any()


def test_accumulate_takes_only_segment_arrays(spec):
    # counting has one input type; paths, segment lists and empty lists all
    # raise with the hint to pass the path's right envelope
    fiber = build_fiber((0.0, 0.0), spec, drift=0.2)
    field = field_for_segments(fiber.segs, pad=2)
    for envelope in (fiber, list(right_envelope(fiber)), []):
        with pytest.raises(TypeError, match="right_envelope\\(path\\)"):
            accumulate(field, envelope)
    assert not field.adolescent.any() and not field.senescent.any()


def test_fiber_densities_match_closed_form_exactly(spec):
    fiber = build_fiber((0.0, 0.0), spec)
    field = field_for_segments(fiber.segs, pad=2)
    accumulate(field, right_envelope(fiber))
    region = one_period_region(spec, field)
    centers = field.t_centers()[region.slices(field)[0]]

    ado = x_summed(field, "adolescent", region)
    want = reference_eval(ReferenceDensity("fiber_unit"), centers).astype(np.int64)
    assert np.array_equal(ado, want)

    sen = x_summed(field, "senescent", region)
    want = reference_eval(ReferenceDensity("fiber_unit_lagged"), centers).astype(np.int64)
    assert np.array_equal(sen, want)


def test_fiber_gap_between_one_and_two(spec):
    # no right mover in the envelope between the first and second quarter
    fiber = build_fiber((0.0, 0.0), spec)
    field = field_for_segments(fiber.segs, pad=2)
    accumulate(field, right_envelope(fiber))
    n = spec.n
    gap = slice(n // 2 - field.t0_cell, n - field.t0_cell)  # cells in (1, 2]
    assert not field.adolescent[gap].any()


def test_senescent_is_adolescent_delayed_quarter_period(spec):
    # the channel profiles satisfy sen(t) = ado(t - 1) cell-exactly on every
    # time cell, construct by construct (left movers sit at mirrored x, so
    # the identity is of the per-time-cell totals)
    for path in (build_fiber((0.0, 0.0), spec), build_cord((0.0, 0.0), spec, repeats=2),
                 build_cable((0.0, 0.0), spec, M=7, repeats=2)):
        field = field_for_segments(path.segs, pad=spec.n)
        accumulate(field, right_envelope(path))
        quarter = spec.n // 2
        ado = field.adolescent.sum(axis=1)
        sen = field.senescent.sum(axis=1)
        assert np.array_equal(sen[quarter:], ado[:-quarter])
        assert not sen[:quarter].any()


def test_accumulation_is_order_independent(spec):
    cord = build_cord((0.0, 0.0), spec, repeats=2)
    env = right_envelope(cord)
    rng = np.random.default_rng(20260808)
    perm = rng.permutation(len(env))
    shuffled = env.subset(perm)
    a = field_for_segments(cord.segs, pad=2)
    b = field_for_segments(cord.segs, pad=2)
    accumulate(a, env)
    accumulate(b, shuffled)
    assert np.array_equal(a.adolescent, b.adolescent)
    assert np.array_equal(a.senescent, b.senescent)


def _identity_case():
    spec = LatticeSpec(n=10)
    cable = build_cable((0.2, 0.4), spec, M=20, repeats=3)
    return right_envelope(cable), field_for_segments(cable.segs, pad=2)


def _ray_case():
    lattice = LatticeSpec.for_mass(20, mass=1.0)
    ray = RaySpec.from_velocity(0.2, lattice.mass, (12.0, 30.0))
    path = fresh_ray(ray, lattice, M=12)
    return right_envelope(path), field_for_segments(path.segs, cell=lattice.cell_physical, pad=2)


def _ring_case():
    lattice = LatticeSpec(n=20)
    cable = build_cable((0.0, 0.0), lattice, M=30, repeats=4)
    path = concatenate([with_frame(cable, Frame(t_scale=7.3, x_scale=lattice.mass_scale,
                                                drift=v, t0=0.31)) for v in (0.3, -0.3)])
    bounds = field_for_segments(path.segs, cell=lattice.cell_physical)
    field = DensityField(lattice.cell_physical, bounds.t0_cell, 0, bounds.t_cells, 40, wrap_x=True)
    return right_envelope(path), field


CASES = {"identity": _identity_case, "ray": _ray_case, "ring": _ring_case}


def blocked(cases=CASES):
    """Every case at the default block size (id: the case name) and at 1 and 7
    incidences per block."""
    return [pytest.param(case, size, id=name if size is None else f"{name}-block{size}")
            for size in (None, 1, 7) for name, case in cases.items()]


def set_block(monkeypatch, size):
    """Expand ``size`` incidences at a time in ``accumulate`` (None: the default)."""
    if size is not None:
        monkeypatch.setattr(density, "_BLOCK", size)
    return density._BLOCK


@pytest.mark.parametrize("case", [_identity_case, _ray_case, _ring_case],
                         ids=["identity", "ray", "ring"])
def test_weighted_counting_matches_expanded_rows(case):
    env, field = case()
    unit = env.expand()
    assert env.rows < unit.rows and (unit.weight == 1).all()
    weighted_field = accumulate(field.copy(), env)
    unit_field = accumulate(field.copy(), unit)
    assert weighted_field.adolescent.any()
    assert np.array_equal(weighted_field.adolescent, unit_field.adolescent)
    assert np.array_equal(weighted_field.senescent, unit_field.senescent)


@pytest.mark.parametrize("M", [1, 5, 20])
def test_field_extent_matches_materialised_cable(M):
    # the back connector between copies sets the cable's x extent; it exists
    # only at shifts with two or more copies (M=1 has none, M=5 mixes both)
    spec = LatticeSpec(n=10)
    ours = field_for_segments(build_cable((0.0, 0.0), spec, M=M, repeats=2).segs, pad=2)
    ref = field_for_segments(materialised_cable((0.0, 0.0), spec, M, 2).segs, pad=2)
    assert (ours.t0_cell, ours.x0_cell, ours.t_cells, ours.x_cells) == \
        (ref.t0_cell, ref.x0_cell, ref.t_cells, ref.x_cells)


def test_carrier_field_extent_at_large_m():
    cable = build_cable((0.0, 0.0), LatticeSpec(n=100), M=1000, repeats=3)
    field = field_for_segments(cable.segs, pad=2)
    assert (field.t_cells, field.x_cells) == (853, 330)
    assert len(cable) == 7633438 and cable.segs.rows < 20000


def _with_far_weight_zero_row(segs: SegmentArray) -> SegmentArray:
    far = SegmentArray.from_columns(segs.lattice, np.array([[500, 500, 510, 510]]), 1, 0,
                                    segs.frames, weight=np.zeros(1, dtype=np.int64))
    return SegmentArray.stack([segs, far], segs.frames)


def test_weight_zero_rows_never_widen_or_write(spec):
    cable = build_cable((0.0, 0.0), spec, M=5, repeats=2)
    padded = _with_far_weight_zero_row(cable.segs)
    assert len(padded) == len(cable.segs)
    a = field_for_segments(cable.segs, pad=2)
    b = field_for_segments(padded, pad=2)
    assert (a.t0_cell, a.x0_cell, a.t_cells, a.x_cells) == (b.t0_cell, b.x0_cell, b.t_cells, b.x_cells)
    env = right_envelope(cable)
    accumulate(a, env)
    accumulate(b, _with_far_weight_zero_row(env))  # would fall outside the field if counted
    assert np.array_equal(a.adolescent, b.adolescent)
    assert np.array_equal(a.senescent, b.senescent)


def _weighted_fiber_envelope(spec, weight):
    env = right_envelope(build_fiber((0.0, 0.0), spec))
    return SegmentArray(spec, env.x1, env.t1, env.x2, env.t2, env.time_dir, env.species,
                        env.envelope, env.frame_idx, env.frames,
                        weight=np.full(env.rows, weight, dtype=np.int64))


def test_weighted_counts_stay_integer_exact(spec):
    # four counted rows of n/2 = 5 cells each: 20 incidences, 20 * weight < 2**53
    fiber = build_fiber((0.0, 0.0), spec)
    empty = field_for_segments(fiber.segs, pad=2)
    unit = accumulate(empty.copy(), right_envelope(fiber))
    weight = 2 ** 48 + 1
    big = accumulate(empty.copy(), _weighted_fiber_envelope(spec, weight))
    assert np.array_equal(big.adolescent, unit.adolescent * weight)
    assert np.array_equal(big.senescent, unit.senescent * weight)


def test_weighted_counts_refuse_inexact_sums(spec):
    field = field_for_segments(build_fiber((0.0, 0.0), spec).segs, pad=2)
    env = _weighted_fiber_envelope(spec, 2 ** 49)  # 20 * 2**49 > 2**53
    with pytest.raises(OverflowError, match="2\\*\\*53"):
        accumulate(field, env)
    assert not field.adolescent.any()


def test_inexact_sums_are_refused_only_past_the_limit_across_blocks(spec, monkeypatch):
    # four rows of five incidences, each row a block of its own: the summed
    # |weight| reaches 2**53 only in the last block
    set_block(monkeypatch, 3)
    env = right_envelope(build_fiber((0.0, 0.0), spec))
    _, counts, _ = density._rows(env, spec.eps)
    assert counts.tolist() == [5] * 4 and len(list(density._blocks(counts))) == 4
    least = -(-2 ** 53 // 20)  # the least weight whose 20 incidences sum to 2**53
    unit = accumulate(field_for_segments(env, pad=2), env)
    filled = _filled(unit)
    message = _raises_and_leaves_unchanged(filled, _weighted_fiber_envelope(spec, least),
                                           OverflowError)
    assert message.startswith(f"summed segment weight {20 * least} reaches 2**53")
    below = accumulate(filled.copy(), _weighted_fiber_envelope(spec, least - 1))
    assert np.array_equal(below.adolescent, filled.adolescent + unit.adolescent * (least - 1))
    assert np.array_equal(below.senescent, filled.senescent + unit.senescent * (least - 1))
    # the limit is on what lands, and includes 2**53 itself: 16 of the 20
    # slabs lie in this window
    short = DensityField(unit.cell, 4, unit.x0_cell, unit.t0_cell + unit.t_cells - 4, unit.x_cells)
    assert len(_incidences(env, spec.eps, (4, short.t0_cell + short.t_cells))[0]) == 16
    _raises_and_leaves_unchanged(_filled(short), _weighted_fiber_envelope(spec, 2 ** 49),
                                 OverflowError, clip=True)
    clipped = accumulate(short.copy(), _weighted_fiber_envelope(spec, 2 ** 49 - 1), clip=True)
    unit_short = accumulate(short.copy(), env, clip=True)
    assert np.array_equal(clipped.adolescent, unit_short.adolescent * (2 ** 49 - 1))


def test_counting_memory_is_one_block_not_the_incidence_list(monkeypatch):
    # the ring-modes eigen run's one accumulate: 780k incidences over 5120 x 160 cells
    calls = []
    monkeypatch.setattr(ring, "accumulate",
                        lambda field, env, clip: calls.append((field, env, clip)))
    run_ring(RingSpec(circumference=8 * math.pi), LatticeSpec(n=20), M=30)
    (field, env, clip), = calls
    twice = SegmentArray.stack([env, env], env.frames)
    peaks = []
    for envelope in (env, twice):
        counted = field.copy()
        tracemalloc.start()
        try:
            accumulate(counted, envelope, clip=clip)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert counted.adolescent.any()
    assert peaks[0] < 25 * 2 ** 20
    assert peaks[1] < 1.1 * peaks[0]  # twice the incidences, the same blocks and accumulator


def test_accumulate_linearity_over_concatenated_envelopes(spec):
    a = build_fiber((0.0, 0.0), spec)
    b = build_fiber((0.0, 2.0), spec)
    both = field_for_segments(build_cord((0.0, 0.0), spec).segs, pad=4)
    accumulate(accumulate(both.copy(), right_envelope(a)), right_envelope(b))
    merged = both.copy()
    accumulate(merged, right_envelope(a))
    accumulate(merged, right_envelope(b))
    single_a = both.copy()
    accumulate(single_a, right_envelope(a))
    single_b = both.copy()
    accumulate(single_b, right_envelope(b))
    assert np.array_equal(merged.adolescent, single_a.adolescent + single_b.adolescent)
    assert np.array_equal(merged.senescent, single_a.senescent + single_b.senescent)


def test_out_of_bounds_raises_unless_clipping(spec):
    fiber = build_fiber((0.0, 0.0), spec)
    small = DensityField(spec.eps, 0, 0, 4, 4)
    with pytest.raises(ValueError, match="outside the field"):
        accumulate(small, right_envelope(fiber))
    later = DensityField(spec.eps, 100, 0, 4, 4)  # no slab of the fiber reaches its t window
    with pytest.raises(ValueError, match=r"stored row 0 writes outside the field at cell \(t=0,"):
        accumulate(later, right_envelope(fiber))
    accumulate(small, right_envelope(fiber), clip=True)
    assert small.adolescent[0, 0] == 1



def _cut_window(env, field, keep=0.5):
    """The field cut to its middle ``keep`` fraction of t cells; asserts that
    stored rows straddle both cut edges, so the clamp really cuts rows."""
    t_cells = max(1, int(field.t_cells * keep))
    t0 = field.t0_cell + (field.t_cells - t_cells) // 2
    x1, t1, x2, t2 = env.row_endpoints()
    lo, hi = np.minimum(t1, t2) / field.cell, np.maximum(t1, t2) / field.cell
    for edge in (t0, t0 + t_cells):
        assert ((lo < edge - 0.5) & (hi > edge + 0.5)).any()
    return DensityField(field.cell, t0, field.x0_cell, t_cells, field.x_cells, wrap_x=field.wrap_x)


def _filled(field, seed=3):
    """A copy of ``field`` holding random counts: counting adds, and must not
    touch other cells."""
    rng = np.random.default_rng(seed)
    filled = field.copy()
    filled.adolescent[:] = rng.integers(-5, 5, field.adolescent.shape)
    filled.senescent[:] = rng.integers(-5, 5, field.senescent.shape)
    return filled


def _blocks_wholly_outside(env, field):
    """Blocks of ``accumulate(field, env, clip=True)`` that expand incidences
    of which none lands in the field."""
    window = (field.t0_cell, field.t0_cell + field.t_cells)
    _, counts, expand = density._rows(env, field.cell, window)
    outside = 0
    for a, b in density._blocks(counts):
        _, j, _ = expand(a, b)
        col = np.mod(j - field.x0_cell, field.x_cells) if field.wrap_x else j - field.x0_cell
        outside += bool(len(col)) and not ((col >= 0) & (col < field.x_cells)).any()
    return outside


@pytest.mark.parametrize("case, block", blocked())
def test_clipped_counting_matches_expand_then_mask(case, block, monkeypatch):
    block = set_block(monkeypatch, block)
    env, field = case()
    if block == 1:  # rows longer than a block are a block of their own
        assert (density._rows(env, field.cell)[1] > block).any()
    # unclipped over a field that holds every incidence
    filled = _filled(field)
    counted, oracle = accumulate(filled.copy(), env), expand_then_mask(filled, env)
    assert np.array_equal(counted.adolescent, oracle.adolescent)
    assert np.array_equal(counted.senescent, oracle.senescent)
    cut = _cut_window(env, field)
    expected = expand_then_mask(cut, env)
    filled = _filled(cut)
    counted, oracle = accumulate(filled.copy(), env, clip=True), expand_then_mask(filled, env)
    assert np.array_equal(counted.adolescent, oracle.adolescent)
    assert np.array_equal(counted.senescent, oracle.senescent)
    accumulate(cut, env, clip=True)
    assert np.array_equal(cut.adolescent, expected.adolescent)
    assert np.array_equal(cut.senescent, expected.senescent)
    # a window narrower than the counted columns as well: drops on both axes
    hit = np.nonzero((expected.adolescent != 0).any(axis=0))[0]
    lo, hi = hit[0] + (hit[-1] - hit[0]) // 4, hit[-1] - (hit[-1] - hit[0]) // 4
    narrow = DensityField(cut.cell, cut.t0_cell, cut.x0_cell + lo, cut.t_cells, hi - lo + 1,
                          wrap_x=cut.wrap_x)
    expected = expand_then_mask(narrow, env)
    assert expected.adolescent.any() and hit[0] < lo <= hi < hit[-1]
    if block == 1 and not narrow.wrap_x:  # a wrapped x never falls outside
        assert _blocks_wholly_outside(env, narrow)
    accumulate(narrow, env, clip=True)
    assert np.array_equal(narrow.adolescent, expected.adolescent)
    assert np.array_equal(narrow.senescent, expected.senescent)


@pytest.mark.parametrize("case", [_identity_case, _ray_case, _ring_case],
                         ids=["identity", "ray", "ring"])
def test_windowed_expansion_is_the_full_expansion_masked(case):
    env, field = case()
    cut = _cut_window(env, field)
    window = (cut.t0_cell, cut.t0_cell + cut.t_cells)
    k, j, idx = _incidences(env, cut.cell)
    keep = (k >= window[0]) & (k < window[1])
    wk, wj, widx = _incidences(env, cut.cell, window)
    assert 0 < len(wk) < len(k)
    for got, full in ((wk, k), (wj, j), (widx, idx)):
        assert np.array_equal(got, full[keep])


def test_single_frame_scalars_match_the_per_row_gather():
    env, field = _ray_case()
    assert len(env.frames) == 1
    # the same rows over a two-entry table of that frame take the per-row route
    twice = SegmentArray(env.lattice, env.x1, env.t1, env.x2, env.t2, env.time_dir, env.species,
                         env.envelope, np.arange(env.rows) % 2, env.frames * 2, env.weight,
                         env.runs)
    for got, want in zip(_incidences(env, field.cell), _incidences(twice, field.cell)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("case", [_identity_case, _ray_case, _ring_case],
                         ids=["identity", "ray", "ring"])
def test_envelope_outside_the_window_leaves_field_untouched(case):
    env, field = case()
    after = DensityField(field.cell, field.t0_cell + field.t_cells + 5, field.x0_cell, 20,
                         field.x_cells, wrap_x=field.wrap_x)
    after.adolescent[:] = 7
    before = DensityField(field.cell, field.t0_cell - 25, field.x0_cell, 20, field.x_cells,
                          wrap_x=field.wrap_x)
    for outside in (after, before):
        kept = outside.copy()
        assert not expand_then_mask(outside, env).senescent.any()
        assert accumulate(outside, env, clip=True) is outside
        assert np.array_equal(outside.adolescent, kept.adolescent)
        assert np.array_equal(outside.senescent, kept.senescent)


def _first_escape_message(env, field):
    """The ValueError text for the first incidence, in expansion order, that
    falls outside ``field``; and the stored row it belongs to."""
    k, j, idx = _incidences(env, field.cell)
    col = np.mod(j - field.x0_cell, field.x_cells) if field.wrap_x else j - field.x0_cell
    out = ((k < field.t0_cell) | (k >= field.t0_cell + field.t_cells) | (col < 0)
           | (col >= field.x_cells))
    bad = int(np.nonzero(out)[0][0])
    return (f"stored row {int(idx[bad])} writes outside the field at cell "
            f"(t={int(k[bad])}, x={int(j[bad])}); pass clip=True to drop it"), int(idx[bad])


def _raises_and_leaves_unchanged(field, env, error, clip=False):
    """``accumulate(field, env, clip)`` raises ``error``; returns its text.
    Every cell of both channels keeps its value."""
    kept = field.copy()
    with pytest.raises(error) as err:
        accumulate(field, env, clip=clip)
    assert np.array_equal(field.adolescent, kept.adolescent)
    assert np.array_equal(field.senescent, kept.senescent)
    return str(err.value)


@pytest.mark.parametrize("case, block", blocked())
def test_unclipped_out_of_field_error_names_the_first_escaping_incidence(case, block, monkeypatch):
    set_block(monkeypatch, block)
    env, field = case()
    cut = _cut_window(env, field)
    if cut.wrap_x:  # the same wrapped columns, but every unwrapped x lies left of the field
        cut = DensityField(cut.cell, cut.t0_cell, cut.x0_cell + 25 * cut.x_cells, cut.t_cells,
                           cut.x_cells, wrap_x=True)
        assert (_incidences(env, cut.cell)[1] < cut.x0_cell).all()
    message, _ = _first_escape_message(env, cut)
    assert _raises_and_leaves_unchanged(_filled(cut), env, ValueError) == message


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_unclipped_error_from_a_later_block_leaves_the_field_unchanged(case, monkeypatch):
    # earlier blocks land in the field; the accumulator must not reach it
    set_block(monkeypatch, 7)
    env, field = case()
    late = DensityField(field.cell, field.t0_cell, field.x0_cell, field.t_cells * 3 // 4,
                        field.x_cells, wrap_x=field.wrap_x)
    message, row = _first_escape_message(env, late)
    _, counts, _ = density._rows(env, late.cell)
    blocks = list(density._blocks(counts))
    first_bad = next(i for i, (a, b) in enumerate(blocks) if a <= row < b)
    assert first_bad >= 2
    assert _raises_and_leaves_unchanged(_filled(late), env, ValueError) == message



def test_zero_length_row_counts_in_the_one_slab_it_sits_in():
    # t1 == t2 on a cell edge: the row still covers one slab, also under a window
    lat = LatticeSpec(n=10)
    segs = SegmentArray(lat, [0], [4], [2], [4], [1], [0], [1], [0], (Frame(x0=0.5),))
    for window, cells in ((None, [2]), ((2, 3), [2]), ((0, 2), []), ((3, 9), [])):
        k, j, idx = _incidences(segs, lat.eps, window)
        assert k.tolist() == cells and idx.tolist() == [0] * len(cells)


def test_float_binning_slope_survives_int32_differences():
    # t2 - t1 = 4e9 half-cell units does not fit int32; a wrapped difference
    # flips the slope and sends a right-moving segment left
    lat = LatticeSpec(n=10)
    segs = SegmentArray(lat, [0], [-2e9], [2e9], [2e9], [1], [0], [1], [0], (Frame(x0=0.5),))
    k, j, idx = _incidences(segs, cell=lat.eps * 1e8)
    assert np.array_equal(k, np.arange(-10, 10))
    assert np.array_equal(j, np.arange(20) // 2)  # x cells rise with t


@pytest.mark.parametrize("k", [1, 3, 7, 13, 101])
def test_cell_aligned_frame_translation_counts_like_the_shifted_origin(k):
    # a frame offset of k cells lands slab edges within an ulp of the cell
    # edges, where a bare floor or ceil would add phantom slabs
    spec = LatticeSpec(n=10)
    shift = k * spec.eps
    built = build_cable((shift, shift), spec, M=5, repeats=2)
    moved = with_frame(build_cable((0.0, 0.0), spec, M=5, repeats=2), Frame(x0=shift, t0=shift))
    field = field_for_segments(built.segs, pad=2)
    framed = field_for_segments(moved.segs, pad=2)
    assert (framed.t0_cell, framed.x0_cell, framed.t_cells, framed.x_cells) == \
        (field.t0_cell, field.x0_cell, field.t_cells, field.x_cells)
    want = accumulate(field.copy(), right_envelope(built))
    got = accumulate(field.copy(), right_envelope(moved))
    assert want.adolescent.any()
    assert np.array_equal(got.adolescent, want.adolescent)
    assert np.array_equal(got.senescent, want.senescent)


def _shifted(segs, ox, ot):
    """``segs`` moved by (ox, ot) half-cell units, in its integer columns."""
    return SegmentArray(segs.lattice, segs.x1.astype(np.int64) + ox,
                        segs.t1.astype(np.int64) + ot, segs.x2.astype(np.int64) + ox,
                        segs.t2.astype(np.int64) + ot, segs.time_dir, segs.species,
                        segs.envelope, segs.frame_idx, segs.frames, segs.weight, segs.runs)


# origins in cells; from 1e8 cells on, a fixed 1e-9 snap misbins slab edges
_FAR_ORIGINS = [(1e8, 1e8), (-1e8, 3e8 + 7), (5e8, 5e8), (-5e8 + 3, -5e8), (5e8, -123457)]


def _identity_sweep(seed=2026, draws=24):
    """Identity-frame envelopes as (label, envelope): seeded fibers, cords
    and cables of several n, M and repeats at near origins, and the n=10
    fiber, cord and cable at each of ``_FAR_ORIGINS``."""
    rng = np.random.default_rng(seed)
    near = [tuple(int(c) for c in rng.integers(-10 ** 4, 10 ** 4, 2)) for _ in range(draws)]
    cases = [(origin, ("fiber", "cord", "cable")[i % 3], int(rng.choice([2, 4, 6, 10, 20])),
              int(rng.integers(1, 13)), int(rng.integers(1, 4))) for i, origin in enumerate(near)]
    cases += [((int(x), int(t)), kind, 10, 5, 2) for x, t in _FAR_ORIGINS
              for kind in ("fiber", "cord", "cable")]
    out = []
    for (ox, oy), kind, n, M, repeats in cases:
        spec = LatticeSpec(n=n)
        if kind == "fiber":
            path = build_fiber((0.0, 0.0), spec)
        elif kind == "cord":
            path = build_cord((0.0, 0.0), spec, repeats=repeats)
        else:
            path = build_cable((0.0, 0.0), spec, M=M, repeats=repeats)
        # a cell is two half-cell units; half_x and half_t add half a cell or not
        half_x, half_t = (int(h) for h in rng.integers(0, 2, 2))
        out.append((f"{kind} n={n} M={M} repeats={repeats} at ({ox}, {oy})+({half_x}, {half_t})/2",
                    _shifted(right_envelope(path), 2 * ox + half_x, 2 * oy + half_t)))
    return out


def test_identity_frame_expansion_matches_the_integer_oracle():
    far = 0
    for label, env in _identity_sweep():
        k, j, idx = incidences_int(env)
        assert len(k), label
        for got, want in zip(_incidences(env, env.lattice.eps), (k, j, idx)):
            assert got.dtype == want.dtype and np.array_equal(got, want), label
        # a window cutting through the rows
        lo = int(k.min()) + (int(k.max()) - int(k.min())) // 3
        window = (lo, lo + max(1, (int(k.max()) - lo) // 2))
        for got, want in zip(_incidences(env, env.lattice.eps, window), incidences_int(env, window)):
            assert np.array_equal(got, want), label
        # and counted: the field is sized by the same snapping rule
        field = field_for_segments(env, pad=1)
        assert field.t0_cell < k.min() and k.max() < field.t0_cell + field.t_cells - 1, label
        assert field.x0_cell < j.min() and j.max() < field.x0_cell + field.x_cells - 1, label
        counted = accumulate(field.copy(), env)
        signed = (env.time_dir.astype(np.int64) * env.weight)[idx]
        right = (env.species == RIGHT_MOVER)[idx]
        for channel, keep in ((field.adolescent, right), (field.senescent, ~right)):
            np.add.at(channel, (k[keep] - field.t0_cell, j[keep] - field.x0_cell), signed[keep])
        assert np.array_equal(counted.adolescent, field.adolescent), label
        assert np.array_equal(counted.senescent, field.senescent), label
        far += max(abs(int(k[0])), abs(int(j[0]))) >= 10 ** 8
    assert far == 3 * len(_FAR_ORIGINS)


# --- reference densities ---------------------------------------------------


def test_reference_fiber_unit_values():
    ref = ReferenceDensity("fiber_unit")
    assert reference_eval(ref, 0.5) == 1.0
    assert reference_eval(ref, 2.5) == -1.0
    assert reference_eval(ref, 1.5) == 0.0
    # periodic with the mathematical mod convention
    assert reference_eval(ref, -3.5) == 1.0
    assert reference_eval(ref, 6.5) == -1.0


def test_reference_square_wave_is_two_fiber_sum():
    t = np.linspace(0.05, 7.95, 80)
    u = ReferenceDensity("fiber_unit")
    w = ReferenceDensity("square_wave")
    assert np.array_equal(reference_eval(w, t),
                          reference_eval(u, t) + reference_eval(u, t - 1.0))


def test_reference_delta_chain_is_square_wave_difference():
    eps = 0.2
    t = np.arange(0.1, 8.0, eps)
    w = ReferenceDensity("square_wave")
    d = ReferenceDensity("delta_chain", eps=eps)
    assert np.array_equal(reference_eval(d, t),
                          reference_eval(w, t) - reference_eval(w, t - eps))
    with pytest.raises(ValueError):
        ReferenceDensity("delta_chain")
    with pytest.raises(ValueError):
        ReferenceDensity("no_such_kind")


# --- cord and cable against references and oracles -------------------------


@pytest.mark.parametrize("n", [4, 10, 50])
def test_cord_steady_state_delta_chain_exact(n):
    spec = LatticeSpec(n=n)
    cord = build_cord((0.0, 0.0), spec, repeats=4)
    field = field_for_segments(cord.segs, pad=2)
    accumulate(field, right_envelope(cord))
    region = steady_region(cord, field)
    report = compare(field, ReferenceDensity("delta_chain", eps=spec.eps), "adolescent", region)
    assert report.l_inf == 0.0
    # spikes +2 at t = 0 mod 4 and -2 at t = 2 mod 4, one cell wide
    ado = x_summed(field, "adolescent", region)
    lo = region.t_lo
    for j, value in enumerate(ado):
        cell = lo + j
        if cell % (2 * n) == 0:
            assert value == 2
        elif cell % (2 * n) == n:
            assert value == -2
        else:
            assert value == 0


def test_cord_transients_confined_to_one_period(spec):
    cord = build_cord((0.0, 0.0), spec, repeats=4)
    field = field_for_segments(cord.segs, pad=2)
    accumulate(field, right_envelope(cord))
    ref = ReferenceDensity("delta_chain", eps=spec.eps)
    full = x_summed(field, "adolescent", whole_region(field))
    centers = field.t_centers()
    expected = reference_eval(ref, centers)
    mismatch = np.nonzero(full != expected)[0] + field.t0_cell
    assert len(mismatch) > 0  # transients do exist ...
    lo, hi = cord.steady_window
    cells = np.array(mismatch) * spec.eps
    assert all((c < lo) | (c >= hi - spec.eps) for c in cells)  # ... only near the ends


def test_cord_profile_matches_interval_oracle(spec):
    cord = build_cord((0.0, 0.0), spec, repeats=3)
    field = field_for_segments(cord.segs, pad=0)
    accumulate(field, right_envelope(cord))
    t_cells = field.t_cells
    offsets = [(off - field.t0_cell, 1) for off in cord_fiber_offsets(spec.n, repeats=3)]
    want_ado = profile_oracle(spec.n, offsets, t_cells)
    want_sen = profile_oracle(spec.n, offsets, t_cells, lagged=True)
    assert np.array_equal(field.adolescent.sum(axis=1), want_ado)
    assert np.array_equal(field.senescent.sum(axis=1), want_sen)


def test_cable_profile_matches_interval_oracle(spec):
    M, repeats = 9, 2
    cable = build_cable((0.0, 0.0), spec, M=M, repeats=repeats)
    field = field_for_segments(cable.segs, pad=0)
    accumulate(field, right_envelope(cable))
    offsets = []
    for k, count in enumerate(cable.extras["cords_per_shift"]):
        if count:
            for off in cord_fiber_offsets(spec.n, origin_cells=k, repeats=repeats):
                offsets.append((off - field.t0_cell, count))
    want = profile_oracle(spec.n, offsets, field.t_cells)
    assert np.array_equal(field.adolescent.sum(axis=1), want)


def test_cable_fit_recovers_period_and_amplitude(spec):
    cable = build_cable((0.0, 0.0), spec, M=20, repeats=3)
    field = field_for_segments(cable.segs, pad=2)
    accumulate(field, right_envelope(cable))
    report = compare(field, ReferenceDensity("sinusoid"), "adolescent", steady_region(cable, field))
    assert report.fitted is not None
    assert abs(report.fitted.period - 4.0) <= spec.eps
    assert report.fitted.amplitude == pytest.approx(2 * 20, rel=0.05)


# --- fitting and lags ------------------------------------------------------


def test_fit_sinusoid_recovers_known_parameters():
    t = np.arange(0.0, 40.0, 0.1)
    y = 3.5 * np.sin(1.7 * t + 0.4) + 0.25
    fit = fit_sinusoid(t, y)
    assert fit.omega == pytest.approx(1.7, rel=1e-6)
    assert fit.amplitude == pytest.approx(3.5, rel=1e-6)
    assert fit.offset == pytest.approx(0.25, abs=1e-6)
    assert fit.rms_residual < 1e-9


def test_fit_sinusoid_needs_oscillation():
    t = np.arange(0.0, 10.0, 0.1)
    with pytest.raises(ValueError):
        fit_sinusoid(t, np.ones_like(t))


def noisy_sinusoids(count, seed):
    """Seeded (times, values) of a*sin(w t + phase) + offset + noise: N from
    8 to 2000, 1 to 20 periods in the window (at least 4 samples a period)
    and noise up to 5 % of the amplitude, as in the fan and carrier profiles
    (rel_rms 0.6-4 %)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(8, 2001))
        dt = rng.uniform(0.05, 2.0)
        times = (np.arange(n) + rng.uniform(0.0, 1.0)) * dt + rng.uniform(-50.0, 50.0)
        omega = 2.0 * np.pi * rng.uniform(1.0, min(20.0, n / 4)) / (n * dt)
        amplitude = rng.uniform(0.1, 100.0)
        values = (amplitude * np.sin(omega * times + rng.uniform(-np.pi, np.pi))
                  + rng.uniform(-2.0, 2.0) * amplitude
                  + rng.uniform(0.0, 0.05) * amplitude * rng.standard_normal(n))
        yield times, values


def fan_profiles():
    """(times, values) of every ray fit of the n=20 calibration fan (11 rays, M=20)."""
    lattice = LatticeSpec.for_mass(20, mass=1.0)
    fan = tuple(float(v) for v in np.linspace(-0.25, 0.25, 11))
    region = region_for_fan(lattice, fan, start_periods=2.0, n_periods=4.0)
    seen = []

    def record(times, values):
        seen.append((np.array(times), np.array(values)))
        return fit_sinusoid(times, values)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagator, "fit_sinusoid", record)
        write_region(region, M=20)
    return seen


def carrier_profiles(M):
    """(times, values) of both channels of the n=10 carrier over its steady region."""
    spec = LatticeSpec(n=10)
    cable = build_cable((0.0, 0.0), spec, M=M, repeats=3)
    field = field_for_segments(cable.segs, pad=2)
    accumulate(field, right_envelope(cable))
    region = steady_region(cable, field)
    centers = field.t_centers()[region.slices(field)[0]]
    return [(centers, x_summed(field, name, region).astype(float)) for name in CHANNELS]


@pytest.mark.parametrize("inputs", [
    lambda: noisy_sinusoids(40, seed=2024),
    fan_profiles,
    lambda: carrier_profiles(20),
], ids=["noisy-sweep", "fan-n20", "carrier-n10"])
def test_fit_sinusoid_matches_the_lstsq_fit(inputs):
    """The normal-equation fit against the SVD fit it replaced, with the same
    search.  Worst deviations measured (omega, amplitude, rms relative;
    offset over amplitude): the 40 draws here 3.8e-10, 2.7e-11, 2.0e-14,
    2.7e-10; fan 3.8e-11, 3.2e-12, 2.0e-15, 2.2e-11; carrier 2.4e-12,
    2.3e-13, 7.2e-15, 4.7e-13.  In 2000 draws of the sweep's distribution
    (seeds 1 and 2) one omega deviated by 1.1e-9, the rest by at most
    8.6e-10.  The spread is where each search stops in the flat bottom of
    its objective; the lstsq fit moves as far when its times change by one
    ulp (next test)."""
    for times, values in inputs():
        new, old = fit_sinusoid(times, values), fit_sinusoid_oracle(times, values)
        assert new.omega == pytest.approx(old.omega, rel=1e-9, abs=0)
        assert new.amplitude == pytest.approx(old.amplitude, rel=1e-9, abs=0)
        assert new.rms_residual == pytest.approx(old.rms_residual, rel=1e-9, abs=0)
        assert new.offset == pytest.approx(old.offset, rel=0, abs=1e-9 * old.amplitude)


def test_fit_sinusoid_stops_in_the_lstsq_minimum_where_it_is_flat():
    """The noisy n=10, M=5 carrier (rel_rms 9 %, 1.3 periods) has an objective
    so flat that the two searches stop 1.7e-9 apart in omega; the lstsq fit
    itself moves up to 2.5e-9 when its times change by one ulp.  The new
    omega is as good a minimiser of the lstsq objective as the old one, to
    the objective's own rounding (each residual carries eps * max|values|)."""
    def lstsq_rms(times, values, omega):
        basis = np.column_stack([np.sin(omega * times), np.cos(omega * times), np.ones_like(times)])
        coef, *_ = np.linalg.lstsq(basis, values, rcond=None)
        return float(np.sqrt(np.mean((values - basis @ coef) ** 2)))

    for times, values in carrier_profiles(5):
        new, old = fit_sinusoid(times, values), fit_sinusoid_oracle(times, values)
        assert new.omega == pytest.approx(old.omega, rel=1e-8, abs=0)
        assert new.rms_residual == pytest.approx(old.rms_residual, rel=1e-9, abs=0)
        rounding = 4 * np.finfo(float).eps * np.max(np.abs(values))
        assert lstsq_rms(times, values, new.omega) <= lstsq_rms(times, values, old.omega) + rounding


def test_fit_sinusoid_is_repeatable_and_solves_each_trial_once(monkeypatch):
    """The search asks for 93 trials (2 + 90 + the final one); once the
    bracket has collapsed to an ulp some repeat, and those are read back."""
    solved = []
    solve = density._fit_at

    def record(omega, times, rows):
        solved.append(omega)
        return solve(omega, times, rows)

    monkeypatch.setattr(density, "_fit_at", record)
    for times, values in fan_profiles():
        solved.clear()
        first = fit_sinusoid(times, values)
        assert len(set(solved)) == len(solved) < 93
        assert fit_sinusoid(times, values) == first


@pytest.mark.parametrize("case, message", [
    ("shuffled", "uniformly spaced"),
    ("decreasing", "increasing"),
    ("repeated", "increasing"),
    ("nan-time", "times must be finite"),
    ("inf-time", "times must be finite"),
    ("nan-value", "values must be finite"),
    ("inf-value", "values must be finite"),
    ("short-values", "one length"),
])
def test_fit_sinusoid_refuses_input_it_would_misfit(case, message):
    """Unchecked, sorted random times sampling sin(1.3 t) fit omega = 4.51
    and a single NaN value gives an all-NaN fit, both silently."""
    rng = np.random.default_rng(3)
    times = np.arange(0.0, 40.0, 0.1)
    if case == "shuffled":
        times = np.sort(rng.uniform(0.0, 40.0, len(times)))
    elif case == "decreasing":
        times = times[::-1].copy()
    elif case == "repeated":
        times[7] = times[6]
    values = np.sin(1.3 * times)
    if case == "nan-time":
        times[5] = np.nan
    elif case == "inf-time":
        times[-1] = np.inf
    elif case == "nan-value":
        values[5] = np.nan
    elif case == "inf-value":
        values[5] = -np.inf
    elif case == "short-values":
        values = values[:-1]
    with pytest.raises(ValueError, match=message):
        fit_sinusoid(times, values)


@pytest.mark.parametrize("bracket", [
    (0.0, 2.0), (-1.0, 2.0), (2.0, 1.0), (1.3, 1.3),
    (np.nan, 2.0), (1.0, np.nan), (1.0, np.inf), (-np.inf, 2.0),
])
def test_fit_sinusoid_refuses_a_bracket_outside_0_lo_hi(bracket):
    times = np.arange(0.0, 40.0, 0.1)
    with pytest.raises(ValueError, match="omega_bracket"):
        fit_sinusoid(times, np.sin(1.3 * times), omega_bracket=bracket)


def test_fit_sinusoid_searches_a_given_bracket():
    times = np.arange(0.0, 40.0, 0.1)
    fit = fit_sinusoid(times, 2.0 * np.sin(1.3 * times) + 0.5, omega_bracket=(1.0, 2.0))
    assert fit.omega == pytest.approx(1.3, rel=1e-9)
    assert fit.amplitude == pytest.approx(2.0, rel=1e-9)


def test_singular_normal_equations_raise():
    """At omega = 2 pi / dt every sample sits at one phase: cos is exactly
    one, the column of the constant."""
    times = np.arange(64) * 0.1
    rows = np.ones((4, len(times)))
    with pytest.raises(ValueError, match="singular"):
        density._fit_at(2.0 * np.pi / 0.1, times, rows)


@pytest.mark.parametrize("offset, rel", [(0.0, 1e-12), (0.5, 1e-12), (0.25, 1e-7)])
@pytest.mark.parametrize("n", [8, 64, 600])
def test_fit_sinusoid_fits_a_nyquist_alternating_input(n, offset, rel):
    """5 * (-1)**k sits at the Nyquist frequency, where sin and cos of the
    samples are collinear.  On the lattice points (offset 0) and the cell
    centres (0.5) one of them vanishes and the fit gives amplitude 5 to
    1e-15, as the lstsq fit does.  A quarter cell off, both are +-1/sqrt(2)
    and the normal equations keep only about half the digits: amplitude
    5 + 2e-8 at most (measured), rms 2e-8, where lstsq gives 5 to 1e-15."""
    times = (np.arange(n) + offset) * 0.1
    fit = fit_sinusoid(times, 5.0 * (-1.0) ** np.arange(n))
    assert fit.amplitude == pytest.approx(5.0, rel=rel)
    assert fit.omega == pytest.approx(np.pi / 0.1, rel=1e-4)


def test_best_lag_on_shifted_copies():
    rng = np.random.default_rng(7)
    a = rng.integers(-3, 4, size=200)
    b = np.roll(a, 12)
    assert best_lag(a, b, 30) == 12
    with pytest.raises(ValueError):
        best_lag(a, b, 250)
    with pytest.raises(ValueError, match="shorter"):
        best_lag(a, b[:-1], 30)


def test_best_lag_matches_the_per_lag_loop_and_breaks_ties_low():
    rng = np.random.default_rng(11)
    ties = 0
    for _ in range(300):
        n = int(rng.integers(2, 80))
        max_lag = int(rng.integers(0, n))
        high = int(rng.choice([1, 2, 1000]))
        reference = rng.integers(-high, high + 1, size=n)
        delayed = rng.integers(-high, high + 1, size=n + int(rng.integers(0, 3)))
        if rng.random() < 0.1:
            reference[:] = 0
        window = n - max_lag
        scores = [int(np.dot(reference[:window], delayed[lag:lag + window])) for lag in range(max_lag + 1)]
        ties += scores.count(max(scores)) > 1
        assert best_lag(reference, delayed, max_lag) == best_lag_loop(reference, delayed, max_lag)
    assert ties > 30


# --- regions and export ----------------------------------------------------


def test_compare_empty_region_rejected(spec):
    fiber = build_fiber((0.0, 0.0), spec)
    field = field_for_segments(fiber.segs)
    accumulate(field, right_envelope(fiber))
    with pytest.raises(ValueError, match="region"):
        compare(field, ReferenceDensity("fiber_unit"), "adolescent",
                Region(5, 5, field.x0_cell, field.x0_cell + 1))


def test_steady_region_requires_window(spec):
    fiber = build_fiber((0.0, 0.0), spec)
    field = field_for_segments(fiber.segs)
    cable = build_cable((0.0, 0.0), spec, M=3, repeats=2)
    fiber_like = type(fiber)(fiber.segs, "custom", (0.0, 0.0))
    with pytest.raises(ValueError, match="steady window"):
        steady_region(fiber_like, field)
    region = steady_region(cable, field_for_segments(cable.segs))
    assert region.t_hi > region.t_lo


def test_export_field_roundtrip(tmp_path, spec):
    cord = build_cord((0.0, 0.0), spec)
    field = field_for_segments(cord.segs, pad=1)
    accumulate(field, right_envelope(cord))
    written = export_field(field, tmp_path, "cord")
    names = sorted(p.name for p in written)
    assert names == ["cord.adolescent.tsv", "cord.meta.json", "cord.senescent.tsv"]
    back = np.loadtxt(tmp_path / "cord.adolescent.tsv", dtype=np.int64, delimiter="\t")
    assert np.array_equal(back, field.adolescent)
    meta = json.loads((tmp_path / "cord.meta.json").read_text())
    assert meta["cell_size"] == field.cell
    assert meta["t_cells"] == field.t_cells
    assert meta["origin_cell"] == {"x": field.x0_cell, "t": field.t0_cell}


_I64 = np.iinfo(np.int64)


def _random_matrix(shape, magnitude, seed):
    lo, hi = (-magnitude, magnitude) if magnitude else (_I64.min, _I64.max)
    return np.random.default_rng(seed).integers(lo, hi, size=shape, dtype=np.int64,
                                                endpoint=True)


@pytest.mark.parametrize("matrix", [
    pytest.param(np.zeros((1, 1), dtype=np.int64), id="zero-1x1"),
    pytest.param(np.arange(-6, 7, dtype=np.int64).reshape(1, -1), id="row"),
    pytest.param(np.arange(-6, 7, dtype=np.int64).reshape(-1, 1), id="column"),
    pytest.param(-np.arange(1, 13, dtype=np.int64).reshape(3, 4) ** 3, id="all-negative"),
    pytest.param(np.array([[-1, 0, 1], [10, -10, 0], [0, 0, -999]]), id="mixed-sign"),
    pytest.param(np.array([[1, 22, 333, 4444], [-55555, 6, -77, 8], [0, 0, 0, 9999999]]),
                 id="ragged-digits"),
    pytest.param(np.array([[2 ** 53, -2 ** 53], [_I64.max, _I64.min], [0, -1]]), id="extremes"),
    pytest.param(np.full((2, 3), _I64.min), id="int64-min"),
    *(pytest.param(_random_matrix((17, 23), 10 ** e, seed=e), id=f"random-1e{e}")
      for e in (1, 3, 6, 12, 18)),
    pytest.param(_random_matrix((31, 7), 0, seed=0), id="random-int64"),
])
def test_format_matrix_matches_savetxt(matrix):
    assert _format_matrix(matrix) == savetxt_bytes(matrix)
