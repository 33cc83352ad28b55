import dataclasses
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings, strategies as st

from entwined import density, propagator, ring
from entwined.cli import load_config, validate
from entwined.density import (CHANNELS, DensityField, ReferenceDensity, Region, _format_matrix,
                              _incidences, accumulate, best_lag, compare,
                              export_field, field_for_segments, fit_sinusoid, reference_eval,
                              steady_region, whole_region)
from entwined.lattice import LatticeSpec, SpecError
from entwined.paths import (RIGHT_MOVER, Frame, SegmentArray, build_cable, build_cord,
                            build_fiber, concatenate, cords_per_shift, right_envelope, with_frame)
from entwined.propagator import RaySpec, region_for_fan, write_region
from entwined.ring import RingSpec, run_ring
from test_paths import materialised_cable
from test_propagator import fresh_ray
from helpers import (best_lag_loop, channel_sign_bound, cord_fiber_offsets, exact_residual, expand_then_mask,
                     fit_sinusoid_golden, fit_sinusoid_oracle, held_bound, incidences_exact,
                     incidences_int, int64_copy, profile_oracle, savetxt_bytes)


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
    # counting has one input type; paths, lists of rows and empty lists all
    # raise with the hint to pass the path's right envelope
    fiber = build_fiber((0.0, 0.0), spec, drift=0.2)
    field = field_for_segments(fiber.segs, pad=2)
    env = right_envelope(fiber)
    for envelope in (fiber, list(zip(env.x1, env.t1, env.x2, env.t2)), []):
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


def test_channels_are_views_of_the_one_store():
    field = DensityField(0.5, -3, 2, 4, 5)
    assert field.counts.shape == (2, 4, 5) and field.counts.dtype == np.int8
    field.adolescent[1, 2] = 7
    field.senescent[:, 0] += 3
    field.channel("senescent")[3, 4] = -2
    expected = np.zeros((2, 4, 5), dtype=np.int64)
    expected[0, 1, 2] = 7
    expected[1, :, 0] = 3
    expected[1, 3, 4] = -2
    assert np.array_equal(field.counts, expected)
    for i, name in enumerate(CHANNELS):
        assert np.shares_memory(field.channel(name), field.counts[i])


def test_copy_shares_no_memory_with_its_source(spec):
    fiber = build_fiber((0.0, 0.0), spec)
    field = accumulate(field_for_segments(fiber.segs, pad=2, wrap_x=True), right_envelope(fiber))
    kept = field.counts.copy()
    twin = field.copy()
    assert not np.shares_memory(twin.counts, field.counts)
    assert np.array_equal(twin.counts, field.counts)
    assert ((twin.cell, twin.t0_cell, twin.x0_cell, twin.wrap_x)
            == (field.cell, field.t0_cell, field.x0_cell, field.wrap_x))
    twin.counts += 1
    accumulate(twin, right_envelope(fiber))
    assert np.array_equal(field.counts, kept)


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


@pytest.mark.parametrize("n, M, repeats", [(n, M, r) for n in (2, 4, 10) for M in (1, 3, 20)
                                            for r in (1, 2, 3, 4)])
def test_carrier_steady_cells_count_the_steady_region(n, M, repeats):
    # the carrier's plan holds the built cable's steady region in the field
    # that covers it, counts nothing until it is counted, and then counts what
    # accumulate does; it refuses exactly the cables whose region a sinusoid
    # fit cannot take
    lattice = LatticeSpec(n=n)
    cable = build_cable((0.0, 0.0), lattice, M=M, repeats=repeats)
    field = field_for_segments(cable.segs, pad=2)
    region = steady_region(cable, field)
    cells = max(0, region.t_hi - region.t_lo)
    if cells < 8:
        with pytest.raises(SpecError, match=f"^repeats: steady region is only {cells} cells; "):
            density.plan_carrier(lattice, M, repeats)
        return
    planned, steady, counting = density.plan_carrier(lattice, M, repeats)
    assert len(planned) == len(cable) and steady == region
    planned_field = counting.field
    assert (planned_field.t0_cell, planned_field.x0_cell, planned_field.counts.shape) == \
        (field.t0_cell, field.x0_cell, field.counts.shape)
    assert planned_field.counts.dtype == np.int8 and not planned_field.counts.any()
    density._count(counting)
    accumulate(field, right_envelope(cable))
    assert planned_field.counts.dtype == field.counts.dtype == counting.dtype
    assert np.array_equal(planned_field.counts, field.counts)


@pytest.mark.parametrize("n, M, repeats", [
    (10, 20, 3), (4, 7, 3), (2, 1, 5), (10, 20, 1), (8, 13, 1), (12, 1000, 2), (4, 2, 2),
    (50, 60, 1), (50, 123457, 5), (24, 5, 3), (100, 1000, 3),
])
def test_carrier_exact_sum_rule_is_the_counting_passs_limit(n, M, repeats, monkeypatch):
    # validate refuses a carrier exactly where its count does: at a limit
    # equal to the count's bound (the oracle's) both refuse, one above it
    # both accept
    lattice = LatticeSpec(n=n)
    cable = build_cable((0.0, 0.0), lattice, M=M, repeats=repeats)
    bound = channel_sign_bound(field_for_segments(cable.segs, pad=2), right_envelope(cable))
    config = load_config("carrier", None, {("lattice", "n"): n, ("carrier", "m_cords"): M,
                                           ("carrier", "repeats"): repeats})
    for limit in (bound, bound + 1):
        monkeypatch.setattr(density, "_EXACT_LIMIT", limit)
        # some of these cables are too short for a fit, which is refused apart
        problems = [p for p in validate(config) if p.startswith("carrier.m_cords: ")]
        field = field_for_segments(cable.segs, pad=2)
        if limit == bound:
            assert problems == [f"carrier.m_cords: counts can reach {bound}, which reaches "
                                "2**53; counts past it would not be exact as float64"]
            with pytest.raises(OverflowError, match=f"^counts can reach {bound}, "):
                accumulate(field, right_envelope(cable))
        else:
            assert problems == []
            accumulate(field, right_envelope(cable))


def _weighted_fiber_envelope(spec, weight):
    env = right_envelope(build_fiber((0.0, 0.0), spec))
    return SegmentArray(spec, env.x1, env.t1, env.x2, env.t2, env.envelope, env.frame_idx,
                        env.frames, weight=np.full(env.rows, weight, dtype=np.int64))


def test_weighted_counts_stay_integer_exact(spec):
    # each of the four counted rows is alone in its channel and sign, so no
    # count passes the weight, below 2**53
    fiber = build_fiber((0.0, 0.0), spec)
    empty = field_for_segments(fiber.segs, pad=2)
    unit = accumulate(empty.copy(), right_envelope(fiber))
    weight = 2 ** 48 + 1
    big = accumulate(empty.copy(), _weighted_fiber_envelope(spec, weight))
    assert big.counts.dtype == np.int64
    assert np.array_equal(big.adolescent, unit.adolescent.astype(np.int64) * weight)
    assert np.array_equal(big.senescent, unit.senescent.astype(np.int64) * weight)


def test_weighted_counts_refuse_inexact_sums(spec):
    # a count of 2**53 would not be exact as float64: refused before the
    # store is widened, so it keeps its type; one less counts exactly
    field = field_for_segments(build_fiber((0.0, 0.0), spec).segs, pad=2)
    message = _raises_and_leaves_unchanged(field, _weighted_fiber_envelope(spec, 2 ** 53),
                                           OverflowError)
    assert message == (f"counts can reach {2 ** 53}, which reaches 2**53; counts past it "
                       "would not be exact as float64")
    assert field.counts.dtype == np.int8 and not field.counts.any()
    accumulate(field, _weighted_fiber_envelope(spec, 2 ** 53 - 1))
    assert set(field.counts.flat) == {0, 2 ** 53 - 1, -(2 ** 53 - 1)}


def test_inexact_sums_are_refused_only_past_the_limit_across_blocks(spec, monkeypatch):
    # four rows of five incidences, each row a block of its own; the field
    # already holds counts up to 5 and x-summed rows up to 22, which the
    # bound adds, and a refused pass expands no block at all
    set_block(monkeypatch, 3)
    env = right_envelope(build_fiber((0.0, 0.0), spec))
    _, counts = density._slab_ranges(env, spec.eps)
    assert counts.tolist() == [5] * 4 and len(list(density._blocks(counts))) == 4
    unit = accumulate(field_for_segments(env, pad=2), env)
    filled = _filled(unit)
    held = held_bound(filled)
    assert int(np.abs(filled.counts).max()) == 5 and held == 22  # an x-summed row's
    expander = density._expander
    expanded = []

    def spy(*args):
        expanded.append(args)
        return expander(*args)

    monkeypatch.setattr(density, "_expander", spy)
    least = 2 ** 53 - held  # the least weight a cell could carry to 2**53
    message = _raises_and_leaves_unchanged(filled, _weighted_fiber_envelope(spec, least),
                                           OverflowError)
    assert message.startswith(f"counts can reach {2 ** 53}, ")
    assert expanded == [] and filled.counts.dtype == np.int8
    below = accumulate(filled.copy(), _weighted_fiber_envelope(spec, least - 1))
    wide = filled.counts.astype(np.int64) + unit.counts.astype(np.int64) * (least - 1)
    assert np.array_equal(below.counts, wide) and len(expanded) == 1


def test_rows_a_field_holds_count_toward_the_limit(spec, monkeypatch):
    # three cells of every row hold 2**52, so every x-summed row already
    # holds 3 * 2**52, though no cell passes 2**53: counting the fiber onto
    # it could leave rows past 2**53, so it is refused before any block is
    # expanded, and the counts and their type stay as they were
    env = right_envelope(build_fiber((0.0, 0.0), spec))
    field = int64_copy(field_for_segments(env, pad=2))
    field.counts[:, :, :3] = 2 ** 52
    kept = field.counts.copy()
    expanded = []
    monkeypatch.setattr(density, "_expander", lambda *args: expanded.append(args))
    with pytest.raises(OverflowError, match=f"^counts can reach {3 * 2 ** 52 + 1}, "):
        accumulate(field, env)
    assert expanded == []
    assert field.counts.dtype == np.int64 and np.array_equal(field.counts, kept)


def _ring_modes_pass(speed_factor=1.0):
    """The field ``run_ring`` plans for a ring-modes run, ring --n 20 --cords
    30 [--speed-factor 1.5], still empty, and the pair's right envelope, which
    its one clipped pass counts there."""
    lattice, circumference = LatticeSpec(n=20), 8.0 * math.pi
    spec = RingSpec(circumference,
                    speed=speed_factor * ring.eigen_speed(1, lattice.mass, circumference))
    counting = ring.plan_ring(spec, lattice, M=30)[-1]
    return counting.field, right_envelope(ring._pair_path(spec, lattice, M=30)), True


def test_counting_memory_is_one_block_not_the_incidence_list():
    # the ring-modes eigen run's one pass: 780k incidences over 5120 x 160 cells
    field, env, clip = _ring_modes_pass()
    twice = SegmentArray.stack([env, env], env.frames)
    peaks = []
    for envelope in (env, twice):
        # one int16 store for both, kept as it is: the doubled counts would
        # widen an int8 one
        counted = field.copy()
        counted.counts = store = field.counts.astype(np.int16)
        tracemalloc.start()
        try:
            accumulate(counted, envelope, clip=clip)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert counted.counts is store
    assert counted.adolescent.any()
    assert peaks[0] < 25 * 2 ** 20
    assert peaks[1] < 1.1 * peaks[0]  # twice the incidences, the same blocks and accumulator


def test_counting_allocates_no_field_sized_temporary():
    # the ring-modes eigen run's one pass, straight into its 1.6 MB int8
    # store as it is; a second pass, whose counts and rows could reach the
    # rows held plus 120, widens that store to int16 once
    field, env, clip = _ring_modes_pass()
    peaks = []
    for dtype in (np.int8, np.int16):
        tracemalloc.start()
        try:
            accumulate(field, env, clip=clip)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert field.counts.dtype == dtype
    assert field.adolescent.any() and field.senescent.any()
    # a block's expansion: half the 3,276,800-byte int16 store the run once
    # counted into (the 1.27 MB measured block passes half the int8 store)
    block = 1_638_400
    assert peaks[0] < block
    assert peaks[1] < field.counts.nbytes + block


def test_the_fan_count_expands_one_ray_at_a_time():
    # the ray-fan workload, propagate --n 50 --cords 60: its 1.26 MB int16
    # store, the int8 store it replaces and one block's expansion; the fan's
    # 11 x 1,750 segments expanded together, as one stacked array, traced 5.47 MB
    region = region_for_fan(LatticeSpec(n=50), propagator.velocity_fan(-0.25, 0.25, 11))
    tracemalloc.start()
    try:
        result = write_region(region, M=60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.field.counts.nbytes == 1_262_400
    assert peak < 4 * 2 ** 20


# --- the store's width ----------------------------------------------------


def _one_row(spec, signed):
    """One counted fiber row of multiplicity |signed|, run backward in t
    where ``signed`` is negative, so each of its n/2 cells counts ``signed``."""
    env = right_envelope(build_fiber((0.0, 0.0), spec)).subset(np.array([0]))
    ends = (env.x1, env.t1, env.x2, env.t2)
    if signed * int(env.time_dir[0]) < 0:
        ends = ends[2:] + ends[:2]
    return SegmentArray(spec, *ends, env.envelope, env.frame_idx, env.frames,
                        weight=np.full(1, abs(signed), dtype=np.int64))


@pytest.mark.parametrize("sign", [1, -1], ids=["forward", "backward"])
@pytest.mark.parametrize("size, dtype", [
    (127, np.int8), (128, np.int16), (2 ** 15 - 1, np.int16), (2 ** 15, np.int32),
    (2 ** 31 - 1, np.int32), (2 ** 31, np.int64),
])
def test_a_pass_widens_the_store_to_the_narrowest_type_that_holds_its_counts(spec, sign, size,
                                                                                dtype):
    # the bound is on |count|: -128 would fit int8, yet it takes int16 as 128 does
    env = _one_row(spec, sign * size)
    field = field_for_segments(env, pad=1)
    assert field.counts.dtype == np.int8
    oracle = expand_then_mask(field, env)
    assert sorted({int(v) for v in oracle.counts.flat}) == sorted({0, sign * size})
    accumulate(field, env)
    assert field.counts.dtype == dtype
    assert np.array_equal(field.counts, oracle.counts)


def test_a_later_pass_widens_the_store_only_when_its_counts_could_pass_it(spec):
    field = field_for_segments(_one_row(spec, 1), pad=1)
    oracle = field.copy()
    for signed, dtype in ((100, np.int8), (27, np.int8), (1, np.int16), (-32768, np.int32)):
        env = _one_row(spec, signed)
        store = field.counts
        accumulate(field, env)
        oracle = expand_then_mask(oracle, env)
        assert field.counts.dtype == dtype
        assert np.array_equal(field.counts, oracle.counts)
        # a pass that fits counts in place, into the store as it was
        assert (field.counts is store) == (store.dtype == dtype)
    # 100 + 27 + 1 - 32768: every cell the row covers holds it exactly
    assert set(field.counts.flat) == {0, -32640}


def _narrowest(bound):
    return next(d for d in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(d).max >= bound)


@pytest.mark.parametrize("apart", ["channel", "sign"])
def test_counts_of_either_channel_or_sign_are_bounded_apart(spec, apart):
    # two rows over the same time cells, each adding 100 to every cell it
    # covers: a left mover beside a right mover, or the right mover run
    # backward two cells to the right.  No cell passes 100, so the store stays
    # int8; a bound over both channels and signs at once reads 200
    right = _one_row(spec, 100)
    if apart == "channel":  # mirrored in x: the other species, forward in t
        ends = (-right.x1, right.t1, -right.x2, right.t2)
    else:  # shifted by two cells and run backward: net weight -100
        ends = (right.x2 + 4, right.t2, right.x1 + 4, right.t1)
    other = SegmentArray(spec, *ends, right.envelope, right.frame_idx, right.frames,
                         weight=right.weight)
    env = SegmentArray.stack([right, other], right.frames)
    assert (env.species[0] != env.species[1]) == (apart == "channel")
    field = field_for_segments(env, pad=1)
    oracle = expand_then_mask(field, env)
    assert channel_sign_bound(field, env) == 100 == np.abs(oracle.counts).max()
    accumulate(field, env)
    assert field.counts.dtype == np.int8
    assert np.array_equal(field.counts, oracle.counts)


def test_copy_keeps_a_widened_store(spec):
    env = _one_row(spec, -(2 ** 31 - 1))
    field = accumulate(field_for_segments(env, pad=1), env)
    dup = field.copy()
    assert field.counts.dtype == dup.counts.dtype == np.int32
    assert np.array_equal(dup.counts, field.counts) and dup.counts.min() == -(2 ** 31 - 1)
    assert not np.shares_memory(dup.counts, field.counts)


@pytest.mark.parametrize("error", [ValueError])
def test_a_pass_that_raises_leaves_every_count_though_it_widened(spec, error, monkeypatch):
    # four rows of five incidences, each a block of its own, so blocks land
    # in the widened store before the pass raises: the third row starts
    # last, and a field cut there holds the first two
    set_block(monkeypatch, 3)
    env = right_envelope(build_fiber((0.0, 0.0), spec))
    field = field_for_segments(env, pad=2)
    k_lo = density._slab_ranges(env, field.cell)[0]
    assert k_lo.argmax() == 2
    field = DensityField(field.cell, field.t0_cell, field.x0_cell,
                         int(k_lo.max()) - field.t0_cell, field.x_cells)
    filled = _filled(field)
    assert filled.counts.dtype == np.int8
    _raises_and_leaves_unchanged(filled, _weighted_fiber_envelope(spec, 1000), error)
    assert filled.counts.dtype == np.int16


@pytest.mark.parametrize("factor, bound", [(1.0, 120), (1.5, 126)], ids=["eigen", "off-eigen"])
def test_ring_modes_stores_are_int8_and_count_as_int64(factor, bound):
    # the two runs of the ring-modes workload, ring --n 20 --cords 30 [--speed-factor 1.5];
    # the off-eigen bound is one below int8's limit, so a looser bound would widen it
    field, env, clip = _ring_modes_pass(factor)
    assert channel_sign_bound(field, env) == bound
    wide = accumulate(int64_copy(field), env, clip=clip)
    accumulate(field, env, clip=clip)
    assert field.counts.dtype == np.int8
    assert np.array_equal(field.counts, wide.counts)


def test_ray_fan_store_is_int16_and_counts_as_int64(monkeypatch):
    # the ray-fan workload, propagate --n 50 --cords 60: one pass per ray, all
    # counted again into an int64 copy of the store
    count = propagator._count
    twins = []

    def twice(plan, profiles):
        twins.append((int64_copy(plan.field), profiles.copy(), profiles))
        count(dataclasses.replace(plan, field=twins[-1][0]), twins[-1][1])
        count(plan, profiles)

    monkeypatch.setattr(propagator, "_count", twice)
    lattice = LatticeSpec(n=50)
    result = write_region(region_for_fan(lattice, propagator.velocity_fan(-0.25, 0.25, 11)), M=60)
    (wide, wide_profiles, profiles), = twins
    assert len(profiles) == 11
    assert result.field.counts.dtype == np.int16 and profiles.dtype == np.int64
    assert np.array_equal(result.field.counts, wide.counts)
    assert np.array_equal(profiles, wide_profiles)


def test_carrier_large_store_is_int32_and_counts_as_int64():
    # the carrier-large workload, carrier --n 100 --cords 1000 --repeats 3
    cable = build_cable((0.0, 0.0), LatticeSpec(n=100), M=1000, repeats=3)
    env = right_envelope(cable)
    field = field_for_segments(cable.segs, pad=2)
    wide = accumulate(int64_copy(field), env)
    accumulate(field, env)
    assert field.counts.dtype == np.int32
    assert np.array_equal(field.counts, wide.counts)


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
    k_lo, counts = density._slab_ranges(env, field.cell, window)
    expand = density._expander(env, field.cell, k_lo, counts)
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
        assert (density._slab_ranges(env, field.cell)[1] > block).any()
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
    twice = env.reframed(np.arange(env.rows) % 2, env.frames * 2)
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
def test_any_error_after_blocks_landed_leaves_the_field_unchanged(case, monkeypatch):
    # the third block's expansion fails; the two landed blocks are expanded
    # again and subtracted
    set_block(monkeypatch, 7)
    env, field = case()
    expander = density._expander
    expanded = []

    def failing_expander(*args):
        expand = expander(*args)

        def expand_or_fail(a, b):
            expanded.append((a, b))
            if len(expanded) == 3:
                raise MemoryError("third block")
            return expand(a, b)

        return expand_or_fail

    monkeypatch.setattr(density, "_expander", failing_expander)
    assert _raises_and_leaves_unchanged(_filled(field), env, MemoryError) == "third block"
    assert expanded[3:] == expanded[:2]


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_unclipped_error_from_a_later_block_leaves_the_field_unchanged(case, monkeypatch):
    # earlier blocks land in the field and must be taken back out
    set_block(monkeypatch, 7)
    env, field = case()
    late = DensityField(field.cell, field.t0_cell, field.x0_cell, field.t_cells * 3 // 4,
                        field.x_cells, wrap_x=field.wrap_x)
    message, row = _first_escape_message(env, late)
    _, counts = density._slab_ranges(env, late.cell)
    blocks = list(density._blocks(counts))
    first_bad = next(i for i, (a, b) in enumerate(blocks) if a <= row < b)
    assert first_bad >= 2
    assert _raises_and_leaves_unchanged(_filled(late), env, ValueError) == message



@pytest.mark.parametrize("n, M, repeats, rows, segments", [
    (50, 60, 8, 6272, 1750),  # each ray of the ray-fan workload
    (100, 1000, 3, 4752, 1500),  # the carrier-large workload
], ids=["ray", "carrier-large"])
def test_coincident_rows_merge_to_the_distinct_segments(n, M, repeats, rows, segments):
    # the trains at neighbouring shifts share segments, and a fiber's fifth
    # row runs back along the second row of the fiber half a period later
    env = right_envelope(build_cable((0.0, 0.0), LatticeSpec(n=n), M=M, repeats=repeats))
    first, _ = density._distinct(env)
    assert (env.rows, len(first)) == (rows, segments)


def test_ring_rows_merge_to_the_distinct_segments_of_each_frame():
    # the ring-modes eigen run counts one cable in two frames: 3,040 rows and
    # 860 distinct segments in each, and nothing merges across frames
    _, env, _ = _ring_modes_pass()
    first, _ = density._distinct(env)
    counted_frames = np.unique(env.frame_idx)  # the bridge's frame holds no counted row
    assert len(counted_frames) == 2
    for frame in counted_frames:
        assert (env.frame_idx == frame).sum() == 3040
        assert (env.frame_idx[first] == frame).sum() == 860


def _coincident(env, rng, frames, weights=5):
    """``env``'s rows in every frame of ``frames``, with random weights from 1
    to ``weights``; then some rows again and some rows reversed (end points
    swapped: the same segment run the other way), all in a shuffled order."""
    rows = env.rows
    fi = np.repeat(np.arange(len(frames)), rows)
    pick = np.tile(np.arange(rows), len(frames))
    extra = rng.integers(0, len(pick), size=int(rng.integers(0, len(pick) + 1)))
    pick, fi = np.concatenate([pick, pick[extra]]), np.concatenate([fi, fi[extra]])
    flip = rng.random(len(pick)) < 0.4
    order = rng.permutation(len(pick))
    pick, fi, flip = pick[order], fi[order], flip[order]
    x1, t1, x2, t2 = env.x1[pick], env.t1[pick], env.x2[pick], env.t2[pick]
    return SegmentArray(env.lattice, np.where(flip, x2, x1), np.where(flip, t2, t1),
                        np.where(flip, x1, x2), np.where(flip, t1, t2),
                        np.ones(len(pick), dtype=bool), fi, frames,
                        weight=rng.integers(1, weights + 1, len(pick)))


_frames = st.builds(Frame, t_scale=st.floats(0.3, 3.0), drift=st.floats(-0.9, 0.9),
                    x0=st.floats(-5.0, 5.0), t0=st.floats(-5.0, 5.0))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["fiber", "cord", "cable"]), n=st.sampled_from([2, 4, 6, 10]),
       M=st.integers(1, 12), repeats=st.integers(1, 3), frames=st.lists(_frames, min_size=1,
                                                                         max_size=3),
       seed=st.integers(0, 2 ** 32 - 1), wrap_x=st.booleans(), clip=st.booleans())
def test_merged_counting_equals_the_unmerged_expansion(kind, n, M, repeats, frames, seed, wrap_x,
                                                       clip):
    # accumulate counts each distinct segment once; the oracle expands every
    # stored row as it is stored, duplicates and reversed copies included
    lattice = LatticeSpec(n=n)
    if kind == "fiber":
        path = build_fiber((0.0, 0.0), lattice)
    elif kind == "cord":
        path = build_cord((0.0, 0.0), lattice, repeats=repeats)
    else:
        path = build_cable((0.0, 0.0), lattice, M=M, repeats=repeats)
    rng = np.random.default_rng(seed)
    env = _coincident(right_envelope(path), rng, tuple(frames))
    bounds = field_for_segments(env, pad=1)
    x_cells = max(2, bounds.x_cells // 3) if wrap_x else bounds.x_cells
    whole = DensityField(bounds.cell, bounds.t0_cell, bounds.x0_cell, bounds.t_cells, x_cells,
                         wrap_x=wrap_x)
    # a window inside the field: clipped, or naming the first escaping row
    t_lo = int(rng.integers(0, whole.t_cells))
    cut = DensityField(whole.cell, whole.t0_cell + t_lo, whole.x0_cell,
                       int(rng.integers(1, whole.t_cells - t_lo + 1)), x_cells, wrap_x=wrap_x)
    for field in (whole, cut):
        filled = _filled(field, seed=seed % 1000)
        k, j, _ = _incidences(env, field.cell)
        col = np.mod(j - field.x0_cell, x_cells) if wrap_x else j - field.x0_cell
        escapes = ((k < field.t0_cell) | (k >= field.t0_cell + field.t_cells) | (col < 0)
                   | (col >= x_cells)).any()
        if escapes and not clip:
            message, _ = _first_escape_message(env, field)
            assert _raises_and_leaves_unchanged(filled, env, ValueError) == message
            continue
        counted, oracle = accumulate(filled.copy(), env, clip=clip), expand_then_mask(filled, env)
        assert np.array_equal(counted.adolescent, oracle.adolescent)
        assert np.array_equal(counted.senescent, oracle.senescent)


def _weighted_case(kind, n, M, frames, weights, seed, filled, wrap_x, clip):
    """A fiber, cord or cable's counted rows in every frame of ``frames``,
    with random weights up to ``weights``, repeated and reversed
    (``_coincident``), and a field that holds every incidence or, with
    ``clip``, a random t window of it, holding random counts if ``filled``."""
    lattice = LatticeSpec(n=n)
    if kind == "fiber":
        path = build_fiber((0.0, 0.0), lattice)
    elif kind == "cord":
        path = build_cord((0.0, 0.0), lattice)
    else:
        path = build_cable((0.0, 0.0), lattice, M=M)
    rng = np.random.default_rng(seed)
    env = _coincident(right_envelope(path), rng, tuple(frames), weights=weights)
    bounds = field_for_segments(env, pad=1)
    x_cells = max(2, bounds.x_cells // 3) if wrap_x else bounds.x_cells
    t_lo, t_cells = 0, bounds.t_cells
    if clip:  # a window inside the field, whatever escapes it dropped
        t_lo = int(rng.integers(0, bounds.t_cells))
        t_cells = int(rng.integers(1, bounds.t_cells - t_lo + 1))
    field = DensityField(bounds.cell, bounds.t0_cell + t_lo, bounds.x0_cell, t_cells, x_cells,
                         wrap_x=wrap_x)
    return env, _filled(field, seed=seed % 1000) if filled else field


_weighted_cases = dict(kind=st.sampled_from(["fiber", "cord", "cable"]),
                       n=st.sampled_from([2, 4, 6, 10]), M=st.integers(1, 12),
                       frames=st.lists(_frames, min_size=1, max_size=3),
                       weights=st.integers(1, 2 ** 20), seed=st.integers(0, 2 ** 32 - 1),
                       filled=st.booleans(), wrap_x=st.booleans(), clip=st.booleans())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(**_weighted_cases)
def test_a_pass_stores_counts_in_the_narrowest_type_of_its_channel_sign_bound(
        kind, n, M, frames, weights, seed, filled, wrap_x, clip):
    # both species and both time directions in several frames; the store is
    # sized by the per-(channel, sign, t) bound, which no count passes
    env, field = _weighted_case(kind, n, M, frames, weights, seed, filled, wrap_x, clip)
    bound = channel_sign_bound(field, env)
    oracle = expand_then_mask(field, env)
    accumulate(field, env, clip=clip)
    assert field.counts.dtype == _narrowest(bound)
    assert np.abs(oracle.counts).max() <= bound
    assert np.array_equal(field.counts, oracle.counts)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(**_weighted_cases, offset=st.integers(-2, 2))
def test_a_pass_raises_exactly_when_the_channel_sign_bound_reaches_the_limit(
        kind, n, M, frames, weights, seed, filled, wrap_x, clip, offset):
    # the limit is set around the oracle's bound: a pass at or past it is
    # refused and leaves the store as it was, counts and type; below it, it
    # counts what the unmerged expansion counts
    env, field = _weighted_case(kind, n, M, frames, weights, seed, filled, wrap_x, clip)
    bound = channel_sign_bound(field, env)
    limit = max(1, bound + offset)
    with mock.patch.object(density, "_EXACT_LIMIT", limit):
        if bound >= limit:
            kept = field.counts.copy()
            with pytest.raises(OverflowError, match=f"^counts can reach {bound}, "):
                accumulate(field, env, clip=clip)
            assert field.counts.dtype == kept.dtype and np.array_equal(field.counts, kept)
        else:
            oracle = expand_then_mask(field, env)
            accumulate(field, env, clip=clip)
            assert np.array_equal(field.counts, oracle.counts)


def _reversed_pairs(weights, backward=0):
    """One lightlike row stored once per weight, forward in t, except the last
    ``backward`` rows, which run it backward."""
    rows = len(weights)
    forward = rows - backward
    return SegmentArray(LatticeSpec(n=10), [0] * forward + [1] * backward,
                        [0] * forward + [1] * backward, [1] * forward + [0] * backward,
                        [1] * forward + [0] * backward, [1] * rows, [0] * rows, (Frame(),),
                        weight=weights)


@pytest.mark.parametrize("weight", [2 ** 52, 2 ** 62])
def test_cancelling_rows_count_only_their_net_weight(weight):
    # one segment run forward and back, the same weight each way: the net
    # weight is 0, so the pass is accepted, adds nothing and keeps the store
    env = _reversed_pairs([weight] * 2, backward=1)
    first, net = density._distinct(env)
    assert (first.tolist(), net.tolist()) == ([0], [0])
    filled = _filled(field_for_segments(env, pad=1))
    counted = accumulate(filled.copy(), env)
    assert counted.counts.dtype == np.int8
    assert np.array_equal(counted.counts, filled.counts)


def test_net_weights_past_int64_are_refused_not_wrapped():
    # 2**62 four times the same way nets 2**64, which int64 would wrap to 0;
    # one way and back in pairs it nets 0 exactly
    env = _reversed_pairs([2 ** 62] * 4)
    with pytest.raises(OverflowError, match="^the net weight of a segment passes int64$"):
        density._distinct(env)
    _raises_and_leaves_unchanged(field_for_segments(env, pad=1), env, OverflowError)
    assert density._distinct(_reversed_pairs([2 ** 62] * 4, backward=2))[1].tolist() == [0]
    # the nets at either end of int64 are exact, and their counts refused at the bound
    for weights, backward, net in (([2 ** 62, 2 ** 62 - 1], 0, 2 ** 63 - 1),
                                   ([2 ** 62] * 2, 2, -2 ** 63)):
        env = _reversed_pairs(weights, backward)
        assert density._distinct(env)[1].tolist() == [net]
        message = _raises_and_leaves_unchanged(field_for_segments(env, pad=1), env, OverflowError)
        assert message.startswith(f"counts can reach {abs(net)}, ")
    with pytest.raises(OverflowError, match="passes int64"):
        density._distinct(_reversed_pairs([2 ** 62] * 2 + [1], backward=3))


def test_row_mapped_to_one_time_counts_in_the_one_slab_it_sits_in():
    # a frame of t_scale 0 maps the row to t = 0.4, a cell edge: the row
    # still covers one slab, also under a window
    lat = LatticeSpec(n=10)
    segs = SegmentArray(lat, [0], [0], [2], [2], [1], [0], (Frame(t_scale=0.0, x0=0.5, t0=0.4),))
    for window, cells in ((None, [2]), ((2, 3), [2]), ((0, 2), []), ((3, 9), [])):
        k, j, idx = _incidences(segs, lat.eps, window)
        assert k.tolist() == cells and idx.tolist() == [0] * len(cells)


def test_float_binning_slope_survives_int32_differences():
    # the slope comes from float end points; x2 - x1 = t2 - t1 = 4e9
    # half-cell units would not fit int32, and an int32 difference, were one
    # taken again, would wrap, flip the slope and send a right-moving segment left
    lat = LatticeSpec(n=10)
    segs = SegmentArray(lat, [-2e9], [-2e9], [2e9], [2e9], [1], [0], (Frame(x0=0.5),))
    k, j, idx = _incidences(segs, cell=lat.eps * 1e8)
    assert np.array_equal(k, np.arange(-10, 10))
    assert np.array_equal(j, k)  # x cells rise with t


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
                        segs.t2.astype(np.int64) + ot, segs.envelope, segs.frame_idx,
                        segs.frames, segs.weight, segs.runs)


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


def _framed_cases():
    """(envelope, cell, window) of retuned and sheared rows: a v=0.25 ray,
    and the ring's two-frame pair counted whole and in ``run_ring``'s
    window."""
    lattice = LatticeSpec(n=10)
    ray = RaySpec.from_velocity(0.25, lattice.mass, (2 * math.pi, 4 * math.pi))
    yield pytest.param(right_envelope(fresh_ray(ray, lattice, M=6)), lattice.cell_physical, None,
                       id="ray")
    lattice = LatticeSpec(n=8)
    spec = RingSpec(circumference=4.0 * math.pi, mode=1, cycles=1)
    path = ring._pair_path(spec, lattice, M=8)
    cell = lattice.cell_physical
    yield pytest.param(right_envelope(path), cell, None, id="ring")
    field = ring.plan_ring(spec, lattice, M=8)[-1].field
    window = (field.t0_cell, field.t0_cell + field.t_cells)
    yield pytest.param(right_envelope(path), cell, window, id="ring-windowed")


@pytest.mark.parametrize("env, cell, window", _framed_cases())
def test_framed_expansion_matches_the_exact_oracle(env, cell, window):
    want = incidences_exact(env, cell, window)
    assert len(want[0]) > 1000
    for got, expected in zip(_incidences(env, cell, window), want):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


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


def test_sinusoid_reference_is_fitted_not_evaluated():
    # compare fits a sinusoid's amplitude, period and phase; none is a field to set
    with pytest.raises(ValueError, match="fitted by compare"):
        reference_eval(ReferenceDensity("sinusoid"), np.linspace(0.0, 4.0, 9))
    for name in ("amplitude", "period", "phase"):
        with pytest.raises(TypeError, match=name):
            ReferenceDensity("sinusoid", **{name: 1.0})


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


def noisy_sinusoids(count, seed, max_periods=20.0):
    """Seeded (times, values, omega) of a*sin(omega t + phase) + offset +
    noise: N from 8 to 2000, 1 to max_periods periods in the window (at
    least 4 samples a period) and noise up to 5 % of the amplitude, as in
    the fan and carrier profiles (rel_rms 0.6-4 %)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(8, 2001))
        dt = rng.uniform(0.05, 2.0)
        times = (np.arange(n) + rng.uniform(0.0, 1.0)) * dt + rng.uniform(-50.0, 50.0)
        omega = 2.0 * np.pi * rng.uniform(1.0, min(max_periods, n / 4)) / (n * dt)
        amplitude = rng.uniform(0.1, 100.0)
        values = (amplitude * np.sin(omega * times + rng.uniform(-np.pi, np.pi))
                  + rng.uniform(-2.0, 2.0) * amplitude
                  + rng.uniform(0.0, 0.05) * amplitude * rng.standard_normal(n))
        yield times, values, omega


def noisy_sweep():
    return [(times, values) for times, values, _ in noisy_sinusoids(40, seed=2024)]


def fan_profiles(n=20, M=20, n_periods=4.0):
    """(times, values) of every ray fit of an 11-ray fan over v in +-0.25:
    by default the n=20 calibration fan; n=50, M=60 over 6 periods is the
    ray-fan benchmark's and acceptance 6's."""
    lattice = LatticeSpec.for_mass(n, mass=1.0)
    fan = tuple(float(v) for v in np.linspace(-0.25, 0.25, 11))
    region = region_for_fan(lattice, fan, start_periods=2.0, n_periods=n_periods)
    seen = []

    def record(times, values):
        seen.append((np.array(times), np.array(values)))
        return fit_sinusoid(times, values)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagator, "fit_sinusoid", record)
        write_region(region, M=M)
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


FIT_INPUTS = {"noisy-sweep": noisy_sweep, "fan-n20": fan_profiles,
              "carrier-n10": lambda: carrier_profiles(20)}


@pytest.mark.parametrize("inputs", FIT_INPUTS.values(), ids=FIT_INPUTS.keys())
def test_fit_sinusoid_matches_the_lstsq_fit(inputs):
    """The normal-equation fit against the least-squares fit solved exactly
    at every trial (``exact_residual``: sums by ``math.fsum``, the 3x3
    system in Fractions), with the same bracket and search.  Worst
    deviations measured (omega, amplitude, rms relative; offset over
    amplitude): the 40 draws here 3.4e-10, 1.0e-10, 5.5e-14, 1.9e-10; fan
    3.1e-10, 8.1e-11, 5.6e-15, 1.8e-10; carrier 5.9e-10, 9.4e-11, 4.8e-15,
    1.6e-10.  In 2000 draws of the sweep's distribution (seeds 1 and 2)
    three omegas deviated by more than 1e-9, the worst by 5.3e-9 at N=10,
    each as good a minimiser of the exact objective to its rounding.  The
    spread is which trial wins in the flat bottom of the objective, where
    rounding decides; the exact fit moves as far when its times change by
    one ulp."""
    for times, values in inputs():
        new, old = fit_sinusoid(times, values), fit_sinusoid_oracle(times, values)
        assert new.omega == pytest.approx(old.omega, rel=1e-9, abs=0)
        assert new.amplitude == pytest.approx(old.amplitude, rel=1e-9, abs=0)
        assert new.rms_residual == pytest.approx(old.rms_residual, rel=1e-9, abs=0)
        assert new.offset == pytest.approx(old.offset, rel=0, abs=1e-9 * old.amplitude)


@pytest.mark.parametrize("inputs", [*FIT_INPUTS.values(), lambda: fan_profiles(50, 60, 6.0)],
                         ids=[*FIT_INPUTS.keys(), "fan-n50"])
def test_fit_sinusoid_fits_at_least_as_well_as_the_golden_search(inputs):
    """The one-bin Brent search against the 90-step golden section over
    0.6-1.6 times the FFT peak that it replaced: its rms is never higher,
    to the objective's own rounding (each residual carries eps * max|values|)."""
    for times, values in inputs():
        rounding = 4 * np.finfo(float).eps * np.max(np.abs(values))
        assert fit_sinusoid(times, values).rms_residual <= (
            fit_sinusoid_golden(times, values).rms_residual + rounding)


def test_fit_sinusoid_finds_the_frequency_of_many_periods():
    """With 30 or more periods in the window the objective has side minima
    within 0.6-1.6 times the FFT peak, and the golden section settled in one
    on 128 and 139 of two sets of 1,000 such draws (worst omega 36 % off);
    the one-bin bracket holds only the true minimum.  Here the golden section misses 33 of the
    200 draws (worst 37 % off) and the fit none (worst 0.37 %)."""
    for times, values, omega in noisy_sinusoids(200, seed=16, max_periods=math.inf):
        assert fit_sinusoid(times, values).omega == pytest.approx(omega, rel=0.01)


def test_fit_sinusoid_stops_in_the_lstsq_minimum_where_it_is_flat():
    """The noisy n=10, M=5 carrier (rel_rms 9 %, 1.3 periods) has an objective
    so flat that the fit and the exactly solved one (``exact_residual``)
    stop 1.0e-9 apart in omega; the exact fit itself moves up to 2.7e-9
    when its times change by one ulp.  The fit's omega is as good a
    minimiser of the exact objective as the exact fit's, to the objective's
    own rounding (each residual carries eps * max|values|)."""
    for times, values in carrier_profiles(5):
        new, old = fit_sinusoid(times, values), fit_sinusoid_oracle(times, values)
        assert new.omega == pytest.approx(old.omega, rel=1e-8, abs=0)
        assert new.rms_residual == pytest.approx(old.rms_residual, rel=1e-9, abs=0)
        rounding = 4 * np.finfo(float).eps * np.max(np.abs(values))
        exact_rms = exact_residual(times, values)
        assert exact_rms(new.omega)[0] <= exact_rms(old.omega)[0] + rounding


def test_fit_sinusoid_is_repeatable_and_solves_each_trial_once(monkeypatch):
    """On the n=20 and the n=50 fan the search stops at its relative
    tolerance, well inside its cap of ``_FIT_TRIALS`` trials (13-19
    measured, 75.5 a fit for the golden section it replaced), and never
    solves one frequency twice: the best trial's solution is the fit."""
    solved = []
    solve = density._fit_at

    def record(times, values):
        at = solve(times, values)

        def recorded(omega):
            solved.append(omega)
            return at(omega)
        return recorded

    profiles = fan_profiles() + fan_profiles(50, 60, 6.0)
    monkeypatch.setattr(density, "_fit_at", record)
    for times, values in profiles:
        solved.clear()
        first = fit_sinusoid(times, values)
        assert len(set(solved)) == len(solved) <= 25 < density._FIT_TRIALS
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


def test_singular_normal_equations_raise():
    """At omega = 2 pi / dt every sample sits at one phase: cos is exactly
    one, the column of the constant."""
    times = np.arange(64) * 0.1
    with pytest.raises(ValueError, match="singular"):
        density._fit_at(times, np.ones_like(times))(2.0 * np.pi / 0.1)


@pytest.mark.parametrize("offset, rel", [(0.0, 1e-12), (0.5, 1e-12), (0.25, 1e-7),
                                         (373.3, 1e-7), (1000.25, 1e-7)])
@pytest.mark.parametrize("n", [8, 64, 600])
def test_fit_sinusoid_fits_a_nyquist_alternating_input(n, offset, rel):
    """5 * (-1)**k sits at the Nyquist frequency, where sin and cos of the
    samples are collinear.  On the lattice points (offset 0) and the cell
    centres (0.5) one of them vanishes and the fit gives amplitude 5 to
    1e-15, as an SVD solve does.  A quarter cell off, both are +-1/sqrt(2)
    and the normal equations keep only about half the digits: amplitude
    5 + 3.4e-8 at most (measured), rms 3.4e-8, where an SVD gives 5 to 1e-15;
    times far from zero (373.3 and 1000.25 cells) keep as many.  The FFT
    bracket's top is capped at the Nyquist frequency: a bracket symmetric
    about it put the first trial on it, where the equations are singular
    (offsets 0.25 and 373.3 raised) or nearly so (amplitude 5.0000024 at
    offset 0, n=600)."""
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


def test_best_lag_scores_large_profiles_exactly():
    # scaled by 10**9, every product passes 2**63, so int64 scores would wrap
    # and pick other lags; exact scores keep the unscaled lag
    rng = np.random.default_rng(12)
    scale = 10 ** 9
    wrapped = 0
    for _ in range(100):
        n = int(rng.integers(2, 80))
        max_lag = int(rng.integers(0, n))
        reference = rng.integers(-1000, 1001, size=n)
        delayed = rng.integers(-1000, 1001, size=n + int(rng.integers(0, 3)))
        lag = best_lag(reference, delayed, max_lag)
        big = reference * scale, delayed * scale
        assert best_lag(*big, max_lag) == lag == best_lag_loop(*big, max_lag)
        window = n - max_lag
        scores = sliding_window_view(big[1][:n], window) @ big[0][:window]  # int64: wraps
        wrapped += int(np.argmax(scores)) != lag
    assert wrapped > 50


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
    # the table of every value from min to max, and each block's own values
    pytest.param(np.arange(-5, 7, dtype=np.int64).reshape(3, 4), id="range-size-minus-1"),
    pytest.param(np.append(np.arange(-5, 6), 7).reshape(3, 4), id="range-equals-size"),
    pytest.param(_I64.max - np.arange(12).reshape(3, 4) % 4, id="table-near-int64-max"),
    pytest.param(_I64.min + np.arange(12).reshape(3, 4) % 4, id="table-near-int64-min"),
    # row blocks: a row wider than a block, a row count no multiple of the
    # block, one column over several blocks, a large all-zero field
    pytest.param(_random_matrix((3, density._FORMAT_BLOCK + 5), 14, seed=1), id="row-over-a-block"),
    pytest.param(_random_matrix((1000, 160), 14, seed=2), id="rows-past-whole-blocks"),
    pytest.param(_random_matrix((2 * density._FORMAT_BLOCK + 3, 1), 99, seed=3), id="long-column"),
    pytest.param(np.zeros((1000, 500), dtype=np.int64), id="zeros-1000x500"),
])
def test_format_matrix_matches_savetxt(matrix):
    assert b"".join(_format_matrix(matrix)) == savetxt_bytes(matrix)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rows=st.integers(1, 30), cols=st.integers(1, 30), block=st.integers(1, 40),
       lo=st.integers(_I64.min, _I64.max),
       span=st.one_of(st.integers(0, 40), st.integers(0, 2 ** 64 - 1)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_format_matrix_matches_savetxt_across_small_blocks(rows, cols, block, lo, span, seed):
    # spans below and above the cell count take both table sources; a small
    # block puts many block boundaries inside and between rows
    hi = min(lo + span, _I64.max)
    matrix = np.random.default_rng(seed).integers(lo, hi, size=(rows, cols), dtype=np.int64,
                                                  endpoint=True)
    with mock.patch.object(density, "_FORMAT_BLOCK", block):
        assert b"".join(_format_matrix(matrix)) == savetxt_bytes(matrix)


@pytest.mark.parametrize("dtype, lo, hi", [(np.int8, -128, 127), (np.int16, -30000, 30000)])
def test_format_matrix_indexes_a_narrow_store_in_int64(dtype, lo, hi):
    # more cells than values, so every cell indexes the shared table by
    # value - min, which wraps in the store's own type
    matrix = np.random.default_rng(6).integers(lo, hi, size=(400, 200), dtype=dtype,
                                               endpoint=True)
    matrix[0, 0], matrix[-1, -1] = lo, hi
    assert hi - lo < matrix.size
    assert b"".join(_format_matrix(matrix)) == savetxt_bytes(matrix.astype(np.int64))


@pytest.mark.parametrize("matrix,formatted", [
    (np.arange(-5, 7, dtype=np.int64).reshape(3, 4), [12]),  # the table -5..6, once
    (np.append(np.arange(-5, 6), 7).reshape(3, 4), [12]),  # its own 12 cells: range 12
    (_random_matrix((2, density._FORMAT_BLOCK), 0, seed=5),  # each block its own cells
     [density._FORMAT_BLOCK] * 2),
    (np.zeros((1000, 500), dtype=np.int64), [1]),
    (_random_matrix((1000, 160), 14, seed=2), [29]),
])
def test_format_matrix_formats_each_distinct_value_once(matrix, formatted):
    sizes = []
    tokens = density._tokens
    with mock.patch.object(density, "_tokens", lambda v: sizes.append(v.size) or tokens(v)):
        b"".join(_format_matrix(matrix))
    assert sizes == formatted


def test_format_memory_is_the_table_and_one_block():
    # a whole-matrix index alone would take 8 bytes a cell, and the whole
    # text 3 bytes a cell; blocks consumed one at a time hold neither
    matrix = _random_matrix((4000, 500), 14, seed=4)
    tab, newline = density._tokens(np.arange(-14, 15))
    tracemalloc.start()
    try:
        first = last = None
        for block in _format_matrix(matrix):
            first, last = first or block, block
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for block, rows in ((first, matrix[:first.count(b"\n")]),
                        (last, matrix[len(matrix) - last.count(b"\n"):])):
        assert block == savetxt_bytes(rows)
    # a block's index, words and text take under 32 bytes a cell
    assert peak < 32 * density._FORMAT_BLOCK + tab.nbytes + newline.nbytes
    assert peak < 4 * matrix.size


def test_export_field_writes_each_channel_in_row_blocks(tmp_path):
    # 1000 x 40 cells a channel, three formatter blocks: ``write`` is handed
    # each block as it is formatted, and the default writer joins them
    field = DensityField(0.5, -3, 7, 1000, 40)
    field.counts = np.random.default_rng(8).integers(-300, 300, field.counts.shape,
                                                     dtype=np.int16)
    chunks = {}
    export_field(field, tmp_path / "recorded", "f",
                 write=lambda path, parts: chunks.setdefault(path.name, list(parts)))
    written = export_field(field, tmp_path / "written", "f")
    assert sorted(chunks) == sorted(path.name for path in written)
    for name in CHANNELS:
        parts = chunks[f"f.{name}.tsv"]
        assert len(parts) == 3 and all(isinstance(part, bytes) for part in parts)
        body = (tmp_path / "written" / f"f.{name}.tsv").read_bytes()
        assert body == b"".join(parts) == savetxt_bytes(field.channel(name))
    meta, = chunks["f.meta.json"]
    assert (tmp_path / "written" / "f.meta.json").read_bytes() == meta
