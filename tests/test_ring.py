import math
from fractions import Fraction

import numpy as np
import pytest

from entwined.density import DensityField
from entwined.lattice import LatticeSpec, SpecError
from entwined.lattice import PERIOD
from entwined.ring import (RingSpec, drift_in_cells_per_period, eigen_speed, plan_ring, ring_clock,
                           run_ring, standing_wave_metrics)


@pytest.fixture(scope="module")
def lattice():
    return LatticeSpec(n=20)  # default mass_scale: mass = 1


@pytest.fixture(scope="module")
def circumference():
    return 8.0 * math.pi


def run_metrics(lattice, spec, M=30):
    field = run_ring(spec, lattice, M=M)
    v = spec.resolved_speed(lattice.mass)
    t_scale = lattice.mass_scale / (v * v)
    period_cells = 4.0 * t_scale / lattice.cell_physical
    wrap_cells = (spec.circumference / v) / lattice.cell_physical
    metrics = standing_wave_metrics(field, slice_cells=int(round(wrap_cells)),
                                    period_cells=period_cells)
    return field, metrics


# --- eigen speeds ----------------------------------------------------------


def test_eigen_speed_direct_arithmetic():
    # k=1 with m*L = 4*pi gives v = 0.5
    assert eigen_speed(1, 1.0, 4.0 * math.pi) == pytest.approx(0.5)


def test_eigen_speed_linear_in_mode():
    v1 = eigen_speed(1, 1.0, 16.0 * math.pi)
    v2 = eigen_speed(2, 1.0, 16.0 * math.pi)
    assert v2 == pytest.approx(2.0 * v1)


def test_eigen_speed_is_energy_square_root():
    # sqrt(2 E_k / m) with E_k = (2 pi k)^2 / (2 m L^2)
    for k in (1, 2, 3):
        for m, L in ((1.0, 30.0), (2.0, 40.0)):
            energy = (2.0 * math.pi * k) ** 2 / (2.0 * m * L * L)
            assert eigen_speed(k, m, L) == pytest.approx(math.sqrt(2.0 * energy / m))


def test_eigen_speed_relativistic_rejected():
    with pytest.raises(ValueError, match="relativistic eigen speed"):
        eigen_speed(3, 1.0, 4.0 * math.pi)
    with pytest.raises(ValueError):
        eigen_speed(0, 1.0, 10.0)


def test_ring_spec_validation():
    with pytest.raises(ValueError):
        RingSpec(circumference=0.0)
    with pytest.raises(ValueError):
        RingSpec(circumference=10.0, mode=0)
    with pytest.raises(ValueError):
        RingSpec(circumference=10.0, speed=1.2)
    with pytest.raises(ValueError):
        RingSpec(circumference=10.0, cycles=0)


# --- standing waves --------------------------------------------------------


def test_eigen_run_shows_requested_mode(lattice, circumference, calibration):
    for k in (1, 2):
        spec = RingSpec(circumference=circumference, mode=k, cycles=8)
        field, metrics = run_metrics(lattice, spec)
        assert metrics.dominant_mode == k
        drift = drift_in_cells_per_period(metrics, field.x_cells)
        assert drift < calibration["ring_eigen_drift_cells_per_period"]


def test_eigen_mode_nodes_stand_still(lattice, circumference):
    # an eigenpath's standing wave does not move; a residual drift means
    # slab edges within an ulp of a cell edge were misbinned
    field, metrics = run_metrics(lattice, RingSpec(circumference=circumference, mode=1, cycles=8))
    assert metrics.dominant_mode == 1
    assert drift_in_cells_per_period(metrics, field.x_cells) < 1e-9


def test_one_wavelength_spans_the_ring_for_first_mode(lattice, circumference):
    spec = RingSpec(circumference=circumference, mode=1, cycles=8)
    field, metrics = run_metrics(lattice, spec)
    assert metrics.dominant_mode == 1  # one full wavelength across L
    assert metrics.mode_purity > 0.5


def test_off_eigen_phase_drifts(lattice, circumference, calibration):
    v1 = eigen_speed(1, lattice.mass, circumference)
    eigen = RingSpec(circumference=circumference, mode=1, cycles=8)
    off = RingSpec(circumference=circumference, mode=1, speed=1.5 * v1, cycles=8)
    field_e, metrics_e = run_metrics(lattice, eigen)
    field_o, metrics_o = run_metrics(lattice, off)
    drift_e = drift_in_cells_per_period(metrics_e, field_e.x_cells)
    drift_o = drift_in_cells_per_period(metrics_o, field_o.x_cells)
    assert drift_e < calibration["ring_eigen_drift_cells_per_period"]
    assert drift_o >= 10.0 * max(drift_e, 1e-12)


def test_rotation_of_write_origin_only_rolls_the_field(lattice, circumference):
    spec = RingSpec(circumference=circumference, mode=1, cycles=4)
    base = run_ring(spec, lattice, M=10)
    rolled = run_ring(spec, lattice, M=10, origin_cell=7)
    assert np.array_equal(rolled.adolescent, np.roll(base.adolescent, 7, axis=1))
    assert np.array_equal(rolled.senescent, np.roll(base.senescent, 7, axis=1))
    assert rolled.adolescent.sum() == base.adolescent.sum()


@pytest.mark.parametrize("origin_cell", [1, -3, 165])
def test_write_origin_rolls_both_channels_of_the_store(lattice, circumference, origin_cell):
    spec = RingSpec(circumference=circumference, mode=1, cycles=4)
    base = run_ring(spec, lattice, M=10)
    rolled = run_ring(spec, lattice, M=10, origin_cell=origin_cell)
    shift = origin_cell % base.x_cells
    assert shift
    for i in range(2):  # a channel no roll leaves as it is
        assert not np.array_equal(np.roll(base.counts[i], shift, axis=1), base.counts[i])
    assert np.array_equal(rolled.counts, np.roll(base.counts, shift, axis=2))
    assert np.shares_memory(rolled.adolescent, rolled.counts)
    assert np.shares_memory(rolled.senescent, rolled.counts)


def test_zero_speed_writes_uniform_columns(lattice, circumference):
    spec = RingSpec(circumference=circumference, mode=1, speed=0.0, cycles=4)
    field = run_ring(spec, lattice, M=10)
    occupied = np.nonzero(field.adolescent.any(axis=0))[0]
    # both world lines sit on the origin column; loops wiggle one unit wide
    assert len(occupied) <= 2 * lattice.n
    metrics = standing_wave_metrics(field)
    assert metrics.dominant_mode == 0
    assert metrics.phase_drift == 0.0
    assert math.isnan(metrics.mode_purity)


def test_ring_requires_whole_number_of_cells(lattice):
    spec = RingSpec(circumference=10.0, mode=1)
    with pytest.raises(ValueError, match="whole number of cells"):
        run_ring(spec, lattice, M=5)


@pytest.mark.parametrize("speed", [None, 0.3, 0.0])
def test_ring_clock_sets_the_written_extent(lattice, circumference, speed):
    spec = RingSpec(circumference=circumference, mode=1, speed=speed, cycles=3)
    v, t_scale, wrap_time = ring_clock(spec, lattice)
    assert v == spec.resolved_speed(lattice.mass)
    if v > 0:
        assert (t_scale, wrap_time) == (lattice.mass_scale / (v * v), circumference / v)
    else:
        assert (t_scale, wrap_time) == (lattice.mass_scale, None)
    field = run_ring(spec, lattice, M=4)
    assert field.t_cells == round(spec.cycles * PERIOD * t_scale / lattice.cell_physical)
    planned = plan_ring(spec, lattice, M=4)
    assert planned[0] == v and planned[-1].field.t_cells == field.t_cells
    assert planned[2] == PERIOD * t_scale / lattice.cell_physical  # the rows of one period
    if v == 0:
        assert planned[1] == field.t_cells  # a still ring is read as one slice


def test_speed_factor_scales_the_eigen_speed_and_owns_its_rules(lattice, circumference):
    eigen = eigen_speed(1, lattice.mass, circumference)
    scaled = RingSpec(circumference=circumference, speed_factor=1.5)
    assert scaled.resolved_speed(lattice.mass) == 1.5 * eigen
    assert RingSpec(circumference=circumference, speed=0.3, speed_factor=1.0).resolved_speed(1.0) == 0.3
    for factor, speed, problem in ((0.0, None, "must be positive"), (-1.0, 0.3, "must be positive"),
                                   (1.5, 0.3, "cannot be combined with ring.speed")):
        with pytest.raises(SpecError) as exc:
            RingSpec(circumference=circumference, speed=speed, speed_factor=factor)
        assert exc.value.problems == [f"speed_factor: {problem}"]
    with pytest.raises(SpecError, match=r"^speed_factor: superluminal drift; scaled eigen speed 2\.0 "):
        RingSpec(circumference=circumference, speed_factor=8.0).resolved_speed(lattice.mass)  # 8 * 0.25


@pytest.mark.parametrize("mode, cycles, factor",
                         [(1, 1, 1.0), (3, 1, 1.0), (1, 1, 1.5), (1, 2, 1.5)])
def test_one_wrap_must_fit_in_the_written_rows(lattice, circumference, mode, cycles, factor):
    # at an eigen speed one wrap lasts `mode` carrier periods, and a speed
    # factor stretches it by that factor: (3, 1) and (1, 1, 1.5) do not fit
    v = factor * eigen_speed(mode, lattice.mass, circumference)
    spec = RingSpec(circumference=circumference, mode=mode, speed=v, cycles=cycles)
    wrap = round(circumference / v / lattice.cell_physical)
    rows = round(cycles * PERIOD * lattice.mass_scale / (v * v) / lattice.cell_physical)
    if wrap <= rows:
        assert plan_ring(spec, lattice, M=1)[1] == wrap
    else:
        with pytest.raises(SpecError, match=f"^cycles: one wrap spans {wrap} cells, more than "
                                            f"the {rows} cells written \\(cycles = {cycles}\\)$"):
            plan_ring(spec, lattice, M=1)
    longer = RingSpec(circumference=circumference, mode=mode, speed=v, cycles=cycles + 2)
    assert plan_ring(longer, lattice, M=1)[1] == wrap  # two more periods always hold it


def test_metrics_reject_empty_field():
    field = DensityField(0.1, 0, 0, 8, 8)
    with pytest.raises(ValueError, match="all-zero"):
        standing_wave_metrics(field)


@pytest.mark.parametrize("slice_cells", [1, 3])
def test_metrics_refuse_slice_sums_that_could_reach_2_53(slice_cells):
    # a slice sum that reaches 2**53, whatever its sign, is refused: it would
    # not be exact as float64.  The rule reads the sums themselves, not
    # slice_cells times the largest |count|: counts that cancel in their
    # slice are read, and only a count whose slice could pass int64 is refused
    field = DensityField(0.1, 0, 0, 6, 8)
    field.counts = field.counts.astype(np.int64)
    wave = np.where(np.arange(8) % 4 < 2, 1, -1)
    rest = slice_cells - 1  # the first slice's other rows add 1 each to column 0
    for sign in (1, -1):
        field.adolescent[:] = wave
        field.adolescent[0, 0] = sign * 2 ** 53 - rest
        with pytest.raises(OverflowError, match=f"^slice sums reach {2 ** 53}, "):
            standing_wave_metrics(field, slice_cells=slice_cells)
    field.adolescent[0, 0] = 2 ** 53 - 1 - rest
    assert standing_wave_metrics(field, slice_cells=slice_cells).n_slices == 6 // slice_cells
    if slice_cells > 1:
        field.adolescent[:] = wave
        field.adolescent[0, 0], field.adolescent[1, 0] = 2 ** 60, -2 ** 60
        assert standing_wave_metrics(field, slice_cells=slice_cells).n_slices == 2
        field.adolescent[0, 0] = 2 ** 62
        with pytest.raises(OverflowError, match=f"^slice sums can reach {3 * 2 ** 62}, past int64"):
            standing_wave_metrics(field, slice_cells=slice_cells)


def test_metrics_on_uniform_single_slice_field():
    # degenerate spectrum: everything in the zero mode, drift pinned to 0
    field = DensityField(0.1, 0, 0, 1, 16)
    field.adolescent[:] = 3
    metrics = standing_wave_metrics(field, slice_cells=1)
    assert metrics.dominant_mode == 0
    assert metrics.phase_drift == 0.0
    assert math.isnan(metrics.mode_purity)


def test_phase_drift_is_the_exact_least_squares_slope_of_the_slice_phases():
    """Seeded mode-2 waves whose phase wanders from slice to slice, one slice
    left empty: the drift is the least-squares slope of the live slices'
    unwrapped phases against their indices, solved exactly in Fractions,
    times the period in slices."""
    rng = np.random.default_rng(27)
    slices, x_cells = 24, 32
    field = DensityField(0.1, 0, 0, 2 * slices, x_cells)
    field.counts = field.counts.astype(np.int16)
    x = np.arange(x_cells)
    for k in range(slices):
        phase = -0.35 * k + rng.normal(0.0, 0.2)
        field.adolescent[2 * k:2 * k + 2] = np.rint(100.0 * np.cos(4.0 * np.pi * x / x_cells + phase))
    field.adolescent[10:12] = 0
    metrics = standing_wave_metrics(field, slice_cells=2, period_cells=5.0)
    assert metrics.dominant_mode == 2 and metrics.n_slices == slices

    coef = np.fft.rfft(field.adolescent.reshape(slices, 2, x_cells).sum(axis=1).astype(float), axis=1)[:, 2]
    live = np.abs(coef) > 1e-12
    idx = [Fraction(int(i)) for i in np.nonzero(live)[0]]
    phases = [Fraction(p) for p in np.unwrap(np.angle(coef[live])).tolist()]
    mean_i, mean_p = sum(idx) / len(idx), sum(phases) / len(phases)
    slope = (sum((i - mean_i) * (p - mean_p) for i, p in zip(idx, phases))
             / sum((i - mean_i) ** 2 for i in idx))
    assert len(idx) == slices - 1
    assert metrics.phase_drift == pytest.approx(float(slope * Fraction(5, 2)), rel=1e-13, abs=0)
