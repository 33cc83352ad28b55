import math

import numpy as np
import pytest

from entwined import propagator
from entwined.density import (CHANNELS, DensityField, Region, accumulate, best_lag,
                              field_for_segments, fit_sinusoid, _cell_ceil, _cell_floor)
from entwined.lattice import LatticeSpec
from entwined.paths import build_cable, right_envelope
from entwined.propagator import (RaySpec, RegionSpec, analytic_kernel, ray_repeats,
                                 reduced_frequency, region_for_fan, write_ray, write_region,
                                 _ray_report)


@pytest.fixture(scope="module")
def lattice():
    return LatticeSpec.for_mass(20, mass=1.0)


def fresh_ray(ray, lattice, M):
    """``write_ray`` over a whole cable built for this ray alone."""
    cable = build_cable((0.0, 0.0), lattice, M=M, repeats=ray_repeats(ray, lattice, M))
    return write_ray(ray, cable)


def ray_profile(lattice, ray, M):
    """x-summed profile over the ray's t span: row sums of a field that
    covers the path's whole x extent, so nothing is clipped in x."""
    path = fresh_ray(ray, lattice, M)
    cell = lattice.cell_physical
    t0 = _cell_floor(ray.t_span[0], cell)
    t_cells = _cell_ceil(ray.t_span[1], cell) - t0
    bounds = field_for_segments(path.segs, cell=cell)
    field = DensityField(cell, t0, bounds.x0_cell, t_cells, bounds.x_cells)
    accumulate(field, right_envelope(path), clip=True)
    prof = {name: field.channel(name).sum(axis=1) for name in CHANNELS}
    return prof, field.t_centers()


# --- analytic kernel -------------------------------------------------------


def test_kernel_at_origin_is_pure_carrier():
    for t in (0.5, 2.0, 9.0):
        assert analytic_kernel(0.0, t, 1.3) == pytest.approx(np.exp(-1.3j * t))


def test_kernel_velocity_identity():
    # exp(-i m t (1 - x^2/2t^2)) == exp(-i m t) * exp(i m v^2 t / 2) with v = x/t
    for x, t, m in ((0.3, 2.0, 1.0), (-0.5, 4.0, 0.7), (1.0, 10.0, 2.0)):
        v = x / t
        assert analytic_kernel(x, t, m) == pytest.approx(
            np.exp(-1j * m * t) * np.exp(1j * m * v * v * t / 2.0))


def test_kernel_has_unit_modulus():
    x = np.linspace(-2, 2, 41)
    t = np.full_like(x, 5.0)
    np.testing.assert_allclose(np.abs(analytic_kernel(x, t, 1.0)), 1.0, rtol=1e-12)


def test_kernel_requires_positive_time():
    with pytest.raises(ValueError):
        analytic_kernel(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        analytic_kernel(0.0, -1.0, 1.0)


# --- ray specs -------------------------------------------------------------


def test_ray_spec_validation():
    with pytest.raises(ValueError, match="superluminal"):
        RaySpec(v=1.0, omega=1.0, t_span=(1.0, 2.0))
    with pytest.raises(ValueError):
        RaySpec(v=0.1, omega=1.0, t_span=(0.0, 2.0))
    ray = RaySpec.from_velocity(0.2, 1.0, (1.0, 2.0))
    assert ray.omega == pytest.approx(0.98)


def test_reduced_frequency_values():
    assert reduced_frequency(0.0, 1.0) == 1.0
    assert reduced_frequency(0.2, 1.0) == pytest.approx(0.98)
    assert reduced_frequency(-0.2, 2.0) == pytest.approx(1.96)


def test_region_spec_validation(lattice):
    with pytest.raises(ValueError, match="origin"):
        RegionSpec(x_range=(-1, 1), t_range=(0.0, 2.0), ray_fan=(0.0,), lattice=lattice)
    with pytest.raises(ValueError, match="superluminal"):
        RegionSpec(x_range=(-1, 1), t_range=(1.0, 2.0), ray_fan=(1.2,), lattice=lattice)
    with pytest.raises(ValueError):
        RegionSpec(x_range=(1, -1), t_range=(1.0, 2.0), ray_fan=(0.0,), lattice=lattice)


# --- single rays -----------------------------------------------------------


def test_zero_velocity_ray_oscillates_at_the_carrier(lattice):
    span = (2 * math.pi, 10 * math.pi)
    ray = RaySpec.from_velocity(0.0, lattice.mass, span)
    prof, centers = ray_profile(lattice, ray, M=20)
    fit = fit_sinusoid(centers, prof["adolescent"].astype(float))
    assert abs(fit.omega - lattice.mass) / lattice.mass < 0.01


def test_written_ray_is_one_continuous_path(lattice):
    ray = RaySpec.from_velocity(0.15, lattice.mass, (2 * math.pi, 6 * math.pi))
    path = fresh_ray(ray, lattice, M=8)
    path.validate_continuity()
    assert path.steady_window[0] <= ray.t_span[0]
    assert path.steady_window[1] >= ray.t_span[1]


def test_write_ray_refuses_a_cable_too_short_for_the_span(lattice):
    ray = RaySpec.from_velocity(0.15, lattice.mass, (2 * math.pi, 6 * math.pi))
    repeats = ray_repeats(ray, lattice, M=8)
    short = build_cable((0.0, 0.0), lattice, M=8, repeats=repeats - 1)
    with pytest.raises(ValueError, match=f"{repeats - 1} repeats is too short"):
        write_ray(ray, short)
    # the same cable covers a span one loop period shorter
    shorter = RaySpec(ray.v, ray.omega, (ray.t_span[0], ray.t_span[1] - 2 * math.pi / ray.omega))
    assert ray_repeats(shorter, lattice, M=8) == repeats - 1
    assert write_ray(shorter, short).steady_window[1] >= shorter.t_span[1]


def test_write_ray_refuses_a_framed_path(lattice):
    ray = RaySpec.from_velocity(0.15, lattice.mass, (2 * math.pi, 6 * math.pi))
    with pytest.raises(ValueError, match="unframed cable"):
        write_ray(ray, fresh_ray(ray, lattice, M=8))


def test_drifting_ray_frequency_reduced(lattice):
    span = (2 * math.pi, 12 * math.pi)
    ray = RaySpec.from_velocity(0.2, lattice.mass, span)
    prof, centers = ray_profile(lattice, ray, M=20)
    fit = fit_sinusoid(centers, prof["adolescent"].astype(float))
    assert abs(fit.omega - 0.98 * lattice.mass) / (0.98 * lattice.mass) < 0.01


def test_ray_channels_lag_by_quarter_period(lattice):
    span = (2 * math.pi, 12 * math.pi)
    for v in (0.0, 0.2):
        ray = RaySpec.from_velocity(v, lattice.mass, span)
        prof, _ = ray_profile(lattice, ray, M=20)
        period_cells = 2 * math.pi / ray.omega / lattice.cell_physical
        lag = best_lag(prof["adolescent"], prof["senescent"], int(period_cells / 2) + 2)
        assert abs(lag - period_cells / 4.0) <= 1.0


def test_ray_amplitude_uniform_along_interior(lattice, calibration):
    span = (2 * math.pi, 14 * math.pi)
    ray = RaySpec.from_velocity(0.1, lattice.mass, span)
    prof, centers = ray_profile(lattice, ray, M=40)
    half = len(centers) // 2
    first = fit_sinusoid(centers[:half], prof["adolescent"][:half].astype(float))
    second = fit_sinusoid(centers[half:], prof["adolescent"][half:].astype(float))
    bound = calibration["ray_amplitude_uniformity_bound"]
    assert abs(first.amplitude - second.amplitude) / first.amplitude < bound


# --- regions ---------------------------------------------------------------


def test_single_ray_region_reduces_to_write_ray(lattice):
    region = region_for_fan(lattice, (0.0,), start_periods=2.0, n_periods=4.0)
    result = write_region(region, M=20)
    assert len(result.reports) == 1
    report = result.reports[0]
    ray = RaySpec.from_velocity(0.0, lattice.mass, region.t_range)
    prof, centers = ray_profile(lattice, ray, M=20)
    fit = fit_sinusoid(centers, prof["adolescent"].astype(float))
    # the region's narrow x window loses nothing, so the fits agree exactly
    assert report.omega_fitted == fit.omega
    assert report.amplitude == fit.amplitude


@pytest.mark.parametrize("n, M, fan, start_periods", [
    (10, 20, tuple(float(v) for v in np.linspace(-0.25, 0.25, 11)), 2.0),
    (20, 30, (-0.5, 0.0, 0.3, 0.6), 2.0),
    (20, 12, (-0.5, 0.6), 0.5),
    (10, 5, (-0.9, 0.9), 2.0),
    (10, 5, (-0.9, 0.0, 0.9), 4.5),
    (50, 60, (-0.25, 0.25), 2.0),
])
def test_region_for_fan_never_clips_a_ray_in_x(n, M, fan, start_periods):
    # write_region fits each ray's row sums inside the region's x window;
    # that is the whole x-summed profile only if no incidence lands outside it
    lattice = LatticeSpec.for_mass(n, mass=1.0)
    region = region_for_fan(lattice, fan, start_periods=start_periods, n_periods=3.0)
    cell = lattice.cell_physical
    t0 = _cell_floor(region.t_range[0], cell)
    t_cells = _cell_ceil(region.t_range[1], cell) - t0
    x0 = _cell_floor(region.x_range[0], cell)
    x_cells = _cell_ceil(region.x_range[1], cell) - x0
    margin = 50
    for v in fan:
        ray = RaySpec.from_velocity(v, lattice.mass, region.t_range)
        env = right_envelope(fresh_ray(ray, lattice, M))
        narrow = accumulate(DensityField(cell, t0, x0, t_cells, x_cells), env, clip=True)
        wide = accumulate(DensityField(cell, t0, x0 - margin, t_cells, x_cells + 2 * margin),
                          env, clip=True)
        for name in CHANNELS:
            assert narrow.channel(name).any()
            assert wide.channel(name).sum() == narrow.channel(name).sum()
            block = wide.channel(name)[:, margin:margin + x_cells]
            assert np.array_equal(block, narrow.channel(name))


def full_field_region(region, M):
    """write_region the old way: every ray written from a cable built for it
    alone, counted with no window into a field holding all of it and the
    region, cut to the region afterwards, fitted there, and summed."""
    lattice = region.lattice
    cell = lattice.cell_physical
    t0 = _cell_floor(region.t_range[0], cell)
    t_cells = _cell_ceil(region.t_range[1], cell) - t0
    x0 = _cell_floor(region.x_range[0], cell)
    x_cells = _cell_ceil(region.x_range[1], cell) - x0
    window = Region(t0, t0 + t_cells, x0, x0 + x_cells)
    total = DensityField(cell, t0, x0, t_cells, x_cells)
    reports, clipped_x = [], 0
    for v in region.ray_fan:
        ray = RaySpec.from_velocity(v, lattice.mass, region.t_range)
        env = right_envelope(fresh_ray(ray, lattice, M))
        ext = field_for_segments(env, cell)
        t_lo, x_lo = min(ext.t0_cell, t0), min(ext.x0_cell, x0)
        t_hi = max(ext.t0_cell + ext.t_cells, t0 + t_cells)
        x_hi = max(ext.x0_cell + ext.x_cells, x0 + x_cells)
        whole = accumulate(DensityField(cell, t_lo, x_lo, t_hi - t_lo, x_hi - x_lo), env)
        ts, xs = window.slices(whole)
        sub = DensityField(cell, t0, x0, t_cells, x_cells)
        for name in CHANNELS:
            sub.channel(name)[:] = whole.channel(name)[ts, xs]
            total.channel(name)[:] += sub.channel(name)
            clipped_x += int(np.abs(whole.channel(name)[ts]).sum() - np.abs(sub.channel(name)).sum())
        reports.append(_ray_report(ray, sub))
    return total, tuple(reports), clipped_x


def _outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return repr(exc)


@pytest.mark.parametrize("n, M, region_of, clips_x, repeats", [
    # the acceptance fan
    (50, 60, lambda lat: region_for_fan(lat, tuple(float(v) for v in np.linspace(-0.25, 0.25, 11))),
     False, {8}),
    # the fastest rays' periods stretch most, so they need one repeat fewer:
    # write_region shares two cables, each across the rays of its repeats
    (10, 5, lambda lat: region_for_fan(lat, tuple(float(v) for v in np.linspace(-0.9, 0.9, 7)),
                                       n_periods=3.0), False, {4, 5}),
    # narrower than its rays in x and shorter than them in t
    (20, 12, lambda lat: RegionSpec(x_range=(-3.5, 4.2), t_range=(14.0, 21.0),
                                    ray_fan=(-0.2, 0.0, 0.25), lattice=lat), True, {3}),
], ids=["acceptance-fan", "n10-wide-fan", "narrow-region"])
@pytest.mark.parametrize("threads", [1, 2])
def test_band_fields_match_full_region_fields(n, M, region_of, clips_x, repeats, threads):
    lattice = LatticeSpec.for_mass(n, mass=1.0)
    region = region_of(lattice)
    assert {ray_repeats(RaySpec.from_velocity(v, lattice.mass, region.t_range), lattice, M)
            for v in region.ray_fan} == repeats
    field, reports, clipped_x = full_field_region(region, M)
    assert (clipped_x > 0) == clips_x
    result = write_region(region, M, threads=threads)
    assert (result.field.t0_cell, result.field.x0_cell) == (field.t0_cell, field.x0_cell)
    for name in CHANNELS:
        assert result.field.channel(name).any()
        assert np.array_equal(result.field.channel(name), field.channel(name))
    assert result.reports == reports


@pytest.mark.parametrize("n, M, fan, n_periods, built", [
    (50, 60, tuple(float(v) for v in np.linspace(-0.25, 0.25, 11)), 6.0, [8]),
    (10, 5, tuple(float(v) for v in np.linspace(-0.9, 0.9, 7)), 3.0, [4, 5]),
])
def test_write_region_builds_one_cable_per_distinct_repeats(n, M, fan, n_periods, built,
                                                            monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs["repeats"])
        return build_cable(*args, **kwargs)

    monkeypatch.setattr(propagator, "build_cable", counting)
    region = region_for_fan(LatticeSpec.for_mass(n, mass=1.0), fan, n_periods=n_periods)
    write_region(region, M, threads=2)
    assert calls == built


@pytest.mark.parametrize("fan", [(0.0,), (-0.2, 0.0)])
@pytest.mark.parametrize("threads", [1, 2])
def test_ray_outside_the_x_window_fails_as_with_full_fields(fan, threads):
    lattice = LatticeSpec.for_mass(20, mass=1.0)
    region = RegionSpec(x_range=(6.0, 7.5), t_range=(14.0, 21.0), ray_fan=fan, lattice=lattice)
    expected = _outcome(lambda: full_field_region(region, M=12))
    assert expected == repr(ValueError("no oscillatory content to fit"))
    assert _outcome(lambda: write_region(region, M=12, threads=threads)) == expected


def test_fan_frequency_law(lattice, calibration):
    fan = tuple(float(v) for v in np.linspace(-0.25, 0.25, 11))
    region = region_for_fan(lattice, fan, start_periods=2.0, n_periods=4.0)
    result = write_region(region, M=20)
    for report in result.reports:
        assert report.omega_expected == pytest.approx(
            reduced_frequency(report.v, lattice.mass))
    assert result.max_rel_freq_error < calibration["fan_rel_freq_error_bound_n20"]


def test_region_field_not_empty_and_reports_ordered(lattice):
    fan = (-0.1, 0.0, 0.1)
    region = region_for_fan(lattice, fan, start_periods=2.0, n_periods=3.0)
    result = write_region(region, M=10)
    assert [r.v for r in result.reports] == list(fan)
    assert result.field.adolescent.any()


def test_region_threads_do_not_change_results(lattice):
    fan = (-0.1, 0.1)
    region = region_for_fan(lattice, fan, start_periods=2.0, n_periods=3.0)
    serial = write_region(region, M=10, threads=1)
    threaded = write_region(region, M=10, threads=4)
    assert np.array_equal(serial.field.adolescent, threaded.field.adolescent)
    assert np.array_equal(serial.field.senescent, threaded.field.senescent)
    assert serial.reports == threaded.reports


def test_refinement_is_monotone(lattice):
    fan = (-0.2, 0.0, 0.2)
    coarse_region = region_for_fan(lattice, fan, start_periods=2.0, n_periods=4.0)
    coarse = write_region(coarse_region, M=15)
    fine_lattice = LatticeSpec.for_mass(2 * lattice.n, mass=lattice.mass)
    fine_region = region_for_fan(fine_lattice, fan, start_periods=2.0, n_periods=4.0)
    fine = write_region(fine_region, M=30)
    for c, f in zip(coarse.reports, fine.reports):
        assert f.rel_rms <= c.rel_rms


def test_empty_fan_rejected(lattice):
    region = RegionSpec(x_range=(-1.0, 1.0), t_range=(1.0, 2.0), ray_fan=(), lattice=lattice)
    with pytest.raises(ValueError, match="fan"):
        write_region(region, M=5)
