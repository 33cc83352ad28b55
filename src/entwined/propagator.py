"""Writing the low-velocity propagator phase along rays of constant velocity.

Along a ray x = v*t the un-normalized kernel reduces to a single complex
exponential whose frequency is the carrier reduced by the classical action
rate:

    K(x, t) = exp(-i*m*t*(1 - x**2 / (2*t**2))) = exp(-i * omega(v) * t),
    omega(v) = m * (1 - v**2 / 2).

A ray is written by retuning a cable so its loop period matches
2*pi/omega(v), shearing it onto the ray, and accumulating its counted
segments; a region is written by sweeping a fan of such rays and comparing
each ray's density profile against the analytic frequency law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import (DensityField, accumulate, best_lag, fit_sinusoid, _cell_ceil, _cell_floor,
                      _segment_bounds)
from .lattice import PERIOD, LatticeSpec
from .paths import EntwinedPath, Frame, build_cable, cords_per_shift, right_envelope, with_frame


def analytic_kernel(x, t, mass: float):
    """Unit-modulus, un-normalized kernel exp(-i*m*t*(1 - x^2/(2 t^2))).

    Valid in the low-velocity regime |x/t| << 1 (not enforced); ``t`` must
    be positive.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("analytic kernel requires t > 0")
    out = np.exp(-1j * mass * t * (1.0 - x**2 / (2.0 * t**2)))
    return complex(out) if out.ndim == 0 else out


def reduced_frequency(v: float, mass: float) -> float:
    """Carrier frequency along a constant-velocity ray: m*(1 - v^2/2)."""
    return mass * (1.0 - v * v / 2.0)


@dataclass(frozen=True)
class RaySpec:
    """A constant-velocity ray with its reduced carrier frequency."""

    v: float
    omega: float
    t_span: tuple[float, float]

    def __post_init__(self):
        if not abs(self.v) < 1.0:
            raise ValueError(f"superluminal ray velocity {self.v}")
        if not (self.omega > 0):
            raise ValueError("omega must be positive")
        if not (0 < self.t_span[0] < self.t_span[1]):
            raise ValueError("t_span must satisfy 0 < start < end")

    @classmethod
    def from_velocity(cls, v: float, mass: float, t_span: tuple[float, float]) -> "RaySpec":
        return cls(v=v, omega=reduced_frequency(v, mass), t_span=t_span)


@dataclass(frozen=True)
class RegionSpec:
    """A space-time window plus the fan of rays that writes it."""

    x_range: tuple[float, float]
    t_range: tuple[float, float]
    ray_fan: tuple[float, ...]
    lattice: LatticeSpec

    def __post_init__(self):
        if not (0 < self.t_range[0] < self.t_range[1]):
            raise ValueError("t_range must satisfy 0 < start < end (rays emanate from the origin)")
        if not self.x_range[0] < self.x_range[1]:
            raise ValueError("x_range must be increasing")
        for v in self.ray_fan:
            if not abs(v) < 1.0:
                raise ValueError(f"superluminal ray velocity {v} in fan")


def region_for_fan(lattice: LatticeSpec, ray_fan, start_periods: float = 2.0,
                   n_periods: float = 6.0) -> RegionSpec:
    """Region sized so every ray in the fan stays inside for the whole window."""
    mass = lattice.mass
    t_c = 2.0 * math.pi / mass
    t_range = (start_periods * t_c, (start_periods + n_periods) * t_c)
    pad = 2.5 * lattice.mass_scale
    v_lo = min(min(ray_fan), 0.0)
    v_hi = max(max(ray_fan), 0.0)
    x_range = (v_lo * t_range[1] - pad, v_hi * t_range[1] + pad)
    return RegionSpec(x_range=x_range, t_range=t_range, ray_fan=tuple(ray_fan), lattice=lattice)


def _t_scale(ray: RaySpec, spec: LatticeSpec) -> float:
    """Internal-to-physical time scale that retunes a loop period to 2*pi/omega(v)."""
    return spec.mass_scale * spec.mass / ray.omega


def _repeats_needed(ray: RaySpec, spec: LatticeSpec, counts: list[int]) -> int:
    if not any(counts):
        raise ValueError("M too small: cable would be empty")
    last_shift = max(k for k, c in enumerate(counts) if c) * spec.eps
    span = ray.t_span[1] - ray.t_span[0]
    # steady window of a cable with R repeats: [last_shift + 4, 4R - 1 + eps]
    need = last_shift + 5.0 - spec.eps + span / _t_scale(ray, spec)
    return max(1, math.ceil(need / PERIOD))


def ray_repeats(ray: RaySpec, spec: LatticeSpec, M: int) -> int:
    """Cord repeats of the cable that writes ``ray``: the fewest whose steady
    window, retuned to the ray's frequency, covers ``ray.t_span``."""
    return _repeats_needed(ray, spec, cords_per_shift(spec.n, M))


def write_ray(ray: RaySpec, cable: EntwinedPath) -> EntwinedPath:
    """Frame a prebuilt, unframed cable so its counted density writes the ray.

    The cable's internal period is stretched by m/omega(v) so the carrier
    along the ray oscillates at omega(v); spatial loop size stays at the
    lattice's own scale.  Its steady window starts at ``ray.t_span[0]``.
    The integer rows are shared, not copied, so one cable can write every
    ray that needs its ``repeats``: build it with
    ``build_cable((0.0, 0.0), spec, M, repeats=ray_repeats(ray, spec, M))``.
    A cable with fewer repeats than that, whose steady window would end
    before ``ray.t_span[1]``, is refused.
    """
    if cable.kind != "cable" or cable.segs.frames != (Frame(),):
        raise ValueError("write_ray frames an unframed cable from build_cable")
    spec = cable.lattice
    # compared by the repeats rule, not by framed floats, so a cable built
    # with ray_repeats is never refused on rounding
    repeats = cable.extras["repeats"]
    needed = _repeats_needed(ray, spec, cable.extras["cords_per_shift"])
    if repeats < needed:
        raise ValueError(f"cable of {repeats} repeats is too short for t_span {ray.t_span}: "
                         f"its steady window needs {needed}")
    t_scale = _t_scale(ray, spec)
    t0 = ray.t_span[0] - t_scale * cable.steady_window[0]
    frame = Frame(t_scale=t_scale, x_scale=spec.mass_scale, drift=ray.v, x0=0.0, t0=t0)
    path = with_frame(cable, frame)
    path.extras["ray"] = ray
    return path


@dataclass(frozen=True)
class RayReport:
    """Per-ray comparison between written density and the frequency law.

    Convention: after per-ray amplitude normalization and with the fitted
    phase origin free, the right-mover profile plays cos(omega*t) (the
    kernel's real part) and the left-mover profile its quarter-period delay
    sin(omega*t) (minus the imaginary part); ``lag_cells`` checks that
    delay, ``rms_residual`` the fit to the carrier.
    """

    v: float
    omega_expected: float
    omega_fitted: float
    amplitude: float
    rms_residual: float
    lag_cells: int
    lag_expected_cells: float

    @property
    def rel_freq_error(self) -> float:
        return abs(self.omega_fitted - self.omega_expected) / self.omega_expected

    @property
    def rel_rms(self) -> float:
        return self.rms_residual / self.amplitude if self.amplitude else math.inf


@dataclass(frozen=True)
class RegionResult:
    field: DensityField
    reports: tuple[RayReport, ...]

    @property
    def max_rel_freq_error(self) -> float:
        return max(r.rel_freq_error for r in self.reports)

    @property
    def max_rel_rms(self) -> float:
        return max(r.rel_rms for r in self.reports)


def _ray_report(ray: RaySpec, field: DensityField) -> RayReport:
    """Fit the ray's own field, summed over x, against the frequency law."""
    ado = field.adolescent.sum(axis=1)
    sen = field.senescent.sum(axis=1)
    fit = fit_sinusoid(field.t_centers(), ado.astype(float))
    period_cells = 2.0 * np.pi / ray.omega / field.cell
    max_lag = int(period_cells) + 2
    lag = best_lag(ado, sen, max_lag)
    return RayReport(
        v=ray.v,
        omega_expected=ray.omega,
        omega_fitted=float(fit.omega),
        amplitude=float(fit.amplitude),
        rms_residual=float(fit.rms_residual),
        lag_cells=lag,
        lag_expected_cells=float(period_cells / 4.0),
    )


def write_region(region: RegionSpec, M: int, threads: int = 1) -> RegionResult:
    """Sweep every ray in the fan, sum their densities, compare per ray.

    Rays differ only in their ``Frame``, so one cable is built for each
    distinct ``ray_repeats`` count (one for most fans), before any ray is
    written, and cut to its counted rows: every ray with that count frames
    those shared rows through ``write_ray``.  Each ray counts into its own
    band: a field over the region's t window that spans, in x, only the
    ray's own extent (the x bounds ``field_for_segments`` would give it)
    inside the region's x window.  Bands are folded into the region field
    in fan order as they arrive, so at most the bands not yet folded are
    alive.
    Rays are independent work units; the summed field and the per-ray
    reports are identical for any ``threads``.  Cells outside the region
    are clipped silently (cables overhang the window by construction).
    Each ray's report fits the row sums of its own band, so it sees only
    what lands inside the x window: ``region_for_fan`` pads that window so
    no ray is clipped in x, but a hand-built ``RegionSpec`` narrower than
    its rays gets profiles of the part inside.
    """
    if not region.ray_fan:
        raise ValueError("ray fan is empty")
    lattice = region.lattice
    mass = lattice.mass
    cell = lattice.cell_physical
    t0_cell = _cell_floor(region.t_range[0], cell)
    t_cells = _cell_ceil(region.t_range[1], cell) - t0_cell
    x0_cell = _cell_floor(region.x_range[0], cell)
    x_cells = _cell_ceil(region.x_range[1], cell) - x0_cell

    # allocated before the cables are built: in the opposite order the n=50
    # fan's peak RSS reads about 0.3 MB higher (heap layout, not live data)
    field = DensityField(cell, t0_cell, x0_cell, t_cells, x_cells)
    rays = [RaySpec.from_velocity(v, mass, region.t_range) for v in region.ray_fan]
    repeats = [ray_repeats(ray, lattice, M) for ray in rays]
    cables = {}
    for r in dict.fromkeys(repeats):
        cable = build_cable((0.0, 0.0), lattice, M=M, repeats=r)
        # keep only the rows counting reads, so the connectors do not stay
        # alive for the whole fan; trimmed in place because perfbench's
        # tracer knows a path by the object build_cable returned
        cable.segs = cable.segs.counted()
        cables[r] = cable

    def one_ray(ray: RaySpec, r: int):
        envelope = right_envelope(write_ray(ray, cables[r]))
        _, _, ray_x_lo, ray_x_hi = _segment_bounds(envelope, cell)
        x_lo = max(ray_x_lo, x0_cell)
        x_hi = min(ray_x_hi, x0_cell + x_cells)
        if x_hi <= x_lo:  # the ray misses the window: nothing of it lands in any column
            x_lo, x_hi = x0_cell, x0_cell + 1
        band = DensityField(cell, t0_cell, x_lo, t_cells, x_hi - x_lo)
        accumulate(band, envelope, clip=True)
        return band, _ray_report(ray, band)

    def fold(results) -> tuple[RayReport, ...]:
        reports = []
        for band, report in results:
            cols = slice(band.x0_cell - x0_cell, band.x0_cell - x0_cell + band.x_cells)
            field.adolescent[:, cols] += band.adolescent
            field.senescent[:, cols] += band.senescent
            reports.append(report)
        return tuple(reports)

    if threads > 1 and len(region.ray_fan) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            reports = fold(pool.map(one_ray, rays, repeats))
    else:
        reports = fold(map(one_ray, rays, repeats))
    return RegionResult(field=field, reports=reports)


RAY_REPORT_COLUMNS = ("v", "omega_expected", "omega_fitted", "rel_freq_error",
                      "amplitude", "rms_residual", "lag_cells", "lag_expected_cells")


def write_ray_report(reports, fh) -> None:
    """Tab-separated per-ray records plus one summary line."""
    fh.write("\t".join(RAY_REPORT_COLUMNS) + "\n")
    for r in reports:
        fh.write(
            f"{r.v!r}\t{r.omega_expected!r}\t{r.omega_fitted!r}\t{r.rel_freq_error!r}\t"
            f"{r.amplitude!r}\t{r.rms_residual!r}\t{r.lag_cells}\t{r.lag_expected_cells!r}\n"
        )
    worst = max(r.rel_freq_error for r in reports)
    fh.write(f"# max_rel_freq_error\t{worst!r}\n")
