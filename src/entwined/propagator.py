"""Writing the low-velocity propagator phase along rays of constant velocity.

Along a ray x = v*t the un-normalized kernel reduces to a single complex
exponential whose frequency is the carrier reduced by the classical action
rate:

    K(x, t) = exp(-i*m*t*(1 - x**2 / (2*t**2))) = exp(-i * omega(v) * t),
    omega(v) = m * (1 - v**2 / 2).

A ray is written by retuning a cable so its loop period matches
2*pi/omega(v), shearing it onto the ray, and accumulating its counted
segments.  A region is written by counting a whole fan of such rays into
one field, one ray at a time under one plan (``plan_region``) made before
anything is scattered, and comparing each ray's density profile, gathered
as its ray is counted, against the analytic frequency law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import (CountPlan, DensityField, best_lag, fit_sinusoid, _FIT_SAMPLES, _cell_ceil,
                      _cell_floor, _count, _pass, _plan, _planned_field)
from .lattice import PERIOD, LatticeSpec, SpecError
from .paths import (EntwinedPath, Frame, build_cable, cable_rules, cable_steady_window,
                    cords_per_shift, with_frame)


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
            raise SpecError([f"v: superluminal ray velocity {self.v}"])
        if not (self.omega > 0):
            raise SpecError(["omega: must be positive"])
        if not (0 < self.t_span[0] < self.t_span[1]):
            raise SpecError(["t_span: must satisfy 0 < start < end"])

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
            raise SpecError(["t_range: must satisfy 0 < start < end (rays emanate from the origin)"])
        if not self.x_range[0] < self.x_range[1]:
            raise SpecError(["x_range: must be increasing"])
        for v in self.ray_fan:
            if not abs(v) < 1.0:
                raise SpecError([f"ray_fan: superluminal ray velocity {v} in fan"])


def velocity_fan(v_min: float, v_max: float, v_count: int) -> tuple[float, ...]:
    """``v_count`` ray velocities spaced evenly from ``v_min`` to ``v_max``."""
    problems = []
    if v_count < 1:
        problems.append("v_count: must be >= 1")
    if not v_min <= v_max:
        problems.append("v_min: must not exceed v_max")
    problems += [f"{name}: superluminal drift"
                 for name, v in (("v_min", v_min), ("v_max", v_max)) if not abs(v) < 1.0]
    SpecError.check(problems)
    return tuple(float(v) for v in np.linspace(v_min, v_max, v_count))


def region_for_fan(lattice: LatticeSpec, ray_fan, start_periods: float = 2.0,
                   n_periods: float = 6.0) -> RegionSpec:
    """Region sized so every ray in the fan stays inside for the whole window,
    whose start and length in periods must be positive and whose end finite."""
    t_c = 2.0 * math.pi / lattice.mass
    t_range = (start_periods * t_c, (start_periods + n_periods) * t_c)
    problems = []
    if not start_periods > 0:
        problems.append("start_periods: must be positive (rays emanate from the origin)")
    if not n_periods > 0:
        problems.append("n_periods: must be positive")
    if not problems and not math.isfinite(t_range[1]):
        key = "n_periods" if math.isfinite(t_range[0]) else "start_periods"
        problems.append(f"{key}: too large: the window ends at t = {t_range[1]}, not a finite time")
    elif not problems and not t_range[1] > t_range[0]:
        problems.append(f"start_periods: too large for n_periods: the window's end rounds to its "
                        f"start, t = {t_range[0]}")
    SpecError.check(problems)
    pad = 2.5 * lattice.mass_scale
    v_lo = min(min(ray_fan), 0.0)
    v_hi = max(max(ray_fan), 0.0)
    x_range = (v_lo * t_range[1] - pad, v_hi * t_range[1] + pad)
    return RegionSpec(x_range=x_range, t_range=t_range, ray_fan=tuple(ray_fan), lattice=lattice)


def _t_scale(ray: RaySpec, spec: LatticeSpec) -> float:
    """Internal-to-physical time scale that retunes a loop period to 2*pi/omega(v)."""
    return spec.mass_scale * spec.mass / ray.omega


def _repeats_needed(ray: RaySpec, spec: LatticeSpec, counts: list[int]) -> int:
    lo, hi = cable_steady_window(spec, counts, 1)
    # each further repeat lengthens the cable, and its steady window, by one period
    short = lo + (ray.t_span[1] - ray.t_span[0]) / _t_scale(ray, spec) - hi
    return 1 + max(0, math.ceil(short / PERIOD))


def ray_repeats(ray: RaySpec, spec: LatticeSpec, M: int) -> int:
    """Cord repeats of the cable that writes ``ray``: the fewest whose steady
    window, retuned to the ray's frequency, covers ``ray.t_span``."""
    cable_rules(spec.n, M)
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
    return with_frame(cable, frame)


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


def _max_lag(omega: float, cell: float) -> int:
    """Most cells ``_ray_report`` shifts a ray's senescent profile by in its
    channel-lag search: one carrier period, 2*pi/omega, in cells, plus 2.
    ``best_lag`` needs more time cells than that."""
    return int(2.0 * np.pi / omega / cell) + 2


def _ray_report(ray: RaySpec, profile: np.ndarray, field: DensityField) -> RayReport:
    """Fit the ray's x-summed profile against the frequency law.

    ``profile`` holds the ray's adolescent and senescent row sums over the
    time cells of ``field``, shape (2, field.t_cells).
    """
    ado, sen = profile
    fit = fit_sinusoid(field.t_centers(), ado.astype(float))
    period_cells = 2.0 * np.pi / ray.omega / field.cell
    lag = best_lag(ado, sen, _max_lag(ray.omega, field.cell))
    return RayReport(
        v=ray.v,
        omega_expected=ray.omega,
        omega_fitted=float(fit.omega),
        amplitude=float(fit.amplitude),
        rms_residual=float(fit.rms_residual),
        lag_cells=lag,
        lag_expected_cells=float(period_cells / 4.0),
    )


def plan_region(region: RegionSpec, M: int):
    """Build all that ``write_region`` counts, and plan the count: returns
    the rays and the plan (``density._plan``) that counts them into the
    region's field, its x and t ranges floored and ceiled to whole cells.
    One cable is built per distinct ``ray_repeats`` count (one for most
    fans), its counted rows are grouped once (``density._pass``), and each
    ray is one pass: those segments under its frame from ``write_ray``.

    Raises ``SpecError``, before any cable is built, when the field has
    fewer time cells than a ray's fit takes or than its lag search reads
    (``_max_lag``), or lies past the int64 range of a cell index or, in
    int64, the widest store, past the largest array; then for every rule
    ``build_cable`` refuses, and for counts the plan refuses.
    """
    if not region.ray_fan:
        raise ValueError("ray fan is empty")
    lattice = region.lattice
    cell = lattice.cell_physical
    try:  # the end lies past the start, so it overflows whenever the start does
        t0_cell = _cell_floor(region.t_range[0], cell)
        t_cells = _cell_ceil(region.t_range[1], cell) - t0_cell
        x0_cell = _cell_floor(region.x_range[0], cell)
        x_cells = _cell_ceil(region.x_range[1], cell) - x0_cell
    except OverflowError as exc:
        raise SpecError([f"n_periods: too large: the window reaches {exc}"]) from None
    if t_cells < _FIT_SAMPLES:
        raise SpecError([f"n_periods: the window spans only {t_cells} time cells; a sinusoid fit "
                         f"needs at least {_FIT_SAMPLES} (increase n_periods or the lattice's n)"])
    # the ray of largest |v| has the lowest frequency, so its lag search reads the most cells
    v = max(region.ray_fan, key=abs)
    lag = _max_lag(reduced_frequency(v, lattice.mass), cell)
    if t_cells <= lag:
        raise SpecError([f"n_periods: the window spans only {t_cells} time cells; the channel lag of "
                         f"the ray at v = {v!r} is searched over {lag} cells and needs at "
                         f"least {lag + 1} (increase n_periods)"])
    # allocated before the cables are built: in the opposite order the n=50
    # fan's peak RSS reads about 0.3 MB higher (heap layout, not live data)
    field = _planned_field("n_periods", cell, t0_cell, x0_cell, t_cells, x_cells, wrap_x=False)
    rays = tuple(RaySpec.from_velocity(v, lattice.mass, region.t_range) for v in region.ray_fan)
    repeats = [ray_repeats(ray, lattice, M) for ray in rays]
    cables = {r: build_cable((0.0, 0.0), lattice, M=M, repeats=r) for r in dict.fromkeys(repeats)}
    frames = [write_ray(ray, cables[r]).segs.frames[0] for ray, r in zip(rays, repeats)]
    try:
        grouped = {r: _pass(cable.segs.counted()) for r, cable in cables.items()}
        # only the distinct counted rows are kept: the connectors and the
        # repeated rows do not stay alive for the whole fan
        del cables
        passes = [(grouped[r][0].reframed(0, (frame,)), *grouped[r][1:])
                  for frame, r in zip(frames, repeats)]
        return rays, _plan(field, passes, clip=True)
    except OverflowError as exc:
        raise SpecError([f"M: {exc}"]) from None


def count_region(rays, counting: CountPlan) -> RegionResult:
    """Count a fan planned by ``plan_region`` in fan order, each landed
    incidence also added to its ray's own (2, t_cells) x-summed profile, and
    fit each ray's report from that profile.  Cells outside the region are
    clipped silently (cables overhang the window by construction).  A report
    sees only what of its ray lands inside the x window: ``region_for_fan``
    pads that window so no ray is clipped in x, but a hand-built
    ``RegionSpec`` narrower than its rays gets profiles of the part inside.
    """
    field = counting.field
    profiles = np.zeros((len(rays), 2, field.t_cells), dtype=np.int64)
    _count(counting, profiles)
    return RegionResult(field, tuple(_ray_report(ray, p, field) for ray, p in zip(rays, profiles)))


def write_region(region: RegionSpec, M: int) -> RegionResult:
    """Sweep every ray in the fan, sum their densities and compare per ray, as
    ``count_region(*plan_region(region, M))``: a fan whose counts could reach 2**53 is refused."""
    return count_region(*plan_region(region, M))


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
