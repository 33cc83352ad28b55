"""Particle on a ring: standing waves from counter-propagating eigenpaths.

Two cables drift at +v and -v around a periodic spatial domain of
circumference L.  Each cable is retuned so the pattern it lays down along
its world line advances in phase at the de Broglie rate p = m*v per unit
distance; the pattern then closes coherently on itself after a wrap exactly
when p*L = 2*pi*k, i.e. at the eigen speeds

    v_k = 2*pi*k / (m*L),

consistent with v = sqrt(2*E_k/m) for E_k = (2*pi*k)**2 / (2*m*L**2).  At an
eigen speed the accumulated density shows a stationary k-wavelength spatial
mode; at other speeds the dominant mode's phase drifts from wrap to wrap.
``plan_ring`` builds and plans what a ring run counts; ``density._count`` counts it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .density import _EXACT_LIMIT, DensityField, _cell_ceil, _count, _pass, _plan, _planned_field
from .lattice import PERIOD, LatticeSpec, SpecError
from .paths import EntwinedPath, Frame, build_cable, concatenate, right_envelope, with_frame


def eigen_speed(k: int, mass: float, circumference: float) -> float:
    """Speed closing the ring in phase: momentum quantization p = m*v = 2*pi*k/L."""
    if k < 1:
        raise SpecError(["k: mode number must be >= 1"])
    if not (mass > 0 and circumference > 0):
        raise SpecError(["mass: mass and circumference must be positive"])
    v = 2.0 * math.pi * k / (mass * circumference)
    if v >= 1.0:
        raise SpecError([f"speed: relativistic eigen speed {v:.3f}; increase circumference or mass"])
    return v


@dataclass(frozen=True)
class RingSpec:
    """Ring run parameters.

    The drift speed is the eigen speed of ``mode`` times ``speed_factor``
    (e.g. 1.5 to probe off-eigen behaviour), or a ``speed`` given instead.
    ``cycles`` is the temporal extent in carrier periods of the pattern.
    """

    circumference: float
    mode: int = 1
    speed: float | None = None
    cycles: int = 8
    speed_factor: float = 1.0

    def __post_init__(self):
        problems = []
        if not (self.circumference > 0):
            problems.append("circumference: must be positive")
        if self.mode < 1:
            problems.append("mode: must be >= 1")
        if self.speed is not None and not (0.0 <= self.speed < 1.0):
            problems.append(f"speed: superluminal drift; must lie in [0, 1) (got {self.speed})")
        if self.cycles < 1:
            problems.append("cycles: must be >= 1")
        elif self.cycles > sys.float_info.max:  # ``ring_clock`` takes it as a float
            problems.append(f"cycles: must be at most the largest float, {sys.float_info.max!r}")
        if not self.speed_factor > 0:
            problems.append("speed_factor: must be positive")
        elif self.speed is not None and self.speed_factor != 1.0:
            problems.append("speed_factor: cannot be combined with ring.speed")
        SpecError.check(problems)

    def resolved_speed(self, mass: float) -> float:
        if self.speed is not None:
            return self.speed
        v = self.speed_factor * eigen_speed(self.mode, mass, self.circumference)
        if not v < 1.0:
            raise SpecError([f"speed_factor: superluminal drift; scaled eigen speed {v} must lie below 1"])
        return v


def ring_cells(circumference: float, lattice: LatticeSpec) -> int:
    """Cells around the ring; the circumference must be a whole number of them, at least 2."""
    cells = circumference / lattice.cell_physical
    if abs(cells - round(cells)) > 1e-9 or round(cells) < 2:
        raise SpecError([f"circumference: must be a whole number of cells, at least 2 "
                         f"(L/cell = {cells:.6f})"])
    return round(cells)


def _speed_key(spec: RingSpec) -> str:
    """The key that sets the drift speed: ``speed`` where given, else
    ``circumference`` at an eigen speed or ``speed_factor`` off one."""
    return ("speed" if spec.speed is not None else
            "circumference" if spec.speed_factor == 1.0 else "speed_factor")


def ring_clock(spec: RingSpec, lattice: LatticeSpec) -> tuple[float, float, float | None]:
    """Drift speed ``v``, the cables' time scale (carrier at the de Broglie rate
    m*v**2) and the physical time ``L / v`` of one wrap (``None`` at ``v = 0``);
    ``SpecError`` when the rows written or one wrap would span infinite cells."""
    v = spec.resolved_speed(lattice.mass)
    if v == 0.0:
        return v, lattice.mass_scale, None
    t_scale = lattice.mass_scale / (v * v) if v * v else math.inf  # v * v underflows below 1e-162
    wrap_time = spec.circumference / v
    if not math.isfinite(max(spec.cycles * PERIOD * t_scale, wrap_time) / lattice.cell_physical):
        raise SpecError([f"{_speed_key(spec)}: drift speed {v!r} is too slow for a finite count "
                         "of cells"])
    return v, t_scale, wrap_time


def _pair_path(spec: RingSpec, lattice: LatticeSpec, M: int) -> EntwinedPath:
    """The cables drifting at +v and -v, concatenated into one continuous
    path; the joining bridge is excluded from counting."""
    v, t_scale, _wrap = ring_clock(spec, lattice)
    cable = build_cable((0.0, 0.0), lattice, M=M, repeats=spec.cycles + 2)
    return concatenate([with_frame(cable, Frame(t_scale=t_scale, x_scale=lattice.mass_scale,
                                                drift=drift, x0=0.0, t0=0.0))
                        for drift in (v, -v)])


def plan_ring(spec: RingSpec, lattice: LatticeSpec, M: int):
    """Build all that ``run_ring`` counts, and plan the count.  Returns the
    drift speed (``ring_clock``), the ``slice_cells`` and ``period_cells`` of
    ``standing_wave_metrics`` (one wrap ``L / v`` in rows, rounded, at least
    1, every row at ``v = 0``; one carrier period in rows), and the plan
    (``density._plan``) that counts the pair's path (``_pair_path``), x
    wrapped, into ``cycles`` carrier periods of time cells, rounded, from its
    steady window's start.  Raises ``SpecError`` for the rules of
    ``RingSpec.resolved_speed``, ``ring_cells`` and ``ring_clock``, in that
    order, a wrap longer than the rows, every rule of ``build_cable`` (whose
    repeats are ``cycles + 2``), a steady window that starts past the int64
    range of a cell index, a field past the largest array, and counts the
    plan refuses."""
    cell = lattice.cell_physical
    spec.resolved_speed(lattice.mass)
    x_cells = ring_cells(spec.circumference, lattice)
    v, t_scale, wrap_time = ring_clock(spec, lattice)
    rows = int(round(spec.cycles * (PERIOD * t_scale) / cell))
    wrap = rows if wrap_time is None else max(1, int(round(wrap_time / cell)))
    if wrap > rows:
        raise SpecError([f"cycles: one wrap spans {wrap} cells, more than the {rows} cells "
                         f"written (cycles = {spec.cycles})"])
    path = _pair_path(spec, lattice, M)
    try:
        t0_cell = _cell_ceil(path.steady_window[0], cell)
    except OverflowError as exc:  # a slow drift stretches the cables past any cell index
        raise SpecError([f"{_speed_key(spec)}: too slow: the steady window starts {exc}"]) from None
    field = _planned_field("circumference", cell, t0_cell, 0, rows, x_cells, wrap_x=True)
    try:
        return v, wrap, PERIOD * t_scale / cell, _plan(field, [_pass(right_envelope(path))], clip=True)
    except OverflowError as exc:
        raise SpecError([f"M: {exc}"]) from None


def run_ring(spec: RingSpec, lattice: LatticeSpec, M: int) -> DensityField:
    """Write the counter-propagating pair on the periodic domain as planned by
    ``plan_ring``; a ``speed=0`` run writes carrier columns with no spatial mode."""
    counting = plan_ring(spec, lattice, M)[-1]
    _count(counting)
    return counting.field


@dataclass(frozen=True)
class RingMetrics:
    """Spatial-mode summary of a ring field.

    ``phase_drift`` is the linear drift of the dominant mode's spatial phase
    in radians per carrier period;
    ``mode_purity`` is the dominant mode's share of time-averaged spectral
    power (NaN for the degenerate mode-0 case).
    """

    dominant_mode: int
    phase_drift: float
    mode_purity: float
    n_slices: int


def standing_wave_metrics(field: DensityField, slice_cells: int, period_cells: float) -> RingMetrics:
    """Fourier-analyze the adolescent channel per time slice.

    Rows are aggregated into slices of ``slice_cells`` rows so each slice
    integrates enough world-line passes to expose the spatial mode; the
    dominant mode maximizes time-averaged power, and the closed-form
    least-squares slope of its phase across slices, scaled to a carrier
    period of ``period_cells`` rows, is the drift.
    Slices are summed in int64, and a field whose slice sums could pass it,
    ``slice_cells`` times its largest |count|, raises OverflowError; so does
    one whose largest |slice sum| reaches 2**53: it would not be exact as
    float64.
    """
    data = field.adolescent
    if not data.any():
        raise ValueError("all-zero field")
    t_cells = data.shape[0]
    n_slices = t_cells // slice_cells
    if n_slices < 1:
        raise ValueError("slice_cells exceeds the field extent")
    reach = slice_cells * max(-int(data.min()), int(data.max()))
    if reach >= 2 ** 63:
        raise OverflowError(f"slice sums can reach {reach}, past int64")
    trimmed = data[: n_slices * slice_cells]
    slices = trimmed.reshape(n_slices, slice_cells, -1).sum(axis=1, dtype=np.int64)
    reach = max(-int(slices.min()), int(slices.max()))
    if reach >= _EXACT_LIMIT:
        raise OverflowError(f"slice sums reach {reach}, past exact float64 at 2**53")
    slices = slices.astype(float)

    spectra = np.fft.rfft(slices, axis=1)
    power = np.mean(np.abs(spectra) ** 2, axis=0)
    dominant = int(np.argmax(power))
    if dominant == 0:
        return RingMetrics(dominant_mode=0, phase_drift=0.0, mode_purity=math.nan,
                           n_slices=n_slices)
    purity = float(power[dominant] / power.sum())

    coef = spectra[:, dominant]
    live = np.abs(coef) > 1e-12
    idx = np.nonzero(live)[0]
    if len(idx) < 2:
        return RingMetrics(dominant_mode=dominant, phase_drift=0.0, mode_purity=purity,
                           n_slices=n_slices)
    phases = np.unwrap(np.angle(coef[live]))
    centred = idx - idx.mean()  # numpy sums in their fixed order, not a LAPACK kernel's
    slope = (centred * (phases - phases.mean())).sum() / (centred * centred).sum()  # rad per slice
    drift = float(slope * (period_cells / slice_cells))
    return RingMetrics(dominant_mode=dominant, phase_drift=drift, mode_purity=purity,
                       n_slices=n_slices)


def drift_in_cells_per_period(metrics: RingMetrics, x_cells: int) -> float:
    """Convert a phase drift (rad/period) to node motion in cells per period."""
    if metrics.dominant_mode == 0:
        return 0.0
    return abs(metrics.phase_drift) * x_cells / (2.0 * math.pi * metrics.dominant_mode)
