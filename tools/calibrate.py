#!/usr/bin/env python3
"""Refresh the measured values in tests/fixtures/calibration.json.

Runs the oracle experiments and rewrites the fixture's ``measured`` block.
Every bound the tests assert that the fixture already holds is carried
through unchanged: bounds are frozen, and a new measurement never moves
one.  Only a bound the fixture lacks is set, from the measured value with a
safety margin, capped by the contract limits (1% ray frequency error, 0.1
cells/period eigen drift).
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from entwined.density import (DensityField, ReferenceDensity, accumulate, compare,
                              field_for_segments, fit_sinusoid, steady_region,
                              _cell_ceil, _cell_floor)
from entwined.lattice import LatticeSpec
from entwined.paths import build_cable, right_envelope
from entwined.propagator import RaySpec, ray_repeats, region_for_fan, write_ray, write_region
from entwined.ring import RingSpec, drift_in_cells_per_period, eigen_speed, run_ring, standing_wave_metrics

OUT = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "calibration.json"


def carrier_rel_rms(n, M, repeats):
    spec = LatticeSpec(n=n)
    cable = build_cable((0.0, 0.0), spec, M=M, repeats=repeats)
    field = field_for_segments(cable.segs, pad=2)
    accumulate(field, right_envelope(cable))
    report = compare(field, ReferenceDensity("sinusoid"), "adolescent",
                     steady_region(cable, field))
    return report.fitted.rel_rms, report.fitted.period


def fan_error(n, M, n_periods):
    lattice = LatticeSpec.for_mass(n, mass=1.0)
    fan = tuple(float(v) for v in np.linspace(-0.25, 0.25, 11))
    region = region_for_fan(lattice, fan, start_periods=2.0, n_periods=n_periods)
    result = write_region(region, M=M)
    return result.max_rel_freq_error, result.max_rel_rms


def amplitude_uniformity():
    lattice = LatticeSpec.for_mass(20, mass=1.0)
    ray = RaySpec.from_velocity(0.1, lattice.mass, (2 * math.pi, 14 * math.pi))
    cable = build_cable((0.0, 0.0), lattice, M=40, repeats=ray_repeats(ray, lattice, 40))
    path = write_ray(ray, cable)
    cell = lattice.cell_physical
    t0 = _cell_floor(ray.t_span[0], cell)
    t_cells = _cell_ceil(ray.t_span[1], cell) - t0
    # the path's whole x extent over the ray's t span: row sums are the full profile
    bounds = field_for_segments(path.segs, cell=cell)
    field = DensityField(cell, t0, bounds.x0_cell, t_cells, bounds.x_cells)
    accumulate(field, right_envelope(path), clip=True)
    ado = field.adolescent.sum(axis=1).astype(float)
    centers = field.t_centers()
    half = t_cells // 2
    first = fit_sinusoid(centers[:half], ado[:half])
    second = fit_sinusoid(centers[half:], ado[half:])
    return abs(first.amplitude - second.amplitude) / first.amplitude


def ring_drifts():
    lattice = LatticeSpec(n=20)
    L = 8.0 * math.pi
    out = {}
    for label, spec in (
        ("eigen_k1", RingSpec(circumference=L, mode=1, cycles=8)),
        ("eigen_k2", RingSpec(circumference=L, mode=2, cycles=8)),
        ("off_eigen_1p5", RingSpec(circumference=L, mode=1,
                                   speed=1.5 * eigen_speed(1, lattice.mass, L), cycles=8)),
    ):
        field = run_ring(spec, lattice, M=30)
        v = spec.resolved_speed(lattice.mass)
        t_scale = lattice.mass_scale / (v * v)
        metrics = standing_wave_metrics(
            field, slice_cells=int(round((L / v) / lattice.cell_physical)),
            period_cells=4.0 * t_scale / lattice.cell_physical)
        out[label] = {
            "dominant_mode": metrics.dominant_mode,
            "drift_cells_per_period": drift_in_cells_per_period(metrics, field.x_cells),
            "mode_purity": metrics.mode_purity,
        }
    return out


def main():
    measured = {}
    measured["carrier_rel_rms_n10_m20"], measured["carrier_period_n10_m20"] = carrier_rel_rms(10, 20, 3)
    measured["fan_max_rel_freq_error_n20_m20"], _ = fan_error(20, 20, 4.0)
    measured["fan_max_rel_freq_error_n50_m60"], measured["fan_max_rel_rms_n50_m60"] = fan_error(50, 60, 6.0)
    measured["ray_amplitude_uniformity"] = amplitude_uniformity()
    measured["ring"] = ring_drifts()

    new_bounds = {
        "_comment": "measured by tools/calibrate.py; bounds frozen with margin",
        "carrier_rel_rms_bound_n10_m20": round(3.0 * measured["carrier_rel_rms_n10_m20"], 4),
        "fan_rel_freq_error_bound_n20": round(3.0 * measured["fan_max_rel_freq_error_n20_m20"], 6),
        "fan_rel_freq_error_bound_n50": min(0.01, round(5.0 * measured["fan_max_rel_freq_error_n50_m60"], 6)),
        "ray_amplitude_uniformity_bound": round(3.0 * measured["ray_amplitude_uniformity"], 4),
        "ring_eigen_drift_cells_per_period": 0.1,
    }
    frozen = json.loads(OUT.read_text()) if OUT.exists() else {}
    calibration = {**new_bounds, **frozen, "measured": measured}
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(calibration, indent=2, sort_keys=True) + "\n")
    print(json.dumps(calibration, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
