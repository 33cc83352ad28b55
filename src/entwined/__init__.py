"""Deterministic entwined space-time path simulator.

Builds single continuous space-time trajectories (fibers, cords, cables)
whose signed lattice densities reproduce the zigzag kernel's phase
structure, the low-velocity propagator along constant-velocity rays, and
standing waves for a particle on a ring.
"""

from .chessboard import (ChessboardProblem, CornerHistogram, KernelValue,
                         enumerate_corner_histogram, kernel_corner_sum,
                         kernel_phase_series, kernel_transfer_matrix)
from .density import (DensityField, ErrorReport, ReferenceDensity, Region, SinusoidFit,
                      accumulate, best_lag, compare, export_field, field_for_segments,
                      fit_sinusoid, reference_eval, steady_region, whole_region)
from .lattice import PERIOD, LatticeSpec, SpecError
from .paths import (LEFT_MOVER, RIGHT_MOVER, EntwinedPath, Frame, SegmentArray,
                    build_cable, build_cord, build_fiber, concatenate, cords_per_shift,
                    dump_path, right_envelope, with_frame)
from .propagator import (RaySpec, RayReport, RegionResult, RegionSpec, analytic_kernel,
                         ray_repeats, reduced_frequency, region_for_fan, write_ray,
                         write_region)
from .ring import (RingMetrics, RingSpec, drift_in_cells_per_period, eigen_speed, run_ring,
                   standing_wave_metrics)

__version__ = "0.1.0"

__all__ = [
    "PERIOD", "LatticeSpec", "SpecError",
    "ChessboardProblem", "CornerHistogram", "KernelValue",
    "enumerate_corner_histogram", "kernel_corner_sum", "kernel_transfer_matrix",
    "kernel_phase_series",
    "EntwinedPath", "Frame", "SegmentArray",
    "RIGHT_MOVER", "LEFT_MOVER",
    "build_fiber", "build_cord", "build_cable", "concatenate", "cords_per_shift",
    "right_envelope", "with_frame", "dump_path",
    "DensityField", "Region", "ReferenceDensity", "ErrorReport", "SinusoidFit",
    "accumulate", "best_lag", "compare", "export_field",
    "field_for_segments", "fit_sinusoid", "reference_eval", "steady_region", "whole_region",
    "RaySpec", "RayReport", "RegionSpec", "RegionResult",
    "analytic_kernel", "ray_repeats", "reduced_frequency", "region_for_fan", "write_ray",
    "write_region",
    "RingSpec", "RingMetrics", "eigen_speed", "run_ring", "standing_wave_metrics",
    "drift_in_cells_per_period",
]
