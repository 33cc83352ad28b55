"""Deterministic entwined space-time path simulator.

Builds single continuous space-time trajectories (fibers, cords, cables)
whose signed lattice densities reproduce the zigzag kernel's phase
structure, the low-velocity propagator along constant-velocity rays, and
standing waves for a particle on a ring.

Importing the package loads none of its modules: each public name imports
the module that defines it the first time it is read.
"""

from importlib import import_module

__version__ = "0.1.0"

# each module's public names
_PUBLIC = {
    "lattice": ("PERIOD", "LatticeSpec", "SpecError"),
    "chessboard": ("ChessboardProblem", "CornerHistogram", "KernelValue",
                   "enumerate_corner_histogram", "kernel_corner_sum", "kernel_transfer_matrix",
                   "kernel_phase_series"),
    "paths": ("EntwinedPath", "Frame", "SegmentArray", "RIGHT_MOVER", "LEFT_MOVER",
              "build_fiber", "build_cord", "build_cable", "concatenate", "cords_per_shift",
              "right_envelope", "with_frame", "dump_path"),
    "density": ("DensityField", "Region", "ReferenceDensity", "ErrorReport", "SinusoidFit",
                "accumulate", "best_lag", "compare", "export_field", "field_for_segments",
                "fit_sinusoid", "reference_eval", "steady_region", "whole_region"),
    "propagator": ("RaySpec", "RayReport", "RegionSpec", "RegionResult", "analytic_kernel",
                   "ray_repeats", "reduced_frequency", "region_for_fan", "write_ray",
                   "write_region"),
    "ring": ("RingSpec", "RingMetrics", "eigen_speed", "run_ring", "standing_wave_metrics",
             "drift_in_cells_per_period"),
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
