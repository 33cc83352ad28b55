"""The four benchmark workloads: CLI argument lists and output checks.

Each workload is one or more ``entwined`` command lines run in one child
process.  ``result_error`` reads the accuracy figure back from the files the
CLI wrote, and ``check`` holds it to the acceptance bounds, which come
read-only from ``tests/fixtures/calibration.json`` or are the contract limits.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

MAX_FREQ_ERROR = 0.01  # contract: 1 % ray frequency error
MAX_EIGEN_DRIFT = 0.1  # contract: cells per period at an eigen speed
MIN_OFF_EIGEN_RATIO = 10.0  # contract: off-eigen drift over eigen drift
MAX_BACKEND_GAP = 1e-12  # contract: chessboard backend agreement

KERNEL_PROBLEMS = 30
STEP_SIZES = ("0.05", "0.1", "0.3")


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Callable[[int], list[list[str]]]
    result_error: Callable[[list[Path]], float]
    check: Callable[[list[Path], dict], list[str]]
    error_unit: str


def _tsv_row(path: Path) -> dict[str, str]:
    header, row = path.read_text().splitlines()[:2]
    return dict(zip(header.split("\t"), row.split("\t")))


# --- carrier-large ---------------------------------------------------------

def _carrier_commands(seed: int) -> list[list[str]]:
    return [["carrier", "--n", "100", "--cords", "1000", "--repeats", "3"]]


def _carrier_error(outs: list[Path]) -> float:
    return float(_tsv_row(outs[0] / "carrier_fit.tsv")["rel_rms"])


def _carrier_check(outs: list[Path], calibration: dict) -> list[str]:
    err = _carrier_error(outs)
    bound = calibration["carrier_rel_rms_bound_n10_m20"]
    return [] if err < bound else [f"carrier rel_rms {err!r} >= {bound!r}"]


# --- ray-fan ---------------------------------------------------------------

def _ray_commands(seed: int) -> list[list[str]]:
    return [["propagate", "--n", "50", "--cords", "60"]]


def _ray_error(outs: list[Path]) -> float:
    for line in (outs[0] / "ray_report.tsv").read_text().splitlines():
        if line.startswith("# max_rel_freq_error\t"):
            return float(line.split("\t")[1])
    raise ValueError("ray_report.tsv has no max_rel_freq_error line")


def _ray_check(outs: list[Path], calibration: dict) -> list[str]:
    err = _ray_error(outs)
    bound = min(MAX_FREQ_ERROR, calibration["fan_rel_freq_error_bound_n50"])
    return [] if err <= bound else [f"max_rel_freq_error {err!r} > {bound!r}"]


# --- ring-modes ------------------------------------------------------------

def _ring_commands(seed: int) -> list[list[str]]:
    eigen = ["ring", "--n", "20", "--cords", "30"]
    return [eigen, eigen + ["--speed-factor", "1.5"]]


def _ring_error(outs: list[Path]) -> float:
    return float(_tsv_row(outs[0] / "ring_metrics.tsv")["drift_cells_per_period"])


def _ring_check(outs: list[Path], calibration: dict) -> list[str]:
    eigen = _tsv_row(outs[0] / "ring_metrics.tsv")
    off = _tsv_row(outs[1] / "ring_metrics.tsv")
    drift = float(eigen["drift_cells_per_period"])
    off_drift = float(off["drift_cells_per_period"])
    bound = min(MAX_EIGEN_DRIFT, calibration["ring_eigen_drift_cells_per_period"])
    problems = []
    if eigen["dominant_mode"] != "1":
        problems.append(f"eigen run dominant mode {eigen['dominant_mode']}, expected 1")
    if not drift < bound:
        problems.append(f"eigen drift {drift!r} >= {bound!r} cells/period")
    if not off_drift >= MIN_OFF_EIGEN_RATIO * max(drift, 1e-12):
        problems.append(f"off-eigen drift {off_drift!r} < {MIN_OFF_EIGEN_RATIO}x eigen drift")
    return problems


# --- kernel-sweep ----------------------------------------------------------

def kernel_commands(seed: int) -> list[list[str]]:
    """Chessboard problems drawn from ``seed``.

    The (n_steps, incoming corner) pairs follow a fixed schedule so every
    seed enumerates the same number of step sequences (2**(n_steps - 1), or
    2**n_steps with a free first step) and the run time does not depend on
    the draw.  The seed draws the order, the parity-valid displacement, the
    directions, the step size and the optional phase series.
    """
    rng = random.Random(seed)
    schedule = [(18 + i % 7, (i // 7) % 2 == 1) for i in range(KERNEL_PROBLEMS)]
    rng.shuffle(schedule)
    commands = []
    for n_steps, incoming in schedule:
        displacement = rng.randrange(-(n_steps - 2), n_steps - 1, 2)
        argv = ["chessboard", "--n-steps", str(n_steps), "--displacement", str(displacement),
                "--step-size", rng.choice(STEP_SIZES),
                "--initial-direction", rng.choice(("right", "left")),
                "--final-direction", rng.choice(("right", "left", "any"))]
        if incoming:
            argv.append("--incoming-corner")
        if rng.random() < 0.5:
            argv += ["--phase-t-max", str(rng.randint(1, 10))]
        commands.append(argv)
    return commands


def _kernel_error(outs: list[Path]) -> float:
    worst = 0.0
    for out in outs:
        rows = {}
        for line in (out / "kernel_table.tsv").read_text().splitlines()[1:]:
            name, plus, minus = line.split("\t")
            rows[name] = (float(plus), float(minus))
        summed, exact = rows["enumeration+corner_sum"], rows["transfer_matrix_exact"]
        worst = max(worst, abs(summed[0] - exact[0]), abs(summed[1] - exact[1]))
    return worst


def _kernel_check(outs: list[Path], calibration: dict) -> list[str]:
    err = _kernel_error(outs)
    return [] if err <= MAX_BACKEND_GAP else [f"backend gap {err!r} > {MAX_BACKEND_GAP!r}"]


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("carrier-large", _carrier_commands, _carrier_error, _carrier_check, "ratio"),
    Workload("ray-fan", _ray_commands, _ray_error, _ray_check, "ratio"),
    Workload("ring-modes", _ring_commands, _ring_error, _ring_check, "cells/period"),
    Workload("kernel-sweep", kernel_commands, _kernel_error, _kernel_check, "1"),
)}


def load_calibration(root: Path) -> dict:
    return json.loads((root / "tests" / "fixtures" / "calibration.json").read_text())
