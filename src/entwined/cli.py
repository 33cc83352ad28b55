"""Command-line front end: run the four experiments, emit reproducible files.

Configuration comes from an INI-style key = value file selected with
``--config`` plus per-flag overrides (flags win).  Every run writes its data
files, a human-readable ``summary.txt``, and a ``manifest.json`` recording
the fully resolved configuration and a sha256 per artifact.  Output bytes
are identical for identical configurations regardless of thread count, so
manifests can be compared directly.

Exit status: 0 success, 2 configuration/validation error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .chessboard import (ANY, ENUMERATION_CAP, LEFT, RIGHT, ChessboardProblem,
                         enumerate_corner_histogram, kernel_corner_sum, kernel_phase_series,
                         kernel_transfer_matrix)
from .density import (ReferenceDensity, accumulate, best_lag, compare, export_field,
                      field_for_segments, steady_region)
from .lattice import LatticeSpec
from .paths import build_cable, right_envelope
from .propagator import region_for_fan, write_ray_report, write_region
from .ring import (RingSpec, drift_in_cells_per_period, eigen_speed, run_ring,
                   standing_wave_metrics)

EXPERIMENTS = ("chessboard", "carrier", "propagate", "ring")

# every known key with (type, default); config sections and flags resolve here
_SCHEMA: dict[str, dict[str, tuple]] = {
    "lattice": {
        "n": (int, 10),
        "mass_scale": (float, math.pi / 2.0),
    },
    "run": {
        "threads": (str, "1"),
        "out": (str, "out"),
        "clip": (bool, False),
    },
    "chessboard": {
        "n_steps": (int, 12),
        "displacement": (int, 0),
        "step_size": (float, 0.1),
        "mass": (float, 1.0),
        "initial_direction": (str, RIGHT),
        "final_direction": (str, ANY),
        "incoming_corner": (bool, False),
        "phase_t_max": (float, 0.0),
    },
    "carrier": {
        "m_cords": (int, 20),
        "repeats": (int, 3),
    },
    "propagate": {
        "m_cords": (int, 60),
        "v_min": (float, -0.25),
        "v_max": (float, 0.25),
        "v_count": (int, 11),
        "start_periods": (float, 2.0),
        "n_periods": (float, 6.0),
    },
    "ring": {
        "m_cords": (int, 30),
        "circumference": (float, 8.0 * math.pi),
        "mode": (int, 1),
        "speed": (float, None),
        "speed_factor": (float, 1.0),
        "cycles": (int, 8),
        "origin_cell": (int, 0),
    },
}

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


class ConfigError(Exception):
    pass


def _coerce(section: str, key: str, raw) -> object:
    typ, _default = _SCHEMA[section][key]
    if raw is None:
        return None
    if typ is bool:
        if isinstance(raw, bool):
            return raw
        text = str(raw).strip().lower()
        if text in _BOOL_TRUE:
            return True
        if text in _BOOL_FALSE:
            return False
        raise ConfigError(f"{section}.{key}: expected a boolean, got {raw!r}")
    try:
        value = typ(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{section}.{key}: expected {typ.__name__}, got {raw!r}") from None
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"{section}.{key}: expected a finite float, got {str(raw)!r}")
    return value


def load_config(experiment: str, config_path: str | None, overrides: dict) -> dict:
    """Resolve defaults <- config file <- flag overrides into nested dicts."""
    resolved = {section: {k: default for k, (_t, default) in keys.items()}
                for section, keys in _SCHEMA.items()}
    if config_path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(config_path)
        if not read:
            raise ConfigError(f"cannot read config file {config_path}")
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            if section in EXPERIMENTS and section != experiment:
                continue  # other experiments' blocks are allowed but inert
            for key, raw in parser.items(section):
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                resolved[section][key] = _coerce(section, key, raw)
    for (section, key), value in overrides.items():
        if value is not None:
            resolved[section][key] = _coerce(section, key, value)
    return {"experiment": experiment, "lattice": resolved["lattice"],
            "run": resolved["run"], experiment: resolved[experiment]}


def validate(config: dict) -> list[str]:
    """Return every configuration violation (empty list means runnable)."""
    issues: list[str] = []
    lat = config["lattice"]
    n = lat["n"]
    if n <= 0:
        issues.append("lattice.n: n must be positive")
    elif n % 2 != 0:
        issues.append("lattice.n: n must be even")
    if not lat["mass_scale"] > 0:
        issues.append("lattice.mass_scale: must be positive")
    threads = config["run"]["threads"]
    if threads != "auto":
        try:
            if int(threads) < 1:
                issues.append("run.threads: must be >= 1 or 'auto'")
        except ValueError:
            issues.append(f"run.threads: expected an integer or 'auto', got {threads!r}")

    exp = config["experiment"]
    block = config[exp]
    if exp == "chessboard":
        if block["n_steps"] < 1:
            issues.append("chessboard.n_steps: must be >= 1")
        elif block["n_steps"] > ENUMERATION_CAP:
            issues.append(f"chessboard.n_steps: exceeds enumeration cap {ENUMERATION_CAP}")
        if not block["step_size"] > 0:
            issues.append("chessboard.step_size: must be positive")
        if block["mass"] < 0:
            issues.append("chessboard.mass: must be non-negative")
        if block["initial_direction"] not in (RIGHT, LEFT):
            issues.append("chessboard.initial_direction: must be right or left")
        if block["final_direction"] not in (RIGHT, LEFT, ANY):
            issues.append("chessboard.final_direction: must be right, left or any")
        if block["phase_t_max"] > 0 and block["step_size"] * block["mass"] >= 1:
            issues.append("chessboard.phase_t_max: phase series needs step_size*mass < 1")
    elif exp == "carrier":
        if block["m_cords"] < 1:
            issues.append("carrier.m_cords: must be >= 1")
        if block["repeats"] < 1:
            issues.append("carrier.repeats: must be >= 1")
    elif exp == "propagate":
        if block["m_cords"] < 1:
            issues.append("propagate.m_cords: must be >= 1")
        if block["v_count"] < 1:
            issues.append("propagate.v_count: must be >= 1")
        if not block["v_min"] <= block["v_max"]:
            issues.append("propagate.v_min: must not exceed v_max")
        for key in ("v_min", "v_max"):
            if abs(block[key]) >= 1:
                issues.append(f"propagate.{key}: superluminal drift")
        if not block["start_periods"] > 0:
            issues.append("propagate.start_periods: must be positive (rays emanate from the origin)")
        if not block["n_periods"] > 0:
            issues.append("propagate.n_periods: must be positive")
    elif exp == "ring":
        if block["m_cords"] < 1:
            issues.append("ring.m_cords: must be >= 1")
        if not block["circumference"] > 0:
            issues.append("ring.circumference: must be positive")
        if block["mode"] < 1:
            issues.append("ring.mode: must be >= 1")
        if block["cycles"] < 1:
            issues.append("ring.cycles: must be >= 1")
        speed = block["speed"]
        if speed is not None and not 0.0 <= speed < 1.0:
            issues.append("ring.speed: superluminal drift")
        if not block["speed_factor"] > 0:
            issues.append("ring.speed_factor: must be positive")
        elif speed is not None and block["speed_factor"] != 1.0:
            # the factor scales the eigen speed; an explicit speed replaces it
            issues.append("ring.speed_factor: cannot be combined with ring.speed")
        if n > 0 and n % 2 == 0 and lat["mass_scale"] > 0:
            lattice = LatticeSpec(n=n, mass_scale=lat["mass_scale"])
            cells = block["circumference"] / lattice.cell_physical
            if abs(cells - round(cells)) > 1e-9 or round(cells) < 2:
                issues.append("ring.circumference: must be a whole number of lattice cells")
            if speed is None and block["circumference"] > 0:
                # the run resolves the eigen speed before scaling it, so both must be subluminal
                eigen = 2.0 * math.pi * block["mode"] / (lattice.mass * block["circumference"])
                if max(eigen, eigen * block["speed_factor"]) >= 1.0:
                    issues.append("ring.speed: superluminal drift (eigen speed too high; increase circumference or mass)")
    return issues


def _resolve_threads(value: str) -> int:
    if value == "auto":
        return min(8, os.cpu_count() or 1)
    return int(value)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


class _Artifacts:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.paths: list[Path] = []
        out_dir.mkdir(parents=True, exist_ok=True)

    def write_text(self, name: str, text: str) -> Path:
        path = self.out_dir / name
        path.write_text(text)
        self.paths.append(path)
        return path

    def add(self, paths) -> None:
        self.paths.extend(paths)

    def manifest(self, config: dict) -> Path:
        entries = {}
        for path in sorted(self.paths):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            entries[path.name] = {"sha256": digest, "bytes": path.stat().st_size}
        # thread count and output placement are execution policy, not
        # experiment identity; outputs are byte-identical across thread
        # counts and the manifest must be too
        recorded = {k: v for k, v in config.items()}
        recorded["run"] = {k: v for k, v in config["run"].items() if k not in ("threads", "out")}
        body = {"version": __version__, "config": recorded, "artifacts": entries}
        path = self.out_dir / "manifest.json"
        path.write_text(json.dumps(body, sort_keys=True, indent=2, default=str) + "\n")
        return path


def _run_chessboard(config: dict, art: _Artifacts, threads: int) -> list[str]:
    block = config["chessboard"]
    problem = ChessboardProblem(
        n_steps=block["n_steps"], displacement=block["displacement"],
        step_size=block["step_size"], mass=block["mass"],
        initial_direction=block["initial_direction"], final_direction=block["final_direction"],
        incoming_corner=block["incoming_corner"])
    hist = enumerate_corner_histogram(problem)
    by_sum = kernel_corner_sum(hist, problem.step_size, problem.mass)
    by_transfer = kernel_transfer_matrix(problem)
    exact = kernel_transfer_matrix(problem, exact=True)
    rows = [
        ("enumeration+corner_sum", by_sum.phi_plus, by_sum.phi_minus),
        ("transfer_matrix", by_transfer.phi_plus, by_transfer.phi_minus),
        ("transfer_matrix_exact", float(exact.phi_plus), float(exact.phi_minus)),
    ]
    table = "backend\tphi_plus\tphi_minus\n"
    for name, plus, minus in rows:
        table += f"{name}\t{_fmt(plus)}\t{_fmt(minus)}\n"
    art.write_text("kernel_table.tsv", table)

    hist_text = "corners\tcount\n"
    for r in sorted(hist.counts):
        hist_text += f"{r}\t{hist.counts[r]}\n"
    art.write_text("corner_histogram.tsv", hist_text)

    lines = [
        f"paths matching endpoints: {hist.total()}",
        f"kernel phi_plus={_fmt(by_sum.phi_plus)} phi_minus={_fmt(by_sum.phi_minus)}",
        "backend agreement: "
        + _fmt(max(abs(by_sum.phi_plus - by_transfer.phi_plus),
                   abs(by_sum.phi_minus - by_transfer.phi_minus))),
    ]
    if block["phase_t_max"] > 0:
        series = kernel_phase_series(block["phase_t_max"], problem.step_size, problem.mass,
                                     initial_direction=problem.initial_direction,
                                     final_direction=problem.final_direction,
                                     incoming_corner=problem.incoming_corner)
        text = "t\tphi_plus\tphi_minus\targ\n"
        for t, k in series:
            arg = math.atan2(k.phi_minus, k.phi_plus) if (k.phi_plus, k.phi_minus) != (0.0, 0.0) else 0.0
            text += f"{_fmt(t)}\t{_fmt(k.phi_plus)}\t{_fmt(k.phi_minus)}\t{_fmt(arg)}\n"
        art.write_text("phase_series.tsv", text)
        lines.append(f"phase series points: {len(series)}")
    return lines


def _run_carrier(config: dict, art: _Artifacts, threads: int) -> list[str]:
    lattice = LatticeSpec(n=config["lattice"]["n"], mass_scale=config["lattice"]["mass_scale"])
    block = config["carrier"]
    cable = build_cable((0.0, 0.0), lattice, M=block["m_cords"], repeats=block["repeats"])
    env = right_envelope(cable)
    field = field_for_segments(cable.segs, pad=2)
    accumulate(field, env, clip=config["run"]["clip"])
    art.add(export_field(field, art.out_dir, "carrier_field"))

    region = steady_region(cable, field)
    steady_cells = max(0, region.t_hi - region.t_lo)
    if steady_cells < 8:
        raise ValueError(
            f"steady region is only {steady_cells} cells; "
            "increase carrier.repeats or lattice.n for a meaningful fit")
    ts, xs = region.slices(field)
    ado = field.adolescent[ts, xs].sum(axis=1)
    sen = field.senescent[ts, xs].sum(axis=1)
    centers = field.t_centers()[ts]
    profile = "t_center\tadolescent\tsenescent\n"
    for t, a, s in zip(centers, ado, sen):
        profile += f"{_fmt(float(t))}\t{int(a)}\t{int(s)}\n"
    art.write_text("carrier_profile.tsv", profile)

    report = compare(field, ReferenceDensity("sinusoid"), "adolescent", region)
    fit = report.fitted
    quarter = lattice.cells_per_period // 4
    # the quarter-period channel lag is exact construct-wide, so correlate
    # over the full profile rather than the steady interior
    full_ado = field.adolescent.sum(axis=1)
    full_sen = field.senescent.sum(axis=1)
    lag = best_lag(full_ado, full_sen, lattice.cells_per_period // 2)
    fit_text = (
        "period\tamplitude\tphase\toffset\trms_residual\trel_rms\tlag_cells\tquarter_period_cells\n"
        f"{_fmt(fit.period)}\t{_fmt(fit.amplitude)}\t{_fmt(fit.phase)}\t{_fmt(fit.offset)}\t"
        f"{_fmt(fit.rms_residual)}\t{_fmt(fit.rel_rms)}\t{lag}\t{quarter}\n"
    )
    art.write_text("carrier_fit.tsv", fit_text)
    return [
        f"cable: {len(cable)} segments, {cable.extras['total_cords']} cords",
        f"sinusoid fit: period={_fmt(fit.period)} amplitude={_fmt(fit.amplitude)} rel_rms={_fmt(fit.rel_rms)}",
        f"channel lag: {lag} cells (quarter period = {quarter})",
    ]


def _run_propagate(config: dict, art: _Artifacts, threads: int) -> list[str]:
    lattice = LatticeSpec(n=config["lattice"]["n"], mass_scale=config["lattice"]["mass_scale"])
    block = config["propagate"]
    if block["v_count"] == 1:
        fan = (block["v_min"],)
    else:
        fan = tuple(float(v) for v in np.linspace(block["v_min"], block["v_max"], block["v_count"]))
    region = region_for_fan(lattice, fan, start_periods=block["start_periods"],
                            n_periods=block["n_periods"])
    result = write_region(region, M=block["m_cords"], threads=threads)
    art.add(export_field(result.field, art.out_dir, "region_field"))
    buf = io.StringIO()
    write_ray_report(result.reports, buf)
    art.write_text("ray_report.tsv", buf.getvalue())
    return [
        f"rays written: {len(result.reports)}",
        f"max relative frequency error: {_fmt(result.max_rel_freq_error)}",
        f"max relative rms residual: {_fmt(result.max_rel_rms)}",
    ]


def _run_ring(config: dict, art: _Artifacts, threads: int) -> list[str]:
    lattice = LatticeSpec(n=config["lattice"]["n"], mass_scale=config["lattice"]["mass_scale"])
    block = config["ring"]
    speed = block["speed"]
    if speed is None and block["speed_factor"] != 1.0:
        speed = block["speed_factor"] * eigen_speed(block["mode"], lattice.mass,
                                                    block["circumference"])
    spec = RingSpec(circumference=block["circumference"], mode=block["mode"], speed=speed,
                    cycles=block["cycles"])
    field = run_ring(spec, lattice, M=block["m_cords"], origin_cell=block["origin_cell"])
    art.add(export_field(field, art.out_dir, "ring_field"))

    v = spec.resolved_speed(lattice.mass)
    t_scale = lattice.mass_scale / (v * v) if v > 0 else lattice.mass_scale
    period_cells = 4.0 * t_scale / lattice.cell_physical
    wrap_cells = (spec.circumference / v) / lattice.cell_physical if v > 0 else field.t_cells
    metrics = standing_wave_metrics(field, slice_cells=max(1, int(round(wrap_cells))),
                                    period_cells=period_cells)
    cells_per_period = drift_in_cells_per_period(metrics, field.x_cells)
    text = (
        "dominant_mode\tphase_drift_rad_per_period\tdrift_cells_per_period\tmode_purity\tn_slices\tspeed\n"
        f"{metrics.dominant_mode}\t{_fmt(metrics.phase_drift)}\t{_fmt(cells_per_period)}\t"
        f"{_fmt(metrics.mode_purity)}\t{metrics.n_slices}\t{_fmt(v)}\n"
    )
    art.write_text("ring_metrics.tsv", text)
    return [
        f"speed: {_fmt(v)} (mode {spec.mode})",
        f"dominant spatial mode: {metrics.dominant_mode}",
        f"phase drift: {_fmt(cells_per_period)} cells/period, purity {_fmt(metrics.mode_purity)}",
    ]


_RUNNERS = {
    "chessboard": _run_chessboard,
    "carrier": _run_carrier,
    "propagate": _run_propagate,
    "ring": _run_ring,
}


def run(config: dict) -> int:
    """Execute the configured experiment; returns the process exit status."""
    issues = validate(config)
    if issues:
        for issue in issues:
            print(f"error: {issue}", file=sys.stderr)
        return 2
    threads = _resolve_threads(config["run"]["threads"])
    out_dir = Path(config["run"]["out"])
    art = _Artifacts(out_dir)
    try:
        lines = _RUNNERS[config["experiment"]](config, art, threads)
    except (ValueError, OverflowError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    summary = "\n".join([f"experiment: {config['experiment']}"] + lines) + "\n"
    art.write_text("summary.txt", summary)
    art.manifest(config)
    print(summary, end="")
    print(f"wrote {len(art.paths) + 1} files to {out_dir}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="INI config file; flags override its values")
    parser.add_argument("--out", help="output directory (default: out)")
    parser.add_argument("--threads", help="worker threads, integer or 'auto' (default: 1)")
    parser.add_argument("--n", type=int, help="lattice half-steps per period (even)")
    parser.add_argument("--mass-scale", type=float, dest="mass_scale",
                        help="physical time per internal unit (default pi/2, i.e. mass 1)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``entwined`` argument parser, built once per process and shared:
    building it costs more than a small experiment, and parsing never
    changes it."""
    parser = argparse.ArgumentParser(prog="entwined",
                                     description="deterministic entwined-path experiments")
    parser.add_argument("--version", action="version", version=f"entwined {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chessboard", help="three-backend lattice kernel table")
    _add_common(p)
    p.add_argument("--n-steps", type=int, dest="n_steps")
    p.add_argument("--displacement", type=int)
    p.add_argument("--step-size", type=float, dest="step_size")
    p.add_argument("--mass", type=float)
    p.add_argument("--initial-direction", dest="initial_direction", choices=(RIGHT, LEFT))
    p.add_argument("--final-direction", dest="final_direction", choices=(RIGHT, LEFT, ANY))
    p.add_argument("--incoming-corner", dest="incoming_corner", action="store_const", const="true")
    p.add_argument("--phase-t-max", type=float, dest="phase_t_max")

    p = sub.add_parser("carrier", help="cable density and sinusoid fit")
    _add_common(p)
    p.add_argument("--cords", type=int, dest="m_cords", help="cord amplitude M")
    p.add_argument("--repeats", type=int)

    p = sub.add_parser("propagate", help="ray-fan region write and frequency law")
    _add_common(p)
    p.add_argument("--cords", type=int, dest="m_cords")
    p.add_argument("--v-min", type=float, dest="v_min")
    p.add_argument("--v-max", type=float, dest="v_max")
    p.add_argument("--v-count", type=int, dest="v_count")
    p.add_argument("--start-periods", type=float, dest="start_periods")
    p.add_argument("--n-periods", type=float, dest="n_periods")

    p = sub.add_parser("ring", help="ring standing-wave experiment")
    _add_common(p)
    p.add_argument("--cords", type=int, dest="m_cords")
    p.add_argument("--circumference", type=float)
    p.add_argument("--mode", type=int)
    p.add_argument("--speed", type=float)
    p.add_argument("--speed-factor", type=float, dest="speed_factor")
    p.add_argument("--cycles", type=int)
    p.add_argument("--origin-cell", type=int, dest="origin_cell")

    p = sub.add_parser("validate", help="check a configuration and exit")
    _add_common(p)
    p.add_argument("--experiment", choices=EXPERIMENTS, default="carrier",
                   help="experiment block to validate (default carrier)")
    return parser


def _overrides_from_args(experiment: str, args: argparse.Namespace) -> dict:
    overrides: dict = {}
    mapping = {("lattice", "n"): "n", ("lattice", "mass_scale"): "mass_scale",
               ("run", "threads"): "threads", ("run", "out"): "out"}
    for key in _SCHEMA.get(experiment, {}):
        mapping[(experiment, key)] = key
    for target, attr in mapping.items():
        if hasattr(args, attr):
            overrides[target] = getattr(args, attr)
    return overrides


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    experiment = args.experiment if command == "validate" else command
    try:
        config = load_config(experiment, args.config, _overrides_from_args(experiment, args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if command == "validate":
        issues = validate(config)
        for issue in issues:
            print(issue)
        if issues:
            return 2
        print("configuration ok")
        return 0
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
