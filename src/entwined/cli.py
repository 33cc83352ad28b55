"""Command-line front end: collect a configuration, format what a run returns.

Configuration comes from an INI-style key = value file selected with
``--config`` plus per-flag overrides (flags win; every key has a flag).  Every run writes its data
files, a human-readable ``summary.txt``, and a ``manifest.json`` recording
the fully resolved configuration and a sha256 per artifact.  Output bytes
are identical for identical configurations regardless of thread count, so
manifests can be diffed directly.  The library owns every rule and the
experiments' logic: checking a configuration imports only the experiment's
modules and builds every object the run uses, a counting experiment's plan.
``validate`` refuses what that plan refuses, and a run counts the
plan it checked; only a ring's slice sums are checked after counting.

Exit status: 0 success, 2 configuration/validation error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .lattice import LatticeSpec, SpecError

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
    },
    "chessboard": {
        "n_steps": (int, 12),
        "displacement": (int, 0),
        "step_size": (float, 0.1),
        "mass": (float, 1.0),
        # chessboard.RIGHT and ANY, spelled out: only a chessboard run loads that module
        "initial_direction": (str, "right"),
        "final_direction": (str, "any"),
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
        import configparser

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


def _resolve_threads(value: str) -> int:
    if value == "auto":
        return min(8, os.cpu_count() or 1)
    try:
        threads = int(value)
    except ValueError:
        raise SpecError([f"threads: expected an integer or 'auto', got {value!r}"]) from None
    SpecError.check([] if threads >= 1 else ["threads: must be >= 1 or 'auto'"])
    return threads


def _specs(config: dict) -> tuple[dict, list[str]]:
    """Build every library object the configured run uses; each rule is raised
    by the library call that owns it.  Returns the objects and every broken
    rule as ``section.key: reason``; a run may start only when there is none.
    """
    problems: list[str] = []

    def build(section, make, names=None):
        try:
            return make()
        except SpecError as exc:
            for problem in exc.problems:
                field, reason = problem.split(": ", 1)
                problems.append(f"{section}.{(names or {}).get(field, field)}: {reason}")
            return None

    def from_section(cls, section):
        # the spec's fields are the section's keys of the same names
        block = config[section]
        return build(section, lambda: cls(**{f.name: block[f.name] for f in dataclasses.fields(cls)}))

    lattice = from_section(LatticeSpec, "lattice")
    # checked, though no experiment reads it: no layer runs in parallel, and
    # old command lines that pass it keep working
    build("run", lambda: _resolve_threads(config["run"]["threads"]))
    specs = {"lattice": lattice}
    exp = config["experiment"]
    block = config[exp]
    cords = {"M": "m_cords"}
    if exp == "chessboard":
        from .chessboard import ChessboardProblem, _check_cap, _phase_steps

        problem = specs["problem"] = from_section(ChessboardProblem, exp)
        build(exp, lambda: _check_cap(block["n_steps"]))
        if problem is not None and block["phase_t_max"] != 0:
            build(exp, lambda: _phase_steps(block["phase_t_max"], problem.step_size, problem.mass),
                  {"t_max": "phase_t_max"})
        return specs, problems
    from .paths import cable_rules

    if exp == "ring":
        from .ring import RingSpec, plan_ring

        spec = from_section(RingSpec, exp)
    ready = lattice is not None and (exp != "ring" or spec is not None)
    if exp == "propagate" or not ready:
        # planners check the cables they build from good specs only, a fan's for
        # a good fan only; a ring's cycles stay with RingSpec and its plan
        broken = len(problems)
        build(exp, lambda: cable_rules(config["lattice"]["n"], block["m_cords"],
                                       block.get("repeats", 1)), cords)
        cabled = len(problems) == broken
    if exp == "carrier" and ready:
        from .density import plan_carrier

        specs[exp] = build(exp, lambda: plan_carrier(lattice, block["m_cords"], block["repeats"]),
                           cords)
    elif exp == "propagate":
        from .propagator import plan_region, region_for_fan, velocity_fan

        fan = build(exp, lambda: velocity_fan(block["v_min"], block["v_max"], block["v_count"]))
        if ready and fan is not None:
            region = build(exp, lambda: region_for_fan(
                lattice, fan, block["start_periods"], block["n_periods"]))
            if region is not None and cabled:
                specs[exp] = build(exp, lambda: plan_region(region, block["m_cords"]), cords)
    elif exp == "ring" and ready:
        # a ring's cables take cycles + 2 repeats
        specs[exp] = build(exp, lambda: plan_ring(spec, lattice, block["m_cords"]),
                           {**cords, "repeats": "cycles"})
    return specs, problems


def validate(config: dict) -> list[str]:
    """Check a configuration and list every violation; an empty list means runnable."""
    return _specs(config)[1]


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


class _Artifacts:
    """Output files of one run.  ``--out`` is created by the first write, and
    runners compute all that can raise before they write (formatting a field
    as it is written cannot), so a run that fails leaves ``--out`` as it was.
    Each chunk goes to the file, sha256 and byte count at once: none is read back."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.entries: dict[str, dict] = {}

    def _dir(self) -> Path:
        if not self.entries:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir

    def _write(self, path: Path, chunks) -> None:
        digest, size = hashlib.sha256(), 0
        with open(path, "wb") as f:
            for chunk in chunks:
                digest.update(chunk)
                size += f.write(chunk)
        self.entries[path.name] = {"sha256": digest.hexdigest(), "bytes": size}

    def write_text(self, name: str, text: str) -> None:
        self._write(self._dir() / name, (text.encode(),))

    def export(self, field, name: str) -> None:
        from .density import export_field

        export_field(field, self._dir(), name, write=self._write)

    def manifest(self, config: dict) -> None:
        # thread count and output placement are execution policy, not
        # experiment identity; outputs are byte-identical across thread
        # counts and the manifest must be too
        recorded = {k: v for k, v in config.items()}
        recorded["run"] = {k: v for k, v in config["run"].items() if k not in ("threads", "out")}
        body = {"version": __version__, "config": recorded, "artifacts": self.entries}
        self.write_text("manifest.json", json.dumps(body, sort_keys=True, indent=2, default=str) + "\n")


def _run_chessboard(config: dict, art: _Artifacts, specs: dict) -> list[str]:
    """Three-backend lattice kernel table."""
    from .chessboard import (enumerate_corner_histogram, kernel_corner_sum, kernel_phase_series,
                             kernel_transfer_matrix)

    block = config["chessboard"]
    problem = specs["problem"]
    hist = enumerate_corner_histogram(problem)
    by_sum = kernel_corner_sum(hist, problem.step_size, problem.mass)
    by_transfer = kernel_transfer_matrix(problem)
    exact = kernel_transfer_matrix(problem, exact=True)
    series = []
    if block["phase_t_max"] > 0:
        series = kernel_phase_series(block["phase_t_max"], problem.step_size, problem.mass,
                                     initial_direction=problem.initial_direction,
                                     final_direction=problem.final_direction,
                                     incoming_corner=problem.incoming_corner)
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
    if series:
        text = "t\tphi_plus\tphi_minus\targ\n"
        for t, k in series:
            arg = math.atan2(k.phi_minus, k.phi_plus) if (k.phi_plus, k.phi_minus) != (0.0, 0.0) else 0.0
            text += f"{_fmt(t)}\t{_fmt(k.phi_plus)}\t{_fmt(k.phi_minus)}\t{_fmt(arg)}\n"
        art.write_text("phase_series.tsv", text)
        lines.append(f"phase series points: {len(series)}")
    return lines


def _run_carrier(config: dict, art: _Artifacts, specs: dict) -> list[str]:
    """Cable density and sinusoid fit."""
    from .density import _count, best_lag, fit_sinusoid

    lattice = specs["lattice"]
    cable, region, counting = specs.pop("carrier")
    _count(counting)
    field = counting.field
    del counting  # the counted passes die before the fit and the export

    # the steady region spans every x cell: its profile is a slice of the rows
    rows = field.counts.sum(axis=2)
    ts = region.slices(field)[0]
    ado, sen = rows[:, ts]
    centers = field.t_centers()[ts]
    fit = fit_sinusoid(centers, ado)
    quarter = lattice.cells_per_period // 4
    # the quarter-period channel lag is exact construct-wide, so correlate
    # over the full profile rather than the steady interior
    lag = best_lag(rows[0], rows[1], lattice.cells_per_period // 2)

    art.export(field, "carrier_field")
    profile = "t_center\tadolescent\tsenescent\n"
    for t, a, s in zip(centers, ado, sen):
        profile += f"{_fmt(float(t))}\t{int(a)}\t{int(s)}\n"
    art.write_text("carrier_profile.tsv", profile)
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


def _run_propagate(config: dict, art: _Artifacts, specs: dict) -> list[str]:
    """Ray-fan region write and frequency law."""
    from .propagator import count_region, write_ray_report

    result = count_region(*specs.pop("propagate"))
    art.export(result.field, "region_field")
    buf = io.StringIO()
    write_ray_report(result.reports, buf)
    art.write_text("ray_report.tsv", buf.getvalue())
    return [
        f"rays written: {len(result.reports)}",
        f"max relative frequency error: {_fmt(result.max_rel_freq_error)}",
        f"max relative rms residual: {_fmt(result.max_rel_rms)}",
    ]


def _run_ring(config: dict, art: _Artifacts, specs: dict) -> list[str]:
    """Ring standing-wave experiment."""
    from .density import _count
    from .ring import drift_in_cells_per_period, standing_wave_metrics

    block = config["ring"]
    v, slice_cells, period_cells, counting = specs.pop("ring")
    _count(counting)
    field = counting.field
    metrics = standing_wave_metrics(field, slice_cells, period_cells)
    cells_per_period = drift_in_cells_per_period(metrics, field.x_cells)

    art.export(field, "ring_field")
    text = (
        "dominant_mode\tphase_drift_rad_per_period\tdrift_cells_per_period\tmode_purity\tn_slices\tspeed\n"
        f"{metrics.dominant_mode}\t{_fmt(metrics.phase_drift)}\t{_fmt(cells_per_period)}\t"
        f"{_fmt(metrics.mode_purity)}\t{metrics.n_slices}\t{_fmt(v)}\n"
    )
    art.write_text("ring_metrics.tsv", text)
    return [
        f"speed: {_fmt(v)} (mode {block['mode']})",
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
    try:
        specs, problems = _specs(config)
        if problems:
            for problem in problems:
                print(f"error: {problem}", file=sys.stderr)
            return 2
        out_dir = Path(config["run"]["out"])
        art = _Artifacts(out_dir)
        lines = _RUNNERS[config["experiment"]](config, art, specs)
    except (ValueError, OverflowError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    summary = "\n".join([f"experiment: {config['experiment']}"] + lines) + "\n"
    art.write_text("summary.txt", summary)
    art.manifest(config)
    print(summary, end="")
    print(f"wrote {len(art.entries)} files to {out_dir}")
    return 0


def _flag_keys(command: str) -> list[tuple[str, str]]:
    """(section, key) of every config key that ``command`` sets with a flag."""
    sections = ("lattice", "run") + ((command,) if command in EXPERIMENTS else ())
    return [(section, key) for section in sections for key in _SCHEMA[section]]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``entwined`` argument parser, built once per process and shared:
    building it costs more than a small experiment, and parsing never
    changes it.

    Each config key is set by the flag ``--key-with-dashes`` (``m_cords`` by
    ``--cords``), whose ``dest`` is the key itself.
    """
    parser = argparse.ArgumentParser(prog="entwined",
                                     description="deterministic entwined-path experiments")
    parser.add_argument("--version", action="version", version=f"entwined {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, runner in {**_RUNNERS, "validate": validate}.items():
        p = sub.add_parser(command, help=runner.__doc__)
        p.add_argument("--config", help="INI config file; flags override its values")
        for section, key in _flag_keys(command):
            typ, default = _SCHEMA[section][key]
            flag = "--" + ("cords" if key == "m_cords" else key).replace("_", "-")
            kind = ({"action": "store_const", "const": "true"} if typ is bool
                    else {"type": typ} if typ is not str else {})
            p.add_argument(flag, dest=key, help=f"[{section}] {key} (default {_fmt(default)})",
                           **kind)
    sub.choices["validate"].add_argument(
        "--experiment", choices=EXPERIMENTS, default="carrier",
        help="experiment block to validate (default carrier)")
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    return {(section, key): getattr(args, key) for section, key in _flag_keys(args.command)}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    experiment = args.experiment if command == "validate" else command
    try:
        config = load_config(experiment, args.config, _overrides_from_args(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if command == "validate":
        try:  # the plans it builds can run out of memory, as a run can
            issues = validate(config)
        except (ValueError, OverflowError, MemoryError) as exc:
            print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
            return 1
        for issue in issues:
            print(issue)
        if issues:
            return 2
        print("configuration ok")
        return 0
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
