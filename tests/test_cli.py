import argparse
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import platform
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from entwined import cli, density, propagator, ring
from entwined.chessboard import ENUMERATION_CAP, ChessboardProblem, _phase_steps
from entwined.cli import ConfigError, load_config, main, validate
from entwined.density import plan_carrier
from entwined.lattice import LatticeSpec, SpecError
from entwined.paths import cable_counts
from entwined.propagator import plan_region, region_for_fan, velocity_fan
from entwined.ring import RingSpec, eigen_speed, plan_ring, ring_cells
from helpers import held_bound, savetxt_bytes


def run_cli(args):
    return main(list(args))


def read_tree(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# --- configuration ---------------------------------------------------------


def test_defaults_resolve():
    config = load_config("carrier", None, {})
    assert config["experiment"] == "carrier"
    assert config["lattice"]["n"] == 10
    assert config["carrier"]["m_cords"] == 20


def test_config_file_and_flag_precedence(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[lattice]\nn = 6\n\n[carrier]\nm_cords = 5\nrepeats = 2\n")
    config = load_config("carrier", str(ini), {})
    assert config["lattice"]["n"] == 6
    assert config["carrier"]["m_cords"] == 5
    # flags win over the file
    config = load_config("carrier", str(ini), {("carrier", "m_cords"): 9})
    assert config["carrier"]["m_cords"] == 9


def test_unknown_keys_rejected(tmp_path):
    ini = tmp_path / "bad.ini"
    ini.write_text("[carrier]\nwibble = 3\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config("carrier", str(ini), {})
    ini.write_text("[wibble]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config("carrier", str(ini), {})


def test_chessboard_direction_defaults_are_the_problems():
    # spelled out in the schema, so that resolving a configuration loads no chessboard
    defaults = {f.name: f.default for f in dataclasses.fields(ChessboardProblem)}
    for key in ("initial_direction", "final_direction", "incoming_corner"):
        assert cli._SCHEMA["chessboard"][key][1] == defaults[key]


def test_missing_config_file_rejected():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("carrier", "/nonexistent/file.ini", {})


def test_type_errors_reported(tmp_path):
    ini = tmp_path / "bad.ini"
    ini.write_text("[lattice]\nn = ten\n")
    with pytest.raises(ConfigError, match="expected int"):
        load_config("carrier", str(ini), {})


_FLOAT_KEYS = [(section, key) for section, keys in cli._SCHEMA.items()
               for key, (typ, _default) in keys.items() if typ is float]


@pytest.mark.parametrize("section, key", _FLOAT_KEYS, ids=[f"{s}.{k}" for s, k in _FLOAT_KEYS])
def test_non_finite_floats_are_configuration_errors(section, key, tmp_path, capsys):
    # a non-finite value stops at the configuration, before validate or a
    # run can trip over it or write files
    experiment = section if section in cli.EXPERIMENTS else "carrier"
    ini = tmp_path / "run.ini"
    out = tmp_path / "out"
    for value in ("inf", "-inf", "nan"):
        ini.write_text(f"[{section}]\n{key} = {value}\n")
        for args in ([f"--{key.replace('_', '-')}={value}"], ["--config", str(ini)]):
            assert run_cli([experiment, *args, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err == f"error: {section}.{key}: expected a finite float, got '{value}'\n"
            assert not out.exists()
    with pytest.raises(ConfigError, match=f"{section}.{key}: expected a finite float"):
        load_config(experiment, None, {(section, key): math.inf})


# --- validate --------------------------------------------------------------


def test_validate_superluminal_ring_speed():
    config = load_config("ring", None, {("ring", "speed"): 1.2})
    issues = validate(config)
    assert any("superluminal drift" in issue for issue in issues)


def test_validate_rejects_relativistic_eigen_speed_before_scaling(tmp_path, capsys):
    # the eigen speed 2*pi/(m*L) is exactly 1 here; a speed factor of 0.5 does
    # not rescue the run, which resolves the eigen speed before scaling it
    L = repr(2.0 * math.pi)
    config = load_config("ring", None, {("ring", "circumference"): float(L),
                                        ("ring", "speed_factor"): 0.5})
    assert any(issue.startswith("ring.speed:") for issue in validate(config))
    out = tmp_path / "out"
    assert run_cli(["ring", "--circumference", L, "--speed-factor", "0.5", "--out", str(out)]) == 2
    assert "error: ring.speed:" in capsys.readouterr().err
    assert not out.exists()


def test_validate_reports_zero_circumference(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["ring", "--circumference", "0", "--out", str(out)]) == 2
    assert "error: ring.circumference: must be positive" in capsys.readouterr().err


def test_validate_rejects_speed_factor_with_explicit_speed(tmp_path, capsys):
    # the factor scales the eigen speed, which an explicit speed replaces
    config = load_config("ring", None, {("ring", "speed"): 0.3, ("ring", "speed_factor"): 1.5})
    assert "ring.speed_factor: cannot be combined with ring.speed" in validate(config)
    for alone in ({("ring", "speed"): 0.3}, {("ring", "speed_factor"): 1.5},
                  {("ring", "speed"): 0.3, ("ring", "speed_factor"): 1.0}):
        assert not any("cannot be combined" in i for i in validate(load_config("ring", None, alone)))
    out = tmp_path / "out"
    args = ["ring", "--n", "8", "--cords", "4", "--cycles", "2", "--speed", "0.3",
            "--speed-factor", "1.5", "--out", str(out)]
    assert run_cli(args) == 2
    assert "error: ring.speed_factor: cannot be combined with ring.speed" in capsys.readouterr().err
    assert not out.exists()


def test_validate_zero_n():
    config = load_config("carrier", None, {("lattice", "n"): 0})
    issues = validate(config)
    assert any("n must be positive" in issue for issue in issues)


def test_validate_good_fig3_config_is_clean():
    config = load_config("carrier", None, {("lattice", "n"): 10, ("carrier", "m_cords"): 20})
    assert validate(config) == []


def test_validate_subcommand_exit_codes(tmp_path, capsys):
    assert run_cli(["validate", "--experiment", "carrier"]) == 0
    assert "configuration ok" in capsys.readouterr().out
    assert run_cli(["validate", "--n", "0"]) == 2


def test_validate_rejects_n_steps_past_enumeration_cap(tmp_path, capsys):
    ini = tmp_path / "big.ini"
    ini.write_text("[chessboard]\nn_steps = 30\n")
    assert run_cli(["validate", "--experiment", "chessboard", "--config", str(ini)]) == 2
    assert "chessboard.n_steps: exceeds enumeration cap 24" in capsys.readouterr().out
    out = tmp_path / "out"
    assert run_cli(["chessboard", "--n-steps", "30", "--out", str(out)]) == 2
    assert not out.exists()
    config = load_config("chessboard", None, {("chessboard", "n_steps"): ENUMERATION_CAP})
    assert validate(config) == []


def test_run_refuses_invalid_config(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["carrier", "--n", "7", "--out", str(out)]) == 2
    assert not out.exists()


def test_runtime_error_exit_code(tmp_path):
    # valid configuration, but the ring circumference does not tile the lattice
    out = tmp_path / "out"
    code = run_cli(["ring", "--n", "20", "--circumference", "10.0001",
                    "--cords", "5", "--cycles", "2", "--out", str(out)])
    assert code == 2  # caught by validation: not a whole number of cells


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 1.07 GiB for an array"), "error: Unable to allocate 1.07 GiB"),
    (MemoryError(), "error: out of memory")])
def test_memory_error_reported_not_raised(tmp_path, capsys, monkeypatch, exc, message):
    def exhausted(config, art, threads):
        raise exc

    monkeypatch.setitem(cli._RUNNERS, "carrier", exhausted)
    out = tmp_path / "out"
    assert run_cli(["carrier", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("experiment, owner", [
    ("carrier", density), ("propagate", propagator), ("ring", ring)])
def test_memory_error_while_planning_exits_1(tmp_path, capsys, monkeypatch, experiment, owner):
    # the plan builds the cable at validate, and a run builds its plan first:
    # running out of memory there is a runtime error, not a traceback
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(owner, "build_cable", exhausted)
    out = tmp_path / "out"
    assert run_cli([experiment, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"
    assert not out.exists()
    assert run_cli(["validate", "--experiment", experiment]) == 1
    assert capsys.readouterr() == ("", "error: out of memory\n")


_CARRIER_TOO_SHORT = ("error: carrier.repeats: steady region is only 0 cells; a sinusoid fit "
                      "needs at least 8 (increase repeats or the lattice's n)\n")
_RING_TOO_SHORT = ("error: ring.cycles: one wrap spans 43 cells, more than the 14 cells written "
                   "(cycles = 1)\n")
_WINDOW_TOO_SHORT = ("error: propagate.n_periods: the window spans only {} time cells; a sinusoid "
                     "fit needs at least 8 (increase n_periods or the lattice's n)\n")
_LAG_TOO_LONG = ("error: propagate.n_periods: the window spans only {} time cells; the channel "
                 "lag of the ray at v = -0.25 is searched over {} cells and needs at least {} "
                 "(increase n_periods)\n")


def test_empty_steady_region_is_reported_as_such(tmp_path, capsys):
    # n=2 with one repeat: the cable's steady window holds no whole cell,
    # found by the carrier's plan from the cable it builds, before any count
    out = tmp_path / "out"
    assert run_cli(["carrier", "--n", "2", "--cords", "1", "--repeats", "1",
                    "--out", str(out)]) == 2
    assert capsys.readouterr().err == _CARRIER_TOO_SHORT
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("experiment, ini, message", [
    ("carrier", "[lattice]\nn = 2\n[carrier]\nm_cords = 1\nrepeats = 1\n", _CARRIER_TOO_SHORT),
    ("ring", "[lattice]\nn = 4\n[ring]\nm_cords = 1\ncycles = 1\nmode = 3\n", _RING_TOO_SHORT),
    ("propagate", "[lattice]\nn = 2\n[propagate]\nm_cords = 1\nn_periods = 0.1\n",
     _WINDOW_TOO_SHORT.format(1)),
    ("propagate", "[lattice]\nn = 10\n[propagate]\nm_cords = 10\nn_periods = 1.1\n",
     _LAG_TOO_LONG.format(22, 22, 23)),
], ids=["carrier", "ring", "propagate", "propagate-lag"])
def test_validate_refuses_what_the_run_refuses(tmp_path, capsys, experiment, ini, message):
    config = tmp_path / "run.ini"
    config.write_text(ini)
    assert run_cli(["validate", "--experiment", experiment, "--config", str(config)]) == 2
    assert capsys.readouterr().out == message.removeprefix("error: ")


@pytest.mark.parametrize("n_periods, problems, status", [
    (1.75, [_WINDOW_TOO_SHORT.format(7).removeprefix("error: ").rstrip()], 2),
    (2.0, [], 0),
], ids=["7-cells", "8-cells"])
def test_validate_refuses_a_window_one_cell_short_of_a_fit(tmp_path, n_periods, problems, status):
    # n=2 has 4 time cells a period: 1.75 periods hold 7, one short of a fit;
    # 2 periods hold 8, and the run that validate passes fits every ray
    overrides = {("lattice", "n"): 2, ("propagate", "m_cords"): 1,
                 ("propagate", "n_periods"): n_periods}
    assert validate(load_config("propagate", None, overrides)) == problems
    argv = ["propagate", "--n", "2", "--cords", "1", "--n-periods", str(n_periods)]
    assert run_cli(argv + ["--out", str(tmp_path / "out")]) == status


@pytest.mark.parametrize("n, cords, n_periods, message", [
    (10, 10, 1.0, _LAG_TOO_LONG.format(20, 22, 23)),
    (10, 10, 1.1, _LAG_TOO_LONG.format(22, 22, 23)),
    (10, 10, 1.2, None),
    (50, 60, 1.05, _LAG_TOO_LONG.format(105, 105, 106)),
], ids=["n10-1.0", "n10-1.1", "n10-1.2", "n50-1.05"])
def test_validate_refuses_a_window_no_longer_than_the_slowest_rays_lag_search(
        tmp_path, capsys, n, cords, n_periods, message):
    # each window holds the 8 samples a fit needs; the slowest rays, v = +-0.25,
    # shift their senescent profile by up to int(2*pi/omega/cell) + 2 cells,
    # and best_lag needs one cell more than that
    overrides = {("lattice", "n"): n, ("propagate", "m_cords"): cords,
                 ("propagate", "n_periods"): n_periods}
    expected = [] if message is None else [message.removeprefix("error: ").rstrip()]
    assert validate(load_config("propagate", None, overrides)) == expected
    out = tmp_path / "out"
    argv = ["propagate", "--n", str(n), "--cords", str(cords), "--n-periods", str(n_periods)]
    assert run_cli(argv + ["--out", str(out)]) == (0 if message is None else 2)
    assert capsys.readouterr().err == ("" if message is None else message)
    assert out.exists() == (message is None)


@pytest.mark.parametrize("argv, status, message", [
    (["carrier", "--n", "2", "--cords", "1", "--repeats", "1"], 2, _CARRIER_TOO_SHORT),
    (["ring", "--n", "4", "--cords", "1", "--cycles", "1", "--mode", "3"], 2, _RING_TOO_SHORT),
    (["propagate", "--n", "2", "--cords", "1", "--n-periods", "0.1"], 2,
     _WINDOW_TOO_SHORT.format(1)),
], ids=["carrier", "ring", "propagate"])
def test_failed_run_leaves_a_missing_out_missing(tmp_path, capsys, argv, status, message):
    # each stops at its rules, before anything is counted, and writes nothing
    out = tmp_path / "out"
    assert run_cli(argv + ["--out", str(out)]) == status
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--phase-t-max", "0.05"], "error: chessboard.phase_t_max: smaller than one step of 0.1\n"),
    (["--phase-t-max", "-3"], "error: chessboard.phase_t_max: smaller than one step of 0.1\n"),
    (["--initial-direction", "up"], "error: chessboard.initial_direction: must be right or left\n"),
], ids=["phase-t-max", "phase-t-max-negative", "direction"])
def test_chessboard_rules_stop_the_run_before_it_writes(tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    assert run_cli(["chessboard", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert not out.exists()
    # the validate subcommand reads the same rule from a config file
    key, value = flags[0][2:].replace("-", "_"), flags[1]
    ini = tmp_path / "run.ini"
    ini.write_text(f"[chessboard]\n{key} = {value}\n")
    assert run_cli(["validate", "--experiment", "chessboard", "--config", str(ini)]) == 2
    assert capsys.readouterr().out == message.removeprefix("error: ")


_EIGEN_L = 22 * math.pi / 10  # 22 cells at n=10; eigen speed 20/22

# (experiment, overrides, section, the library call that holds the rule)
_BAD_VALUES = {
    "lattice-n-zero": ("carrier", {("lattice", "n"): 0}, "lattice",
                       lambda: LatticeSpec(n=0)),
    "lattice-odd-n-and-mass-scale": (
        "ring", {("lattice", "n"): 7, ("lattice", "mass_scale"): -1.0}, "lattice",
        lambda: LatticeSpec(n=7, mass_scale=-1.0)),
    "chessboard-steps-size-mass": (
        "chessboard", {("chessboard", "n_steps"): 0, ("chessboard", "step_size"): 0.0,
                       ("chessboard", "mass"): -1.0}, "chessboard",
        lambda: ChessboardProblem(n_steps=0, displacement=0, step_size=0.0, mass=-1.0)),
    "chessboard-directions": (
        "chessboard", {("chessboard", "initial_direction"): "up",
                       ("chessboard", "final_direction"): "down"}, "chessboard",
        lambda: ChessboardProblem(n_steps=12, displacement=0, step_size=0.1,
                                  initial_direction="up", final_direction="down")),
    "ring-spec": ("ring", {("ring", "circumference"): -1.0, ("ring", "mode"): 0,
                           ("ring", "speed"): 1.2, ("ring", "cycles"): 0}, "ring",
                  lambda: RingSpec(circumference=-1.0, mode=0, speed=1.2, cycles=0)),
    "ring-cells": ("ring", {("ring", "circumference"): 10.0001}, "ring",
                   lambda: ring_cells(10.0001, LatticeSpec(n=10))),
    "eigen-before-factor": (
        "ring", {("ring", "circumference"): 2.0 * math.pi, ("ring", "speed_factor"): 0.5}, "ring",
        lambda: eigen_speed(1, LatticeSpec(n=10).mass, 2.0 * math.pi)),
    "eigen-after-factor": (
        "ring", {("ring", "circumference"): _EIGEN_L, ("ring", "speed_factor"): 1.2}, "ring",
        lambda: RingSpec(circumference=_EIGEN_L, speed_factor=1.2).resolved_speed(
            LatticeSpec(n=10).mass)),
    "factor-too-slow": (
        "ring", {("ring", "speed_factor"): 1e-170}, "ring",
        lambda: plan_ring(RingSpec(circumference=8.0 * math.pi, speed_factor=1e-170),
                          LatticeSpec(n=10), M=30)),
    "carrier-steady-cells": (
        "carrier", {("lattice", "n"): 4, ("carrier", "m_cords"): 3, ("carrier", "repeats"): 2},
        "carrier", lambda: plan_carrier(LatticeSpec(n=4), 3, 2)),
    "propagate-window": (
        "propagate", {("lattice", "n"): 2, ("propagate", "m_cords"): 1,
                      ("propagate", "n_periods"): 0.1}, "propagate",
        lambda: plan_region(region_for_fan(LatticeSpec(n=2), (-0.25, 0.25), 2.0, 0.1), 1)),
    "ring-wrap": (
        "ring", {("lattice", "n"): 4, ("ring", "m_cords"): 1, ("ring", "cycles"): 1,
                 ("ring", "mode"): 3}, "ring",
        lambda: plan_ring(RingSpec(circumference=8.0 * math.pi, mode=3, cycles=1),
                          LatticeSpec(n=4), M=1)),
    # rules whose field names differ from their config keys take _specs' renames
    "carrier-m-cords": ("carrier", {("carrier", "m_cords"): 0}, "carrier",
                        lambda: cable_counts(10, 0, 3), {"M": "m_cords"}),
    "carrier-repeats": ("carrier", {("carrier", "repeats"): 0}, "carrier",
                        lambda: cable_counts(10, 20, 0)),
    "ring-m-cords": ("ring", {("ring", "m_cords"): 0}, "ring",
                     lambda: cable_counts(10, 0, 8 + 2), {"M": "m_cords"}),
    "propagate-v-count": ("propagate", {("propagate", "v_count"): 0}, "propagate",
                          lambda: velocity_fan(-0.25, 0.25, 0)),
    "propagate-v-order": ("propagate", {("propagate", "v_min"): 0.2, ("propagate", "v_max"): 0.1},
                          "propagate", lambda: velocity_fan(0.2, 0.1, 11)),
    "propagate-superluminal": (
        "propagate", {("propagate", "v_min"): -1.5, ("propagate", "v_max"): 1.0}, "propagate",
        lambda: velocity_fan(-1.5, 1.0, 11)),
    "propagate-start-periods": (
        "propagate", {("propagate", "start_periods"): 0.0}, "propagate",
        lambda: region_for_fan(LatticeSpec(n=10), velocity_fan(-0.25, 0.25, 11), 0.0, 6.0)),
    "propagate-n-periods": (
        "propagate", {("propagate", "n_periods"): -1.0}, "propagate",
        lambda: region_for_fan(LatticeSpec(n=10), velocity_fan(-0.25, 0.25, 11), 2.0, -1.0)),
    "propagate-window-rounds": (
        "propagate", {("propagate", "start_periods"): 1e20}, "propagate",
        lambda: region_for_fan(LatticeSpec(n=10), velocity_fan(-0.25, 0.25, 11), 1e20, 6.0)),
    "propagate-lag-window": (
        "propagate", {("propagate", "n_periods"): 1.1}, "propagate",
        lambda: plan_region(region_for_fan(LatticeSpec(n=10), velocity_fan(-0.25, 0.25, 11),
                                           2.0, 1.1), 60)),
    "propagate-field-size": (
        "propagate", {("propagate", "n_periods"): 1e16}, "propagate",
        lambda: plan_region(region_for_fan(LatticeSpec(n=10), velocity_fan(-0.25, 0.25, 11),
                                           2.0, 1e16), 60)),
    # n = 10 at 1e16 cords: the counts can reach the sum of the cords, 6.3e16, past 2**53
    "carrier-exact-sum": (
        "carrier", {("carrier", "m_cords"): 10 ** 16}, "carrier",
        lambda: plan_carrier(LatticeSpec(n=10), 10 ** 16, 3), {"M": "m_cords"}),
    # 1e301 steps of 0.1: their (2n+1, 2) complex128 transfer state passes the largest array
    "chessboard-phase-array": (
        "chessboard", {("chessboard", "phase_t_max"): 1e300}, "chessboard",
        lambda: _phase_steps(1e300, 0.1, 1.0), {"t_max": "phase_t_max"}),
}


@pytest.mark.parametrize("case", list(_BAD_VALUES))
def test_validate_reports_the_problems_the_library_raises(case):
    experiment, overrides, section, library_call, *names = _BAD_VALUES[case]
    renames = names[0] if names else {}
    with pytest.raises(SpecError) as exc:
        library_call()
    assert exc.value.problems
    fields = [problem.split(": ", 1) for problem in exc.value.problems]
    assert validate(load_config(experiment, None, overrides)) == [
        f"{section}.{renames.get(field, field)}: {reason}" for field, reason in fields]


_ODD_N = "lattice.n: n must be even so quarter periods align to cells"


@pytest.mark.parametrize("argv, lines", [
    (["carrier", "--cords", "0", "--repeats", "0"],
     ["carrier.m_cords: must be >= 1", "carrier.repeats: must be >= 1"]),
    (["propagate", "--cords", "0", "--v-min", "2", "--v-max", "1.5"],
     ["propagate.m_cords: must be >= 1", "propagate.v_min: must not exceed v_max",
      "propagate.v_min: superluminal drift", "propagate.v_max: superluminal drift"]),
    # a refused lattice or RingSpec builds no cable, and the cable rules report beside it
    (["carrier", "--n", "3", "--cords", "0"], [_ODD_N, "carrier.m_cords: must be >= 1"]),
    (["ring", "--n", "3", "--cords", "0"], [_ODD_N, "ring.m_cords: must be >= 1"]),
    (["ring", "--mode", "0", "--cords", "0"], ["ring.mode: must be >= 1", "ring.m_cords: must be >= 1"]),
    (["ring", "--speed-factor", "-1", "--cords", "0"],
     ["ring.speed_factor: must be positive", "ring.m_cords: must be >= 1"]),
], ids=["carrier", "propagate", "carrier-lattice", "ring-lattice", "ring-spec", "ring-factor"])
def test_owners_that_do_not_depend_on_each_other_report_together(tmp_path, capsys, argv, lines):
    assert run_cli(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "".join(f"error: {line}\n" for line in lines)


@pytest.mark.parametrize("factor, reason", [
    ("-1", "must be positive"),
    ("10", "superluminal drift; scaled eigen speed 2.5 must lie below 1"),
    ("1e-170", "drift speed 2.5e-171 is too slow for a finite count of cells"),
])
def test_speed_factor_rules_name_the_factor(tmp_path, capsys, factor, reason):
    # the eigen speed at the default n and circumference is 0.25
    assert run_cli(["ring", "--speed-factor", factor, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: ring.speed_factor: {reason}\n"


# values whose times or cell counts overflow to inf (or whose squares underflow
# to 0) or past int64, repeat counts past a cable's int32 reach, cord counts
# past an int64 weight and cycles past the largest float, a field or a
# transfer state past the largest array and a window whose end rounds to its
# start: each owner refuses them before a cast raises or a cable is built.
# A carrier, fan or ring whose counts could reach 2**53 is refused by its
# plan, once its cable is built and before anything is counted
_REFUSED_BY_THEIR_OWNER = {
    "start-periods": ["propagate", "--start-periods", "1e308"],
    "n-periods": ["propagate", "--n-periods", "1e308"],
    "n-periods-int64": ["propagate", "--n-periods", "1e20"],
    "carrier-cords": ["carrier", "--cords", "100000000000000000000"],
    "mass-scale": ["propagate", "--mass-scale", "1e-310"],
    "ring-speed": ["ring", "--speed", "1e-200"],
    "ring-circumference": ["ring", "--circumference", "1e300"],
    "ring-rows": ["ring", "--n", "100", "--speed", "1e-150", "--cycles", "1000000"],
    "ring-wrap": ["ring", "--n", "1000000", "--circumference", "1e300", "--speed", "1e-5"],
    "phase-steps": ["chessboard", "--step-size", "1e-320", "--phase-t-max", "1"],
    "carrier-repeats": ["carrier", "--repeats", "2000000000"],
    "ring-cycles": ["ring", "--cycles", "2000000000"],
    "ring-cycles-float": ["ring", "--cycles", "1" + "0" * 309],
    "n-periods-field": ["propagate", "--n-periods", "1e16"],
    "carrier-cords-exact": ["carrier", "--cords", "10000000000000000"],
    "start-periods-float": ["propagate", "--start-periods", "1e20"],
    "propagate-cords-exact": ["propagate", "--n", "50", "--cords", "1000000000000000"],
    "ring-cords-exact": ["ring", "--n", "20", "--cords", "10000000000000000"],
    "phase-t-max-array": ["chessboard", "--phase-t-max", "1e300"],
}


@pytest.mark.parametrize("argv", list(_REFUSED_BY_THEIR_OWNER.values()),
                         ids=list(_REFUSED_BY_THEIR_OWNER))
def test_out_of_range_values_exit_2_with_rule_lines_only(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would be a value gone astray
        started = time.perf_counter()
        assert run_cli(argv + ["--out", str(out)]) == 2
        assert time.perf_counter() - started < 5.0  # refused before anything is counted
    err = capsys.readouterr().err
    assert err and all(re.fullmatch(r"error: [a-z_]+\.[a-z_]+: .+", line)
                       for line in err.splitlines())
    assert not out.exists()
    # validate reads the same values from a config file and prints the same rules
    experiment, flags = argv[0], argv[1:]
    sections = {}
    for flag, value in zip(flags[::2], flags[1::2]):
        key = "m_cords" if flag == "--cords" else flag[2:].replace("-", "_")
        section = "lattice" if key in cli._SCHEMA["lattice"] else experiment
        sections.setdefault(section, []).append(f"{key} = {value}\n")
    ini = tmp_path / "run.ini"
    ini.write_text("".join(f"[{section}]\n" + "".join(keys) for section, keys in sections.items()))
    assert run_cli(["validate", "--experiment", experiment, "--config", str(ini)]) == 2
    assert capsys.readouterr().out == err.replace("error: ", "")


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def _non_default(section, key):
    typ, default = cli._SCHEMA[section][key]
    if typ is bool:
        return [], True
    if typ is int:
        return [str(default + 3)], default + 3
    if typ is float:
        return ["0.375"], 0.375
    return [f"x{default}"], f"x{default}"


@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
def test_every_schema_key_is_set_by_its_generated_flag(experiment):
    keys = [("lattice", "n"), ("lattice", "mass_scale"), ("run", "threads"), ("run", "out")]
    keys += [(experiment, key) for key in cli._SCHEMA[experiment]]
    argv, expected = [experiment], {}
    for section, key in keys:
        flag = "--cords" if key == "m_cords" else "--" + key.replace("_", "-")
        words, expected[section, key] = _non_default(section, key)
        argv += [flag, *words]
    args = cli.build_parser().parse_args(argv)
    config = load_config(experiment, None, cli._overrides_from_args(args))
    assert {(section, key): config[section][key] for section, key in keys} == expected


@pytest.mark.parametrize("command", [*cli.EXPERIMENTS, "validate"])
def test_no_flag_without_a_config_key(command):
    sections = ["lattice", "run"] + ([command] if command in cli.EXPERIMENTS else [])
    keys = {key for section in sections for key in cli._SCHEMA[section]}
    dests = {action.dest for action in _subcommands()[command]._actions}
    extra = {"help", "config"} | ({"experiment"} if command == "validate" else set())
    assert dests - extra <= keys
    assert keys - dests == {"clip"}  # [run] clip is set in a config file only


def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_rejected_command_lines_leave_the_shared_parser_intact(tmp_path, monkeypatch, capsys):
    for bad in (["propagate", "--n", "ten"], ["propagate", "--wibble", "1"], ["wibble"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(bad)
        assert exc.value.code == 2
    argv = ["propagate", "--n", "10", "--cords", "10", "--v-count", "3", "--n-periods", "3"]
    assert run_cli(argv + ["--out", str(tmp_path / "shared")]) == 0
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    assert run_cli(argv + ["--out", str(tmp_path / "fresh")]) == 0
    assert read_tree(tmp_path / "shared") == read_tree(tmp_path / "fresh")


@pytest.mark.parametrize("flags", [
    # the return amplitude passes double range at t = 2169
    ["--step-size", "0.9", "--phase-t-max", "3600"],
    # (eps*mass)**23 = 1e4600 in the corner sum, and inf in the float transfer
    ["--n-steps", "24", "--step-size", "1e200"],
], ids=["phase-series", "corner-sum"])
def test_chessboard_overflow_exits_1_before_it_writes(tmp_path, capsys, flags):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["chessboard", *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: corner sum overflowed double precision; use exact=True\n"
    assert not out.exists()


# --- experiments produce their artifacts ------------------------------------


def test_chessboard_artifacts(tmp_path):
    out = tmp_path / "cb"
    assert run_cli(["chessboard", "--n-steps", "10", "--step-size", "0.1",
                    "--phase-t-max", "1.0", "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"kernel_table.tsv", "corner_histogram.tsv", "phase_series.tsv",
                     "summary.txt", "manifest.json"}
    table = (out / "kernel_table.tsv").read_text().splitlines()
    assert table[0] == "backend\tphi_plus\tphi_minus"
    assert len(table) == 4
    # all three backends agree row for row
    rows = [line.split("\t") for line in table[1:]]
    for column in (1, 2):
        values = {float(row[column]) for row in rows}
        assert max(values) - min(values) < 1e-12


def test_carrier_artifacts(tmp_path):
    out = tmp_path / "ca"
    assert run_cli(["carrier", "--n", "6", "--cords", "8", "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert {"carrier_field.adolescent.tsv", "carrier_field.senescent.tsv",
            "carrier_field.meta.json", "carrier_profile.tsv", "carrier_fit.tsv",
            "summary.txt", "manifest.json"} == names


def test_ring_artifacts(tmp_path):
    out = tmp_path / "ri"
    assert run_cli(["ring", "--n", "8", "--cords", "6", "--cycles", "3",
                    "--out", str(out)]) == 0
    metrics = (out / "ring_metrics.tsv").read_text().splitlines()
    assert metrics[0].startswith("dominant_mode\t")
    assert len(metrics) == 2


def test_propagate_artifacts(tmp_path):
    out = tmp_path / "pr"
    assert run_cli(["propagate", "--n", "8", "--cords", "6", "--v-count", "3",
                    "--n-periods", "2", "--out", str(out)]) == 0
    report = (out / "ray_report.tsv").read_text().splitlines()
    assert report[0].startswith("v\tomega_expected")
    assert len(report) == 5  # header + 3 rays + summary line
    assert report[-1].startswith("# max_rel_freq_error")


def test_heavy_carrier_writes_the_quarter_period_lag(tmp_path):
    # at 1e10 cords the profiles' lag scores pass int64; scored exactly, the
    # lag is the quarter period, as at small cord counts
    out = tmp_path / "ca"
    assert run_cli(["carrier", "--n", "10", "--cords", "10000000000", "--out", str(out)]) == 0
    header, row = (out / "carrier_fit.tsv").read_text().splitlines()
    fit = dict(zip(header.split("\t"), row.split("\t")))
    assert fit["lag_cells"] == fit["quarter_period_cells"] == "5"


@pytest.mark.parametrize("cords", [20, 10 ** 10])
def test_carrier_fit_and_profile_are_those_of_compare_on_the_steady_region(tmp_path, cords):
    # the runner fits and prints slices of the field's row sums; compare fits the steady
    # region's x-summed profile.  At 1e10 cords the lag scores take the object route
    out = tmp_path / "ca"
    assert run_cli(["carrier", "--n", "10", "--cords", str(cords), "--out", str(out)]) == 0
    lattice = LatticeSpec(n=10)
    cable, _region, counting = plan_carrier(lattice, cords, 3)
    density._count(counting)
    field = counting.field
    region = density.steady_region(cable, field)
    fit = density.compare(field, density.ReferenceDensity("sinusoid"), "adolescent", region).fitted
    lag = density.best_lag(field.adolescent.sum(axis=1), field.senescent.sum(axis=1),
                           lattice.cells_per_period // 2)
    _header, row = (out / "carrier_fit.tsv").read_text().splitlines()
    assert [float(v) for v in row.split("\t")[:6]] == [
        fit.period, fit.amplitude, fit.phase, fit.offset, fit.rms_residual, fit.rel_rms]
    assert row.split("\t")[6:] == [str(lag), str(lattice.cells_per_period // 4)]
    ts, xs = region.slices(field)
    profile = np.loadtxt(out / "carrier_profile.tsv", skiprows=1, dtype=object)
    assert profile[:, 0].astype(float).tolist() == field.t_centers()[ts].tolist()
    for column, channel in ((1, field.adolescent), (2, field.senescent)):
        assert profile[:, column].astype(int).tolist() == channel[ts, xs].sum(axis=1).tolist()


def test_heavy_fan_runs_and_keeps_each_rays_lag(tmp_path):
    # 2e10 cords: the fan's counts stay far below 2**53, so it runs, and each
    # ray's lag lies within a cell of its quarter period
    out = tmp_path / "pr"
    assert run_cli(["propagate", "--n", "50", "--cords", "20000000000", "--out", str(out)]) == 0
    rows = [line.split("\t") for line in (out / "ray_report.tsv").read_text().splitlines()[1:-1]]
    assert len(rows) == 11
    assert all(abs(int(row[6]) - float(row[7])) <= 1.0 for row in rows)


def test_heavy_ring_reads_its_slice_sums_exactly(tmp_path):
    # at 1e14 cords a wrap's rows times the largest count pass 2**53, but no
    # slice sums past 2.1e14: the ring runs, and its eigen mode stands still
    # with the purity of a light ring
    rows = []
    for cords in ("30", "100000000000000"):
        out = tmp_path / cords
        assert run_cli(["ring", "--n", "20", "--cords", cords, "--out", str(out)]) == 0
        header, row = (out / "ring_metrics.tsv").read_text().splitlines()
        rows.append(dict(zip(header.split("\t"), row.split("\t"))))
    light, heavy = rows
    assert heavy["dominant_mode"] == light["dominant_mode"] == "1"
    assert float(heavy["drift_cells_per_period"]) == float(light["drift_cells_per_period"]) == 0.0
    assert abs(float(heavy["mode_purity"]) - float(light["mode_purity"])) < 0.02


def _same_bytes_counting_lines():
    """The counting command lines of tools/same_bytes.py (kernel sweep seed 7)."""
    path = Path(__file__).resolve().parent.parent / "tools" / "same_bytes.py"
    spec = importlib.util.spec_from_file_location("same_bytes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: argv for name, argv in module.command_lines(7).items() if argv[0] != "chessboard"}


@pytest.mark.parametrize("argv", list(_same_bytes_counting_lines().values()),
                         ids=list(_same_bytes_counting_lines()))
def test_the_run_counts_the_plan_validate_builds(tmp_path, monkeypatch, argv):
    # validate's plan and the plan the run counts share one bound and one
    # store type, which the counted field has and whose bound its cells and
    # rows keep; a plan refused at validate refuses the run before any count
    args = cli.build_parser().parse_args(argv)
    specs, problems = cli._specs(load_config(args.command, None, cli._overrides_from_args(args)))
    counted = []

    def spy(plan, profiles=None):
        count(plan, profiles)
        counted.append((plan.bound, plan.dtype, plan.field.counts.dtype, held_bound(plan.field)))

    count = density._count
    for module in (density, propagator, ring):
        monkeypatch.setattr(module, "_count", spy)
    code = run_cli(argv + ["--out", str(tmp_path / "out")])
    if problems:
        assert code == 2 and counted == [] and specs[args.command] is None
        assert len(problems) == 1
        assert problems[0].startswith(f"{args.command}.m_cords: counts can reach ")
        return
    assert code == 0
    planned = specs[args.command][-1]
    (bound, dtype, stored, held), = counted
    assert (bound, dtype) == (planned.bound, planned.dtype) and stored == dtype
    assert held <= bound < 2 ** 53
    assert planned.held == 0 and not planned.field.counts.any()  # validate counted nothing


def test_propagate_fits_80_periods_in_the_true_minimum(tmp_path):
    """80 periods in the window put side minima of the fit's objective
    within 0.6-1.6 times the FFT peak: the golden section there fitted
    omega 0.8905 for 0.995 at v = +-0.1 (error 0.105); the one-bin bracket
    holds only the true minimum (error 3.1e-4)."""
    out = tmp_path / "pr"
    assert run_cli(["propagate", "--n", "10", "--cords", "10", "--n-periods", "80",
                    "--out", str(out)]) == 0
    name, error = (out / "ray_report.tsv").read_text().splitlines()[-1].split("\t")
    assert name == "# max_rel_freq_error"
    assert float(error) < 1e-3


# --- determinism and the manifest ------------------------------------------


@pytest.mark.parametrize("experiment,flags", [
    ("chessboard", ["--n-steps", "10", "--step-size", "0.1"]),
    ("carrier", ["--n", "6", "--cords", "8"]),
    ("propagate", ["--n", "8", "--cords", "6", "--v-count", "3", "--n-periods", "2"]),
    ("ring", ["--n", "8", "--cords", "6", "--cycles", "3"]),
])
def test_outputs_byte_identical_across_thread_counts(tmp_path, experiment, flags):
    trees = []
    for threads in ("1", "8"):
        out = tmp_path / f"t{threads}"
        assert run_cli([experiment, *flags, "--threads", threads, "--out", str(out)]) == 0
        trees.append(read_tree(out))
    assert trees[0] == trees[1]


# the benchmark's carrier, fan and both rings, then acceptance 8's carrier, fan and ring
CPU_LINES = (
    ["carrier", "--n", "100", "--cords", "1000", "--repeats", "3"],
    ["propagate", "--n", "50", "--cords", "60"],
    ["ring", "--n", "20", "--cords", "30"],
    ["ring", "--n", "20", "--cords", "30", "--speed-factor", "1.5"],
    ["carrier", "--n", "10", "--cords", "20"],
    ["propagate", "--n", "10", "--cords", "10", "--v-count", "5", "--n-periods", "3"],
    ["ring", "--n", "8", "--cords", "8", "--cycles", "4"],
)

# each child runs the command lines above through cli.main, one --out each
_CPU_RUNNER = """
import contextlib, io, json, sys
from entwined.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv + ["--out", f"out{i}"]) for i, argv in enumerate(json.loads(sys.argv[1]))]
print(json.dumps(codes))
"""


def _kernel_choice_missing():
    """Why forcing an OpenBLAS kernel selects nothing here, or None."""
    if platform.machine() != "x86_64":
        return f"OpenBLAS kernels are forced only on x86_64, not {platform.machine()}"
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    if "DYNAMIC_ARCH" not in str(blas.get("openblas configuration", "")):
        return "numpy's BLAS is not an OpenBLAS DYNAMIC_ARCH build: its kernel is fixed"
    return None


_NO_KERNEL_CHOICE = _kernel_choice_missing()


@pytest.mark.skipif(_NO_KERNEL_CHOICE is not None, reason=str(_NO_KERNEL_CHOICE))
def test_outputs_byte_identical_across_cpu_kernels(tmp_path):
    """The same command lines in child processes under the default kernels,
    the OpenBLAS kernel of an AVX2 machine, and numpy without its AVX-512
    loops write the same manifests, and so the same bytes: no number a run
    writes passes through BLAS or LAPACK, whose kernels sum in a
    CPU-dependent order."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    manifests = {}
    for name, extra in (("default", {}), ("haswell", {"OPENBLAS_CORETYPE": "Haswell"}),
                        ("no-avx512", {"NPY_DISABLE_CPU_FEATURES": "X86_V4"})):
        (tmp_path / name).mkdir()
        proc = subprocess.run([sys.executable, "-c", _CPU_RUNNER, json.dumps(CPU_LINES)],
                              cwd=tmp_path / name, env=dict(base, PYTHONPATH=src, **extra),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert json.loads(proc.stdout.splitlines()[-1]) == [0] * len(CPU_LINES)
        manifests[name] = [(tmp_path / name / f"out{i}" / "manifest.json").read_bytes()
                           for i in range(len(CPU_LINES))]
    for name in ("haswell", "no-avx512"):
        for argv, want, got in zip(CPU_LINES, manifests["default"], manifests[name]):
            assert got == want, f"{name}: {' '.join(argv)}"


@pytest.mark.parametrize("experiment,flags", [
    ("carrier", ["--n", "6", "--cords", "8"]),
    ("propagate", ["--n", "8", "--cords", "6", "--v-count", "3", "--n-periods", "2"]),
    ("ring", ["--n", "8", "--cords", "6", "--cycles", "3"]),
    # 1280 x 160 = 204,800 cells a channel: 13 formatter blocks of 102 whole rows (the last 56)
    pytest.param("ring", ["--n", "20", "--cords", "10", "--cycles", "2"], id="ring-13-blocks"),
])
def test_field_files_match_savetxt_of_their_values(tmp_path, experiment, flags):
    # two routes to the same bytes: the written field, and np.savetxt of the
    # integers read back from it
    out = tmp_path / experiment
    assert run_cli([experiment, *flags, "--out", str(out)]) == 0
    artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
    fields = sorted(out.glob("*.adolescent.tsv")) + sorted(out.glob("*.senescent.tsv"))
    assert len(fields) == 2
    for path in fields:
        body = path.read_bytes()
        assert body == savetxt_bytes(np.loadtxt(path, dtype=np.int64, delimiter="\t", ndmin=2))
        assert hashlib.sha256(body).hexdigest() == artifacts[path.name]["sha256"]


def test_manifest_lists_every_artifact_with_checksum(tmp_path):
    out = tmp_path / "m"
    assert run_cli(["carrier", "--n", "6", "--cords", "8", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    files = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert set(manifest["artifacts"]) == files
    for name, entry in manifest["artifacts"].items():
        body = (out / name).read_bytes()
        assert hashlib.sha256(body).hexdigest() == entry["sha256"]
        assert len(body) == entry["bytes"]


@pytest.mark.parametrize("experiment,flags", [
    ("chessboard", ["--n-steps", "10", "--step-size", "0.1"]),
    ("ring", ["--n", "8", "--cords", "6", "--cycles", "3"]),
    # 1280 x 160 cells a channel, 13 formatter blocks: hashed and counted block by block
    pytest.param("ring", ["--n", "20", "--cords", "10", "--cycles", "2"], id="ring-13-blocks"),
])
def test_manifest_hashes_the_bytes_as_they_are_written(tmp_path, monkeypatch, experiment, flags):
    out = tmp_path / experiment

    def refuse(path, *args, **kwargs):
        raise AssertionError(f"read back {path.name}")

    with monkeypatch.context() as patch:
        for name in ("read_bytes", "read_text"):
            patch.setattr(Path, name, refuse)
        assert run_cli([experiment, *flags, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for name, body in read_tree(out).items():
        if name != "manifest.json":
            assert manifest["artifacts"][name] == {"sha256": hashlib.sha256(body).hexdigest(),
                                                   "bytes": len(body)}


def test_rerun_from_manifest_config_reproduces_checksums(tmp_path):
    first = tmp_path / "first"
    assert run_cli(["carrier", "--n", "6", "--cords", "8", "--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    cfg = manifest["config"]
    ini = tmp_path / "resolved.ini"
    lines = ["[lattice]"]
    lines += [f"{k} = {v}" for k, v in cfg["lattice"].items()]
    lines += ["[carrier]"]
    lines += [f"{k} = {v}" for k, v in cfg["carrier"].items()]
    ini.write_text("\n".join(lines) + "\n")
    second = tmp_path / "second"
    assert run_cli(["carrier", "--config", str(ini), "--out", str(second)]) == 0
    remanifest = json.loads((second / "manifest.json").read_text())
    assert remanifest["artifacts"] == manifest["artifacts"]
