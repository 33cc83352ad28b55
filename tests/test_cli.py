import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from entwined import cli
from entwined.chessboard import ENUMERATION_CAP
from entwined.cli import ConfigError, load_config, main, validate
from helpers import savetxt_bytes


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


def test_empty_steady_region_is_reported_as_such(tmp_path, capsys):
    # n=2 with one repeat: the cable's steady window holds no whole cell
    out = tmp_path / "out"
    assert run_cli(["carrier", "--n", "2", "--cords", "1", "--repeats", "1",
                    "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: steady region is only 0 cells; increase carrier.repeats or lattice.n "
        "for a meaningful fit\n")
    assert not (out / "manifest.json").exists()


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


@pytest.mark.parametrize("experiment,flags", [
    ("carrier", ["--n", "6", "--cords", "8"]),
    ("propagate", ["--n", "8", "--cords", "6", "--v-count", "3", "--n-periods", "2"]),
    ("ring", ["--n", "8", "--cords", "6", "--cycles", "3"]),
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
