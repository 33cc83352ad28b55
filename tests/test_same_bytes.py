"""Tests of tools/same_bytes.py that run no command: the tree diff and the
command-line list.  Imported by path, like tests/test_calibrate.py."""

import importlib.util
from pathlib import Path

import pytest

SAME_BYTES = Path(__file__).resolve().parent.parent / "tools" / "same_bytes.py"


@pytest.fixture(scope="module")
def same_bytes():
    spec = importlib.util.spec_from_file_location("same_bytes", SAME_BYTES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(root: Path, files: dict[str, bytes]) -> Path:
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


BASE = {
    "ray-fan/cmd00-t1/region_field.adolescent.tsv": b"1\t-2\n0\t3\n",
    "ray-fan/cmd00-t1/manifest.json": b"{}\n",
    "ray-fan/cmd00-t2/summary.txt": b"rays written: 11\n",
    "kernel-sweep/cmd00-t1/empty.tsv": b"",
}


def test_identical_trees_have_no_difference(same_bytes, tmp_path):
    a = _write(tmp_path / "a", BASE)
    b = _write(tmp_path / "b", BASE)
    assert same_bytes.diff_trees(a, b) == []
    assert same_bytes.tree_digests(a).keys() == set(BASE)


def test_every_kind_of_difference_is_reported_once(same_bytes, tmp_path):
    a = _write(tmp_path / "a", BASE)
    changed = dict(BASE)
    changed["ray-fan/cmd00-t1/region_field.adolescent.tsv"] = b"1\t-2\n0\t4\n"  # one byte
    changed["kernel-sweep/cmd00-t1/empty.tsv"] = b"\n"  # empty vs not
    del changed["ray-fan/cmd00-t2/summary.txt"]  # only in a
    changed["ray-fan/cmd00-t2/extra/new.txt"] = b"x"  # only in b, nested
    b = _write(tmp_path / "b", changed)
    expected = sorted(["ray-fan/cmd00-t1/region_field.adolescent.tsv",
                       "kernel-sweep/cmd00-t1/empty.tsv",
                       "ray-fan/cmd00-t2/summary.txt",
                       "ray-fan/cmd00-t2/extra/new.txt"])
    assert same_bytes.diff_trees(a, b) == expected
    assert same_bytes.diff_trees(b, a) == expected


def test_a_renamed_file_counts_on_both_sides(same_bytes, tmp_path):
    a = _write(tmp_path / "a", {"out/x.tsv": b"1\n"})
    b = _write(tmp_path / "b", {"out/y.tsv": b"1\n"})
    assert same_bytes.diff_trees(a, b) == ["out/x.tsv", "out/y.tsv"]


def test_command_lines_cover_workloads_acceptance_and_extras(same_bytes):
    lines = same_bytes.command_lines(23, [["propagate", "--n", "200", "--cords", "240"]])
    assert lines["ray-fan/cmd00"] == ["propagate", "--n", "50", "--cords", "60"]
    assert lines["carrier-large/cmd00"][0] == "carrier"
    assert [lines[f"ring-modes/cmd{i:02d}"][0] for i in range(2)] == ["ring", "ring"]
    assert sum(name.startswith("kernel-sweep/") for name in lines) == 30
    assert [lines[f"acceptance-8/cmd{i:02d}"][0] for i in range(4)] == [
        "chessboard", "carrier", "propagate", "ring"]
    assert lines["mixed-repeats/cmd00"] == [
        "propagate", "--n", "10", "--cords", "5", "--v-min", "-0.9", "--v-max", "0.9",
        "--v-count", "7", "--n-periods", "3"]
    assert lines["extra/cmd00"] == ["propagate", "--n", "200", "--cords", "240"]
    assert len(lines) == 1 + 1 + 2 + 30 + 4 + 1 + 1
    assert not any("--threads" in argv or "--out" in argv for argv in lines.values())
