"""Tests of tools/same_bytes.py: the tree diff, the command-line list, the
``--env`` flag, and the exit codes its runner records from a stand-in
``entwined`` package.
Imported by path, like tests/test_calibrate.py."""

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
    lines = same_bytes.command_lines(23, [["propagate", "--n", "100", "--cords", "120"]])
    assert lines["ray-fan/cmd00"] == ["propagate", "--n", "50", "--cords", "60"]
    assert lines["carrier-large/cmd00"][0] == "carrier"
    assert [lines[f"ring-modes/cmd{i:02d}"][0] for i in range(2)] == ["ring", "ring"]
    assert sum(name.startswith("kernel-sweep/") for name in lines) == 30
    assert [lines[f"acceptance-8/cmd{i:02d}"][0] for i in range(4)] == [
        "chessboard", "carrier", "propagate", "ring"]
    assert lines["mixed-repeats/cmd00"] == [
        "propagate", "--n", "10", "--cords", "5", "--v-min", "-0.9", "--v-max", "0.9",
        "--v-count", "7", "--n-periods", "3"]
    assert lines["large-fan/cmd00"] == ["propagate", "--n", "200", "--cords", "240"]
    assert lines["long-ring/cmd00"] == ["ring", "--n", "20", "--cords", "30", "--cycles", "64"]
    assert lines["heavy-weights/cmd00"] == ["carrier", "--n", "10", "--cords", "10000000000"]
    assert lines["heavy-slices/cmd00"] == ["ring", "--n", "20", "--cords", "100000000000000"]
    assert lines["phase-array/cmd00"] == ["chessboard", "--phase-t-max", "1e300"]
    assert lines["extra/cmd00"] == ["propagate", "--n", "100", "--cords", "120"]
    assert len(lines) == 1 + 1 + 2 + 30 + 4 + 1 + 1 + 1 + 1 + 4 + 1
    assert not any("--threads" in argv or "--out" in argv for argv in lines.values())


# a stand-in entwined package whose main exits, returns or raises by its argv
_FAKE_CLI = """
import os

def main(argv):
    if argv[0] == "env":
        return int(os.environ.get("SAME_BYTES_TEST_CODE", "0"))
    if argv[0] == "raise":
        raise ValueError("a rule its owner did not catch")
    if argv[0] == "usage":
        raise SystemExit(2)
    return int(argv[0])
"""


def test_runner_records_a_raising_command_as_its_own_code(same_bytes, tmp_path):
    _write(tmp_path / "src", {"entwined/__init__.py": b"", "entwined/cli.py": _FAKE_CLI.encode()})
    lines = {"ok": ["0"], "refused": ["2"], "usage": ["usage"], "crash": ["raise"]}
    codes = same_bytes.run_side(tmp_path / "src", tmp_path / "run", lines)
    assert codes == {"ok-t1": 0, "ok-t2": 0, "refused-t1": 2, "refused-t2": 2,
                     "usage-t1": 2, "usage-t2": 2,
                     "crash-t1": "raised ValueError", "crash-t2": "raised ValueError"}


def test_env_flag_collects_name_value_pairs(same_bytes):
    parser = same_bytes.build_parser()
    args = parser.parse_args(["HEAD", "--env", "OPENBLAS_CORETYPE=Haswell", "--env", "A=x=y",
                              "--env", "EMPTY="])
    assert args.env == [("OPENBLAS_CORETYPE", "Haswell"), ("A", "x=y"), ("EMPTY", "")]
    assert parser.parse_args(["HEAD"]).env == []
    for bad in ("NOVALUE", "=1"):
        with pytest.raises(SystemExit):
            parser.parse_args(["HEAD", "--env", bad])


def test_runner_sets_env_on_its_own_side_only(same_bytes, tmp_path, monkeypatch):
    monkeypatch.delenv("SAME_BYTES_TEST_CODE", raising=False)
    _write(tmp_path / "src", {"entwined/__init__.py": b"", "entwined/cli.py": _FAKE_CLI.encode()})
    lines = {"env": ["env"]}
    with_env = same_bytes.run_side(tmp_path / "src", tmp_path / "tree", lines,
                                   [("SAME_BYTES_TEST_CODE", "3")])
    without = same_bytes.run_side(tmp_path / "src", tmp_path / "ref", lines)
    assert with_env == {"env-t1": 3, "env-t2": 3}
    assert without == {"env-t1": 0, "env-t2": 0}
