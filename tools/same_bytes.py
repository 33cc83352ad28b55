#!/usr/bin/env python3
"""Check that the working tree writes the same output bytes as a git revision.

    python3 tools/same_bytes.py REF [--seed N] [--command "propagate --n 100 --cords 120"]
                                    [--env OPENBLAS_CORETYPE=Haswell]

Exports ``src/`` of REF with ``git archive`` into a temporary directory (the
repository's checkout and worktree list are never touched), then runs the
same command lines with each side's ``src/`` at ``--threads 1`` and ``2``:

- the command lines of the four benchmark workloads, imported read-only from
  ``perfbench/workloads.py`` (the kernel sweep is drawn from ``--seed``);
- the four acceptance-8 configurations;
- a ray fan whose rays need two different cable repeats counts;
- the n = 200, M = 240 ray fan, the most framed rows and cells of any line;
- the 64-cycle ring, the tallest field, exported one row block at a time;
- a carrier of 1e10 cords, whose channel-lag scores pass int64;
- six lines that the plan ``validate`` builds settles: a fan and a ring
  whose counts could reach 2**53, a phase series and a still ring's field
  past the largest array, a ring too slow for an int64 cell index (exit 2),
  and a ring whose slice sums are read exactly (exit 0);
- every ``--command`` given.

Each ``--env NAME=VALUE`` sets one environment variable for the working
tree's runs only, so that ``same_bytes.py HEAD --env OPENBLAS_CORETYPE=Haswell``
compares the bytes of one source under two CPU kernels.

Both sides write under the same relative ``--out``.  Every output file whose
sha256 differs, or that only one side wrote, is printed, and so is every
command whose exit code differs; a command that raises counts as the exit
code ``raised <exception type>``.  Exit status: 0 if all bytes match, 1 if
any differ.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# tests/test_acceptance.py::test_determinism_across_threads
ACCEPTANCE_8 = (
    ["chessboard", "--n-steps", "12", "--step-size", "0.1"],
    ["carrier", "--n", "10", "--cords", "20"],
    ["propagate", "--n", "10", "--cords", "10", "--v-count", "5", "--n-periods", "3"],
    ["ring", "--n", "8", "--cords", "8", "--cycles", "4"],
)

# v = +-0.9 need 4 cord repeats and the slower rays 5, so the fan shares two cables
MIXED_REPEATS = ["propagate", "--n", "10", "--cords", "5", "--v-min", "-0.9", "--v-max", "0.9",
                 "--v-count", "7", "--n-periods", "3"]

# the scaled fan a frame refactor must leave byte for byte
LARGE_FAN = ["propagate", "--n", "200", "--cords", "240"]

# the tallest field of any line: 40,960 x 160 cells a channel, a 13 MB int8 store
LONG_RING = ["ring", "--n", "20", "--cords", "30", "--cycles", "64"]

# the heaviest weights of any line: its profiles' lag scores pass int64
HEAVY_WEIGHTS = ["carrier", "--n", "10", "--cords", "10000000000"]

# refused by the plan at validate (a still ring's field by its size, a slow
# ring's steady window by its start cell), or run because the slice sums are
# read exactly
PLANNED = {
    "heavy-fan": ["propagate", "--n", "50", "--cords", "1000000000000000"],
    "heavy-ring": ["ring", "--n", "20", "--cords", "10000000000000000"],
    "heavy-slices": ["ring", "--n", "20", "--cords", "100000000000000"],
    "phase-array": ["chessboard", "--phase-t-max", "1e300"],
    "still-ring": ["ring", "--speed", "0", "--circumference", "1e300"],
    "slow-ring": ["ring", "--speed", "1e-10"],
}

# runs argument lists through entwined.cli.main in one process and prints
# their exit codes as JSON; argparse rejects a bad flag with SystemExit, and
# a command that raises is recorded as "raised <exception type>", so that one
# side's crash shows up as a differing exit code
_RUNNER = """
import contextlib, io, json, sys
from entwined.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
        except Exception as exc:
            codes.append(f"raised {type(exc).__name__}")
print(json.dumps(codes))
"""


def command_lines(seed: int, extra=()) -> dict[str, list[str]]:
    """Output directory name -> argument list (without ``--threads``/``--out``)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    lines = {}
    for name, workload in WORKLOADS.items():
        for i, argv in enumerate(workload.commands(seed)):
            lines[f"{name}/cmd{i:02d}"] = argv
    for i, argv in enumerate(ACCEPTANCE_8):
        lines[f"acceptance-8/cmd{i:02d}"] = list(argv)
    lines["mixed-repeats/cmd00"] = list(MIXED_REPEATS)
    lines["large-fan/cmd00"] = list(LARGE_FAN)
    lines["long-ring/cmd00"] = list(LONG_RING)
    lines["heavy-weights/cmd00"] = list(HEAVY_WEIGHTS)
    for name, argv in PLANNED.items():
        lines[f"{name}/cmd00"] = list(argv)
    for i, argv in enumerate(extra):
        lines[f"extra/cmd{i:02d}"] = list(argv)
    return lines


def tree_digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by its relative POSIX path."""
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def diff_trees(a: Path, b: Path) -> list[str]:
    """Relative paths whose bytes differ between the trees or that only one holds."""
    da, db = tree_digests(a), tree_digests(b)
    return sorted(name for name in da.keys() | db.keys() if da.get(name) != db.get(name))


def export_src(ref: str, dest: Path) -> Path:
    """Write ``src/`` of ``ref`` under ``dest`` and return the ``src`` directory."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def run_side(src: Path, workdir: Path, lines: dict[str, list[str]], env=()) -> dict[str, int]:
    """Run every command line at --threads 1 and 2 from ``workdir``, with the
    ``env`` (name, value) pairs added to the environment; exit codes by output dir."""
    workdir.mkdir(parents=True)
    argvs = {f"{out}-t{threads}": argv + ["--threads", threads, "--out", f"out/{out}-t{threads}"]
             for out, argv in lines.items() for threads in ("1", "2")}
    env = {**os.environ, **dict(env), "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", _RUNNER, json.dumps(list(argvs.values()))],
                          cwd=workdir, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"runner with {src} failed: {proc.stderr.strip()[-2000:]}")
    return dict(zip(argvs, json.loads(proc.stdout.strip().splitlines()[-1])))


def env_pair(text: str) -> tuple[str, str]:
    """``NAME=VALUE`` as (name, value); the value may hold ``=`` and be empty."""
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    return name, value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git revision to compare against, e.g. HEAD")
    parser.add_argument("--seed", type=int, default=0, help="seed of the kernel-sweep draw")
    parser.add_argument("--command", action="append", default=[], metavar="ARGS",
                        help="one more entwined command line, quoted (repeatable)")
    parser.add_argument("--env", action="append", default=[], type=env_pair, metavar="NAME=VALUE",
                        help="environment variable for the working tree's runs only (repeatable)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    lines = command_lines(args.seed, [shlex.split(c) for c in args.command])
    with tempfile.TemporaryDirectory(prefix="same_bytes-") as tmp:
        tmp = Path(tmp)
        ref_src = export_src(args.ref, tmp / "ref")
        codes = {"ref": run_side(ref_src, tmp / "ref-run", lines),
                 "tree": run_side(ROOT / "src", tmp / "tree-run", lines, args.env)}
        bad_codes = [name for name in codes["ref"] if codes["ref"][name] != codes["tree"][name]]
        for name in bad_codes:
            print(f"exit code differs: {name}: {args.ref} {codes['ref'][name]}, "
                  f"working tree {codes['tree'][name]}")
        differ = diff_trees(tmp / "ref-run" / "out", tmp / "tree-run" / "out")
        for name in differ:
            print(f"differs: {name}")
        files = len(tree_digests(tmp / "tree-run" / "out"))
    print(f"{len(codes['tree'])} runs, {files} files: "
          f"{len(differ)} differ, {len(bad_codes)} exit codes differ")
    return 1 if differ or bad_codes else 0


if __name__ == "__main__":
    sys.exit(main())
