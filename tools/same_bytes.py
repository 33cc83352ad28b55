#!/usr/bin/env python3
"""Check that the working tree writes the same output bytes as a git revision.

    python3 tools/same_bytes.py REF [--seed N] [--command "propagate --n 200 --cords 240"]

Exports ``src/`` of REF with ``git archive`` into a temporary directory (the
repository's checkout and worktree list are never touched), then runs the
same command lines with each side's ``src/`` at ``--threads 1`` and ``2``:

- the command lines of the four benchmark workloads, imported read-only from
  ``perfbench/workloads.py`` (the kernel sweep is drawn from ``--seed``);
- the four acceptance-8 configurations;
- a ray fan whose rays need two different cable repeats counts;
- every ``--command`` given.

Both sides write under the same relative ``--out``.  Every output file whose
sha256 differs, or that only one side wrote, is printed, and so is every
command whose exit code differs.  Exit status: 0 if all bytes match, 1 if
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

# runs argument lists through entwined.cli.main in one process and prints
# their exit codes as JSON; argparse rejects a bad flag with SystemExit
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


def run_side(src: Path, workdir: Path, lines: dict[str, list[str]]) -> dict[str, int]:
    """Run every command line at --threads 1 and 2 from ``workdir``; exit codes by output dir."""
    workdir.mkdir(parents=True)
    argvs = {f"{out}-t{threads}": argv + ["--threads", threads, "--out", f"out/{out}-t{threads}"]
             for out, argv in lines.items() for threads in ("1", "2")}
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _RUNNER, json.dumps(list(argvs.values()))],
                          cwd=workdir, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"runner with {src} failed: {proc.stderr.strip()[-2000:]}")
    return dict(zip(argvs, json.loads(proc.stdout.strip().splitlines()[-1])))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git revision to compare against, e.g. HEAD")
    parser.add_argument("--seed", type=int, default=0, help="seed of the kernel-sweep draw")
    parser.add_argument("--command", action="append", default=[], metavar="ARGS",
                        help="one more entwined command line, quoted (repeatable)")
    args = parser.parse_args(argv)
    lines = command_lines(args.seed, [shlex.split(c) for c in args.command])
    with tempfile.TemporaryDirectory(prefix="same_bytes-") as tmp:
        tmp = Path(tmp)
        ref_src = export_src(args.ref, tmp / "ref")
        codes = {"ref": run_side(ref_src, tmp / "ref-run", lines),
                 "tree": run_side(ROOT / "src", tmp / "tree-run", lines)}
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
