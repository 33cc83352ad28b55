"""Every function in ``src/entwined`` is reached by a run, or says why not.

A child process counts, under ``sys.setprofile``, every function of the
package that is called while it runs ``tests/test_acceptance.py``, a
``validate`` and one refused command line per experiment, a chessboard phase
series (the one CLI route the acceptance tests leave out), and one lazy
read of a public name.  Each ``def`` in the package's modules, nested ones
included, must be among them or in ``_UNREACHED``, with the reason it stays;
a listed function that the traffic does reach fails too, so the list cannot
go stale.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "entwined"

# "module.qualified name" -> why no run calls it
_UNREACHED = {
    "density._incidences": "oracle: tests read the whole expansion at once",
    "paths.SegmentArray.expand_index": "oracle: tests and perfbench follow the logical path",
    "paths.SegmentArray.expand": "oracle: tests compare paths row for row",
    "paths.SegmentArray.physical_endpoints": "oracle: tests and perfbench read logical end points",
    "paths.EntwinedPath.validate_continuity": "ROADMAP item 7 gives it callers",
    "density.DensityField.copy": "tests clone fields",
}

# a refused line per experiment; each is refused by the plan or spec that owns its rule
_REFUSED = (
    ["chessboard", "--phase-t-max", "1e300"],
    ["carrier", "--cords", "10000000000000000"],
    ["propagate", "--n", "50", "--cords", "1000000000000000"],
    ["ring", "--speed", "1e-10"],
)

# runs the traffic in argv[1] (JSON: acceptance test file, command lines) and
# prints the (file, first line) of every code object called
_CHILD = """
import contextlib, io, json, sys, threading
acceptance, lines = json.loads(sys.argv[1])
called = set()

def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

sys.setprofile(profile)
threading.setprofile(profile)
import pytest
status = pytest.main([acceptance, "-q", "-p", "no:cacheprovider"])
from entwined import cli
codes = []
for argv in lines:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
import entwined
entwined.LatticeSpec, dir(entwined)
sys.setprofile(None)
threading.setprofile(None)
print(json.dumps([int(status), codes, sorted([c.co_filename, c.co_firstlineno] for c in called)]))
"""


def _defs() -> dict[tuple[str, int], str]:
    """(file, first line) of every def in the package -> "module.qualified name";
    a decorated function's code starts at its first decorator."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[str(path), first] = prefix + child.name
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path, f"{path.stem}.")
    return found


def test_every_function_is_reached_or_says_why_not(tmp_path):
    lines = [["validate", "--experiment", experiment] for experiment in
             ("chessboard", "carrier", "propagate", "ring")]
    lines += [argv + ["--out", str(tmp_path / "refused")] for argv in _REFUSED]
    lines.append(["chessboard", "--n-steps", "6", "--phase-t-max", "1", "--out",
                  str(tmp_path / "phase")])
    traffic = json.dumps([str(ROOT / "tests" / "test_acceptance.py"), lines])
    proc = subprocess.run([sys.executable, "-c", _CHILD, traffic], cwd=tmp_path,
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    status, codes, called = json.loads(proc.stdout.splitlines()[-1])
    assert status == 0, proc.stdout[-2000:]
    assert codes == [0, 0, 0, 0, 2, 2, 2, 2, 0]
    defs = _defs()
    reached = {defs[key] for key in map(tuple, called) if key in defs}
    unreached = sorted(set(defs.values()) - reached - set(_UNREACHED))
    assert not unreached, f"no run reaches these, and no reason is listed: {unreached}"
    stale = sorted(reached & set(_UNREACHED)) + sorted(set(_UNREACHED) - set(defs.values()))
    assert not stale, f"listed as unreached, but reached or gone: {stale}"
