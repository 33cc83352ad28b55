"""The package's import surface: ``import entwined`` loads no experiment
module, and each experiment loads only the modules it runs.

Module loads are observed in child processes, whose ``sys.modules`` starts
clean.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import entwined

SRC = str(Path(__file__).resolve().parent.parent / "src")

# runs the statements in argv[1], then prints the entwined modules loaded and
# whether configparser was
_LOADED = """
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[1])
print(json.dumps([sorted(m for m in sys.modules if m.split(".")[0] == "entwined"),
                  "configparser" in sys.modules]))
"""


def _python(*args, cwd):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC))


def _loaded(statements: str, cwd) -> tuple[set[str], bool]:
    proc = _python("-c", _LOADED, statements, cwd=cwd)
    assert proc.returncode == 0, proc.stderr[-2000:]
    modules, configparser = json.loads(proc.stdout.splitlines()[-1])
    return set(modules), configparser


def _entwined(*modules: str) -> set[str]:
    return {"entwined", "entwined.lattice", "entwined.cli"} | {f"entwined.{m}" for m in modules}


def test_importing_the_package_and_its_cli_loads_no_experiment(tmp_path):
    assert _loaded("import entwined\nfrom entwined import cli", tmp_path) == (_entwined(), False)


@pytest.mark.parametrize("argv, modules", [
    (["chessboard", "--n-steps", "6", "--phase-t-max", "1"], ("chessboard",)),
    (["carrier", "--n", "6", "--cords", "8"], ("paths", "density")),
    (["propagate", "--n", "8", "--cords", "6", "--v-count", "3", "--n-periods", "2"],
     ("paths", "density", "propagator")),
    (["ring", "--n", "8", "--cords", "6", "--cycles", "3"], ("paths", "density", "ring")),
    (["validate", "--experiment", "chessboard"], ("chessboard",)),
    (["validate", "--experiment", "carrier"], ("paths", "density")),
], ids=["chessboard", "carrier", "propagate", "ring", "validate-chessboard", "validate-carrier"])
def test_a_run_loads_only_the_modules_it_runs(tmp_path, argv, modules):
    run = f"from entwined import cli\nassert cli.main({argv!r} + ['--out', 'out']) == 0"
    assert _loaded(run, tmp_path) == (_entwined(*modules), False)


def test_configparser_is_loaded_by_a_config_file_only(tmp_path):
    (tmp_path / "run.ini").write_text("[chessboard]\nn_steps = 6\n")
    run = "from entwined import cli\nassert cli.main(['validate', '--experiment', 'chessboard', " \
          "'--config', 'run.ini']) == 0"
    assert _loaded(run, tmp_path) == (_entwined("chessboard"), True)


def test_version_from_the_module_entry_point(tmp_path):
    proc = _python("-m", "entwined", "--version", cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"entwined {entwined.__version__}\n", "")


def test_every_public_name_is_its_defining_modules_object():
    # no name is listed under two modules
    assert len(entwined.__all__) == sum(len(names) for names in entwined._PUBLIC.values())
    for module_name, names in entwined._PUBLIC.items():
        module = importlib.import_module(f"entwined.{module_name}")
        for name in names:
            obj = getattr(entwined, name)
            assert obj is getattr(module, name), name
            # a class or function is listed under the module that defines it
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name


def test_dir_lists_every_public_name_and_star_import_binds_them():
    assert set(entwined.__all__) <= set(dir(entwined))
    assert "__version__" in dir(entwined)
    namespace = {}
    exec("from entwined import *", namespace)
    assert set(entwined.__all__) <= set(namespace)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'entwined' has no attribute 'wibble'"):
        entwined.wibble
    assert not hasattr(entwined, "ENUMERATION_CAP")  # public in chessboard, not in the package
    with pytest.raises(ImportError):
        exec("from entwined import wibble", {})
