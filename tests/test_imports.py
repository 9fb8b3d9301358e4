"""What each entry point imports: a bare `import flick` loads no engine, and
each `flick` command loads only the modules it runs.  Import sets are read
in fresh interpreters, since this process has imported everything."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flick

_ENV = dict(os.environ, PYTHONPATH=str(Path(flick.__file__).resolve().parents[1]))

# Runs one command through the console-script entry point, then lists the
# flick modules loaded, on stderr.
_RUN_COMMAND = """
import sys
from flick.cli import main
code = main(sys.argv[1:])
print(*sorted(m for m in sys.modules if m.split(".")[0] == "flick"), file=sys.stderr)
sys.exit(code)
"""

_BARE_IMPORT = """
import sys
import flick
print(*sorted(m for m in sys.modules if m.split(".")[0] == "flick"))
print(*dir(flick))
"""


def _run(source: str, *argv: str) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-c", source, *argv],
        capture_output=True,
        text=True,
        env=_ENV,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


_CLI = {"flick", "flick.cli", "flick.exact", "flick.triangle"}
_EVERY = _CLI | {
    "flick.bfile",
    "flick.powersum",
    "flick.series",
    "flick.stirling",
    "flick.todd",
    "flick.transforms",
    "flick.verify",
}


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["triangle", "--rows", "5"], _CLI),
        (["triangle", "--rows", "5", "--format", "json"], _CLI),
        (["powersum", "5", "10"], _CLI | {"flick.powersum"}),
        (["bell", "--count", "5"], _CLI | {"flick.transforms"}),
        (["bell", "--kernels", "2", "--count", "5"], _CLI | {"flick.transforms"}),
        (["verify"], _EVERY),
    ],
    ids=["triangle", "triangle-json", "powersum", "bell", "bell-kernels", "verify"],
)
def test_command_imports_only_what_it_runs(argv, modules):
    proc = _run(_RUN_COMMAND, *argv)
    assert set(proc.stderr.split()) == modules


def test_bare_import_loads_no_submodule_and_lists_the_exports():
    loaded, listed = _run(_BARE_IMPORT).stdout.splitlines()
    assert loaded.split() == ["flick"]
    assert set(flick.__all__) <= set(listed.split())


def test_every_export_is_its_submodule_object():
    for name in flick.__all__:
        value = getattr(flick, name)
        assert value.__module__.startswith("flick.")
        assert getattr(importlib.import_module(value.__module__), name) is value


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from flick import *", namespace)
    for name in flick.__all__:
        assert namespace[name] is getattr(flick, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'flick' has no attribute 'nope'$"):
        flick.nope
