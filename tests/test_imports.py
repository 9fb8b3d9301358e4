"""What each entry point imports: a bare `import flick` loads no engine, and
each `flick` command loads only the modules it runs.  Import sets are read
in fresh interpreters, since this process has imported everything."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import flick

_ENV = dict(os.environ, PYTHONPATH=str(Path(flick.__file__).resolve().parents[1]))

# Runs one command through the console-script entry point, then lists the
# flick modules loaded as the last line on stderr, also after a usage error.
_RUN_COMMAND = """
import sys
from flick.cli import main
try:
    code = main(sys.argv[1:])
finally:
    print(*sorted(m for m in sys.modules if m.split(".")[0] == "flick"), file=sys.stderr)
sys.exit(code)
"""

# Runs one command the same way, then prints which of the slow-to-import
# standard modules it loaded.
_LOADED_STDLIB = """
import sys
from flick.cli import main
code = main(sys.argv[1:])
watched = ("dataclasses", "inspect", "fractions", "decimal", "json")
print(*(m for m in watched if m in sys.modules))
sys.exit(code)
"""

_BARE_IMPORT = """
import sys
import flick
print(*sorted(m for m in sys.modules if m.split(".")[0] == "flick"))
print(*dir(flick))
"""


def _run(source: str, *argv: str, code: int = 0) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-c", source, *argv],
        capture_output=True,
        text=True,
        env=_ENV,
        timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    return proc


_CLI = {"flick", "flick.cli", "flick.exact", "flick.triangle"}
# The grid commands load no closed form: `flick.todd` imports the kernels of
# `flick.stirling` and the `PolyZ` of `flick.series` only when they are called.
_TODD = {"flick", "flick.cli", "flick.exact", "flick.todd"}
_GF = {"flick", "flick.cli", "flick.exact", "flick.series"}
_EVERY = _CLI | {
    "flick.bfile",
    "flick.powersum",
    "flick.series",
    "flick.stirling",
    "flick.todd",
    "flick.transforms",
    "flick.verify",
}


# Every subcommand, with the flick modules it loads.
_COMMANDS = {
    "triangle": (["triangle", "--rows", "5"], _CLI),
    "triangle-json": (["triangle", "--rows", "5", "--format", "json"], _CLI),
    "powersum": (["powersum", "5", "10"], _CLI | {"flick.powersum"}),
    "bell": (["bell", "--count", "5"], _CLI | {"flick.transforms"}),
    "bell-kernels": (
        ["bell", "--kernels", "2", "--count", "5"],
        _CLI | {"flick.transforms"},
    ),
    "todd": (["todd", "--rows", "2", "--cols", "2"], _TODD),
    "row": (["row", "2", "--count", "3"], _TODD),
    "row-json": (["row", "2", "--count", "3", "--format", "json"], _TODD),
    "col": (["col", "3", "--count", "3"], _TODD),
    "gf": (["gf", "--row", "3", "--order", "5"], _GF),
    "fitcol": (["fitcol", "2"], _TODD | {"flick.series"}),
    "verify": (["verify"], _EVERY),
}


@pytest.mark.parametrize("argv, modules", list(_COMMANDS.values()), ids=list(_COMMANDS))
def test_command_imports_only_what_it_runs(argv, modules):
    proc = _run(_RUN_COMMAND, *argv)
    assert set(proc.stderr.split()) == modules


@pytest.mark.parametrize(
    "argv",
    [
        ["triangle", "--rows", "3", "--format", "bfile"],
        ["powersum", "0", "4"],
        ["fitcol", "0"],
    ],
    ids=["triangle-bfile", "powersum", "fitcol"],
)
def test_usage_error_loads_no_engine(argv):
    # The parser rejects the arguments before any handler imports an engine.
    proc = _run(_RUN_COMMAND, *argv, code=2)
    *_, error, loaded = proc.stderr.splitlines()
    assert error.startswith(f"flick {argv[0]}: error: argument ")
    assert set(loaded.split()) == {"flick", "flick.cli"}


@pytest.mark.parametrize(
    "argv", [argv for argv, _ in _COMMANDS.values()], ids=list(_COMMANDS)
)
def test_no_command_loads_dataclasses_and_only_verify_loads_fractions(argv):
    # The result types are named tuples, so no command loads `dataclasses`
    # (nor `inspect`, which it imports); `Fraction` is built only by the
    # series check of `verify`; and the CLI writes its JSON output itself, so
    # no command loads `json`.
    proc = _run(_LOADED_STDLIB, *argv)
    loaded = proc.stdout.splitlines()[-1].split()
    assert loaded == (["fractions", "decimal"] if argv == ["verify"] else [])


def test_bare_import_loads_no_submodule_and_lists_the_exports():
    loaded, listed = _run(_BARE_IMPORT).stdout.splitlines()
    assert loaded.split() == ["flick"]
    assert set(flick.__all__) <= set(listed.split())


def test_every_export_is_its_submodule_object():
    for name in flick.__all__:
        value = getattr(flick, name)
        assert value.__module__.startswith("flick.")
        assert getattr(importlib.import_module(value.__module__), name) is value


def test_every_submodule_export_exists():
    for info in pkgutil.iter_modules(flick.__path__, "flick."):
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.__all__ names {name!r}"


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from flick import *", namespace)
    for name in flick.__all__:
        assert namespace[name] is getattr(flick, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'flick' has no attribute 'nope'$"):
        flick.nope
