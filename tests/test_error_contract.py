"""The error contract: ``ConfigurationError`` is the one usage error.

The CLI exits 2 on a ConfigurationError and 1 on any other error a run
raises.  So every error class of the package that a caller could take for
a bad setting, a ValueError or LookupError, is a ConfigurationError, and no
module raises KeyError, which also quotes its message.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import enstro
from enstro.field_core import ConfigurationError

SRC = Path(__file__).resolve().parent.parent / "src" / "enstro"


def _error_classes() -> dict[str, type]:
    """Every exception class the package defines, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(enstro.__path__):
        module = importlib.import_module(f"enstro.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and issubclass(cls, BaseException):
                found[f"{info.name}.{cls.__qualname__}"] = cls
    return found


def test_every_value_or_lookup_error_is_a_configuration_error():
    classes = _error_classes()
    assert {"field_core.ConfigurationError", "burgers_solver.BlowUpError"} <= set(classes)
    loose = [
        name
        for name, cls in classes.items()
        if issubclass(cls, (ValueError, LookupError)) and not issubclass(cls, ConfigurationError)
    ]
    assert loose == []


def _raised_names(source: str) -> list[tuple[int, str]]:
    """(line, name) of each ``raise Name`` or ``raise Name(...)``."""
    raised = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                raised.append((node.lineno, exc.id))
    return raised


def test_the_check_finds_a_raised_key_error():
    source = "raise KeyError('a')\ntry:\n    pass\nexcept OSError:\n    raise\nraise KeyError\n"
    assert _raised_names(source) == [(1, "KeyError"), (6, "KeyError")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_raises_key_error(path):
    raised = _raised_names(path.read_text())
    assert [(line, name) for line, name in raised if name == "KeyError"] == []
