"""The public surface: every exported name resolves, and every exported
error class is raised somewhere in the library."""

import ast
from pathlib import Path

import gftdual
from gftdual.errors import GftDualError

SOURCE = Path(gftdual.__file__).resolve().parent


def _raised_names():
    """Names X of every `raise X` and `raise X(...)` in the package."""
    names = set()
    for path in SOURCE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_exported_name_resolves():
    assert len(set(gftdual.__all__)) == len(gftdual.__all__)
    for name in gftdual.__all__:
        assert hasattr(gftdual, name), name


def test_every_exported_error_class_is_raised():
    errors = {name for name in gftdual.__all__
              if isinstance(getattr(gftdual, name), type)
              and issubclass(getattr(gftdual, name), GftDualError)
              and getattr(gftdual, name) is not GftDualError}
    assert errors, "no error classes exported"
    assert errors - _raised_names() == set()
