"""Every error class that ``errors.py`` declares is raised somewhere in the package."""

import ast
import pathlib

import mvrecon
from mvrecon import errors


def raised_names() -> set[str]:
    """The name each ``raise`` in the package's modules calls or re-raises."""
    names = set()
    for path in pathlib.Path(mvrecon.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                names.add(getattr(exc, "id", None) or getattr(exc, "attr", None))
    return names


def test_every_error_class_is_raised():
    declared = {name for name, cls in vars(errors).items()
                if isinstance(cls, type) and issubclass(cls, errors.MvreconError)
                and cls is not errors.MvreconError}
    assert declared, "errors.py declares no MvreconError subclass"
    assert declared - raised_names() == set()
