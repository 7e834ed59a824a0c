import ast
import importlib
import pkgutil
from pathlib import Path

import stabwitness


def test_public_surface_holds_together():
    # every name a module lists in __all__ is defined there
    for info in pkgutil.iter_modules(stabwitness.__path__):
        module = importlib.import_module(f"stabwitness.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"stabwitness.{info.name}.__all__ lists {name}"
    # every public name the package binds is in its own module's __all__
    tree = ast.parse(Path(stabwitness.__file__).read_text())
    imports = [
        node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(f"stabwitness.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (
                f"stabwitness binds {alias.name}, not in {module.__name__}.__all__"
            )
