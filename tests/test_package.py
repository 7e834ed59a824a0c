import ast
import importlib
import importlib.util
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


def test_readme_library_example_runs(capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("\n## Library example\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md: Library example", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert "{'direct': 3927, 'graph_based': 3122, 'two_measurement': 476}" in printed


def test_every_traced_name_exists():
    # the benchmark's tracer rebinds these names; deleting or renaming one
    # breaks the benchmark, so the suite checks them without running it
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = tracing.SPANNED_FUNCTIONS + tracing.COUNTED_FUNCTIONS
    assert traced
    for module, attr, _ in traced:
        assert hasattr(importlib.import_module(f"stabwitness.{module}"), attr), (
            f"stabwitness.{module} has no {attr}"
        )
    assert tracing.SPANNED_METHODS
    for module, cls_name, attr, _ in tracing.SPANNED_METHODS:
        cls = getattr(importlib.import_module(f"stabwitness.{module}"), cls_name)
        assert hasattr(cls, attr), f"stabwitness.{module}.{cls_name} has no {attr}"


def test_every_kind_is_in_every_table():
    # each witness kind has a kernel, a place in the report order and a CLI
    # spelling; a new kind fails here until every table has it
    from stabwitness import cli, evaluation, reporting
    from stabwitness.witnesses import WitnessKind

    for kind in WitnessKind:
        assert kind in evaluation._KERNELS, f"no kernel for {kind.value}"
        assert kind in reporting._KIND_ORDER, f"no report order for {kind.value}"
        assert kind in cli._KIND_FLAGS.values(), f"no CLI kind for {kind.value}"
    assert len(cli._KIND_FLAGS) == len(evaluation._KERNELS) == len(WitnessKind)
