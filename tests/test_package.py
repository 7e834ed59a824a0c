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
    # each witness kind has a kernel and a CLI spelling; a new kind fails
    # here until every table has it
    from stabwitness import cli, evaluation
    from stabwitness.witnesses import WitnessKind

    for kind in WitnessKind:
        assert kind in evaluation._KERNELS, f"no kernel for {kind.value}"
        assert kind in cli._KIND_FLAGS.values(), f"no CLI kind for {kind.value}"
    assert len(cli._KIND_FLAGS) == len(evaluation._KERNELS) == len(WitnessKind)


def test_every_census_vocabulary_has_one_owner():
    # the census's columns and methods are named once, in witnesses, and the
    # kinds' CLI spellings once, in cli._KIND_FLAGS: the census fields, the
    # report's rows, totals and header, and the CLI's defaults and choices
    # all read those tables, so a new column, method or kind fails here
    # until each place has it
    import argparse
    import dataclasses
    import inspect
    import json

    from stabwitness import cli, witnesses
    from stabwitness.groups import build_color_code
    from stabwitness.reporting import CensusRow, build_census_report

    columns, methods = witnesses._COLUMNS, witnesses._METHODS
    census = witnesses.run_census(build_color_code(), omegas=[(1, 2), (1, 2, 5)])
    census_columns = tuple(
        f.name
        for f in dataclasses.fields(census)
        if isinstance(getattr(census, f.name), witnesses._CensusColumn)
    )
    assert census_columns == columns
    assert tuple(f.name for f in dataclasses.fields(CensusRow))[2:] == columns
    assert tuple(census.totals()) == columns
    report = build_census_report(census)
    assert tuple(report.to_csv().splitlines()[0].split(","))[2:] == columns
    assert tuple(json.loads(report.to_json())["rows"][0])[2:] == columns
    assert tuple(report.class_table()[0])[3:] == columns
    default = inspect.signature(witnesses.run_census).parameters["methods"].default
    assert default == methods

    parser = cli.build_parser()
    (commands,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]

    def option(command, flag):
        (action,) = [
            a for a in commands.choices[command]._actions if flag in a.option_strings
        ]
        return action

    for command, flag, names in [
        ("enumerate", "--methods", methods),
        ("eval", "--kinds", tuple(cli._KIND_FLAGS)),
    ]:
        action = option(command, flag)
        assert action.default == ",".join(names)
        assert action.help == f"comma list from {','.join(names)}"
    assert tuple(option("critical-prob", "--kind").choices) == tuple(cli._KIND_FLAGS)
