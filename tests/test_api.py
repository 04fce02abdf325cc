"""The package's public names: every ``__all__`` entry exists, and every
function and class is reached by something besides the tests."""

import ast
import importlib
import inspect
import pkgutil
import re
from collections import Counter
from pathlib import Path

import pytest

import gaitkinetics

MODULES = ["gaitkinetics"] + [
    f"gaitkinetics.{info.name}" for info in pkgutil.iter_modules(gaitkinetics.__path__)
]

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_no_function_or_class_is_reached_only_by_the_tests():
    """Each function, method and class defined in the package is named, as a
    whole word, somewhere in ``src/``, ``benchmarks/``, ``tools/`` or the
    README besides its own ``def``/``class``, its ``__all__`` entries and the
    package's re-export of it.  Dunder methods are called implicitly and are
    skipped.

    The scan matches words, not references: a name that other identifiers
    also use, such as ``format``, ``channel`` or ``times``, is counted as
    used wherever any of them appears, and so slips past it.
    """
    package = REPO / "src" / "gaitkinetics"
    defined, listed = Counter(), Counter()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] += 1
            elif isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets
            ):
                listed.update(ast.literal_eval(node.value))
            elif path.name == "__init__.py" and isinstance(node, ast.ImportFrom):
                listed.update(alias.name for alias in node.names)
    corpus = [*(REPO / "src").rglob("*.py"), *(REPO / "benchmarks").glob("*.py"),
              *(REPO / "tools").glob("*.py"), REPO / "README.md"]
    text = "\n".join(path.read_text(encoding="utf-8") for path in corpus)
    unreached = [
        name for name in sorted(defined)
        if not (name.startswith("__") and name.endswith("__"))
        and len(re.findall(rf"\b{name}\b", text)) <= defined[name] + listed[name]
    ]
    assert unreached == []


def test_every_method_is_called_besides_the_tests():
    """Each method of a package class is called as ``.name(`` somewhere in
    ``src/``, ``benchmarks/``, ``tools/`` or the README, and each property is
    read as ``.name``.  Dunder methods are called implicitly and are skipped.

    Still a scan of words: a method is counted as called wherever another
    object's method of the same name is.
    """
    package = REPO / "src" / "gaitkinetics"
    corpus = [*(REPO / "src").rglob("*.py"), *(REPO / "benchmarks").glob("*.py"),
              *(REPO / "tools").glob("*.py"), REPO / "README.md"]
    text = "\n".join(path.read_text(encoding="utf-8") for path in corpus)
    uncalled = []
    for path in sorted(package.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("__"):
                    continue
                read = any(getattr(d, "id", None) == "property" for d in node.decorator_list)
                if not re.search(rf"\.{node.name}\b" + ("" if read else r"\("), text):
                    uncalled.append(f"{cls.name}.{node.name}")
    assert uncalled == []


@pytest.mark.parametrize(
    "module, function, parameter",
    [
        ("ingest", "ForcePlateSeries", "noise_floor_n"),
        ("ingest", "parse_force_file", "noise_floor_n"),
        ("cli", "build_config", "env"),
        ("synth", "synth_force_plates", "gravity_mps2"),
        *(("synth", "WalkerParams", shape) for shape in (
            "bob_amplitude_m", "sway_amplitude_m", "foot_ap_amplitude_m", "heel_lift_m",
            "toe_lift_m",
        )),
    ],
)
def test_parameters_that_no_run_set_are_gone(module, function, parameter):
    """The plate noise floor is the constant ``ingest.NOISE_FLOOR_N``, the
    output directory's environment variable is read from ``os.environ``, the
    synthetic plates weigh the walker at 9.81 m/s^2, and the walker's shape
    (its bob, sway, foot swing and lifts) is fixed in ``synth``."""
    target = getattr(importlib.import_module(f"gaitkinetics.{module}"), function)
    assert parameter not in inspect.signature(target).parameters
