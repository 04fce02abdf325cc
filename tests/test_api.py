"""The package's public names: every ``__all__`` entry exists, and every
function and class is reached by something besides the tests."""

import ast
import importlib
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
