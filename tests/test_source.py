"""Source guards: every random generator the library builds is seeded, so
weights and reruns stay reproducible (acceptance criterion 10), and the
library imports no third-party module beyond a named set."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import ssmocr

SRC = Path(ssmocr.__file__).parent


def unseeded_generators(source: str) -> list[int]:
    """Line numbers of ``default_rng()`` / ``default_rng(None)`` calls."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != "default_rng":
            continue
        seeds = node.args + [kw.value for kw in node.keywords]
        if all(isinstance(a, ast.Constant) and a.value is None for a in seeds):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source,flagged", [
    ("rng = np.random.default_rng()", True),
    ("rng = default_rng(None)", True),
    ("rng = np.random.default_rng(seed=None)", True),
    ("rng = np.random.default_rng() if rng is None else rng", True),
    ("rng = np.random.default_rng(0)", False),
    ("rng = np.random.default_rng([cfg.seed, 1])", False),
    ("rng = np.random.default_rng(seed=spec.seed)", False),
])
def test_detector(source, flagged):
    assert bool(unseeded_generators(source)) == flagged


def test_library_builds_no_unseeded_generator():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in unseeded_generators(path.read_text(encoding="utf-8"))]
    assert found == []


# a new runtime dependency fails here by name; dropping scipy shrinks the set
RUNTIME_DEPENDENCIES = {"numpy", "scipy.special", "scipy.ndimage"}


def third_party_imports(source: str) -> set[str]:
    """Modules outside the standard library and ssmocr that a source
    imports: ``import a.b`` gives a.b, and ``from a import b`` gives a.b
    when that is a module, else a."""
    local = set(sys.stdlib_module_names) | {"ssmocr"}
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.split(".")[0] not in local)
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] not in local):
            for a in node.names:
                sub = f"{node.module}.{a.name}"
                found.add(sub if importlib.util.find_spec(sub) else node.module)
    return found


@pytest.mark.parametrize("source,found", [
    ("import numpy as np", {"numpy"}),
    ("from scipy.special import erf", {"scipy.special"}),
    ("from scipy import ndimage", {"scipy.ndimage"}),
    ("import os.path, json\nfrom dataclasses import dataclass", set()),
    ("from . import tensor as T\nfrom .config import RunConfig", set()),
    ("def f():\n    import scipy.signal", {"scipy.signal"}),
])
def test_import_detector(source, found):
    assert third_party_imports(source) == found


def test_library_imports_only_its_runtime_dependencies():
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        imported |= third_party_imports(path.read_text(encoding="utf-8"))
    assert imported == RUNTIME_DEPENDENCIES
