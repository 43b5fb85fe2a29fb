"""Source guards: every random generator the library builds is seeded, so
weights and reruns stay reproducible (acceptance criterion 10)."""

import ast
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
