import ast
from pathlib import Path

import fencemonoid

SRC = Path(fencemonoid.__file__).parent


def test_no_assert_statements_in_src():
    # runtime checks must survive python -O, which strips assert statements
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SRC.glob("*.py"))) >= 7
    assert found == []


def _unbounded_caches(source, filename):
    """Line numbers of ``lru_cache(maxsize=None)`` and ``functools.cache``."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Attribute) and node.attr == "cache":
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                found.append(node.lineno)
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            if name == "lru_cache":
                size = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
                if any(isinstance(v, ast.Constant) and v.value is None for v in size):
                    found.append(node.lineno)
    return found


def test_no_unbounded_caches_in_src():
    # an unbounded cache keyed by n or by element grows for the life of
    # the process
    planted = (
        "import functools\n"
        "@functools.lru_cache(maxsize=None)\ndef f(n): return n\n"
        "@functools.lru_cache(None)\ndef g(n): return n\n"
        "@functools.cache\ndef h(n): return n\n"
        "@functools.lru_cache(maxsize=8)\ndef k(n): return n\n"
    )
    assert _unbounded_caches(planted, "planted.py") == [2, 4, 6]
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _unbounded_caches(path.read_text(), str(path))
    ]
    assert found == []
