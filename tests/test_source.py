import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import fencemonoid

SRC = Path(fencemonoid.__file__).parent
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


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


# installs the traced benchmark's wrappers on freshly imported modules, as
# a traced pass does, and prints the metrics it could not wrap
_TRACED_METRICS = """
import importlib, json
import passrun, tracing
package = importlib.import_module("fencemonoid")
mods = {name: importlib.import_module("fencemonoid." + name) for name in passrun.MODULES}
tracer = tracing.Tracer()
tracing.install(tracer, package, mods)
reported = tracing.layer_metrics(tracer)
print(json.dumps([m[0] for m in tracing.METRICS if m[0] not in reported]))
"""


def test_traced_benchmark_reports_every_layer_metric():
    # the traced run drops, without failing, every metric whose symbols it
    # cannot wrap, such as a ``closure`` no longer bound by name in genfam
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCHMARKS), str(SRC.parent)]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _TRACED_METRICS],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
