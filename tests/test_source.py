import ast
import json
import os
import subprocess
import sys
from collections import Counter
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


# a call of one of these on a container grows it
_GROWING_METHODS = {"add", "append", "extend", "insert", "setdefault", "update"}
_CONTAINER_NODES = (ast.Dict, ast.Set, ast.List, ast.DictComp, ast.SetComp, ast.ListComp)
_CONTAINER_CALLS = {"dict", "set", "list", "defaultdict", "OrderedDict", "Counter"}


def _module_containers(tree):
    """Names that the module's top level binds to a dict, set or list."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        call = value.func if isinstance(value, ast.Call) else None
        called = getattr(call, "attr", None) or getattr(call, "id", None)
        if isinstance(value, _CONTAINER_NODES) or called in _CONTAINER_CALLS:
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _grown_containers(tree):
    """Line numbers where a function grows a module-level container: an
    item stored into it or a growing method called on it."""
    names = _module_containers(tree)
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                target = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                target = node.func.value if node.func.attr in _GROWING_METHODS else None
            else:
                continue
            if isinstance(target, ast.Name) and target.id in names:
                found.append(node.lineno)
    return found


def _unbounded_caches(source, filename):
    """Line numbers of ``lru_cache(maxsize=None)``, ``functools.cache`` and
    of every place a function grows a module-level dict, set or list."""
    tree = ast.parse(source, filename=filename)
    found = _grown_containers(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "cache":
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                found.append(node.lineno)
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            if name == "lru_cache":
                size = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
                if any(isinstance(v, ast.Constant) and v.value is None for v in size):
                    found.append(node.lineno)
    return sorted(set(found))


def test_no_unbounded_caches_in_src():
    # an unbounded cache keyed by n or by element grows for the life of
    # the process, and so does a module-level container that a function
    # fills; a bounded memo is an lru_cache with a size
    planted = (
        "import functools\n"
        "@functools.lru_cache(maxsize=None)\ndef f(n): return n\n"
        "@functools.lru_cache(None)\ndef g(n): return n\n"
        "@functools.cache\ndef h(n): return n\n"
        "@functools.lru_cache(maxsize=8)\ndef k(n): return n\n"
        "MEMO = {}\nSEEN: set = set()\nORDER = []\nFIXED = {'a': 1}\n"
        "def remember(key, local={}):\n"
        "    MEMO[key] = local[key] = FIXED['a']\n"
        "    SEEN.add(key)\n"
        "    ORDER.append(key)\n"
        "    ORDER.sort()\n"
        "    return len(MEMO) + len(ORDER)\n"
        "def forget(key):\n"
        "    del MEMO[key]\n"
        "    return FIXED.get(key, SEEN)\n"
    )
    assert _unbounded_caches(planted, "planted.py") == [2, 4, 6, 15, 16, 17]
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


# names that nothing in src/ calls, each kept on purpose
UNCALLED_ALLOWED = {
    "closure": "table builder for the tests, traced by the benchmark",
    "empty": "library constructor of the empty map",
    "error": "argparse hook, called by ArgumentParser",
    "ideal_j_classes": "oracle for the tests, traced by the benchmark",
    "irreducibles": "oracle for the tests, traced by the benchmark",
    "parse_word": "the inverse of Word.text: an input format, not a second path",
}


def _uncalled_definitions(sources):
    """(file, line, name) of every function and class defined in
    ``sources`` (file name -> source text) whose name is referenced
    nowhere outside its own body and is not listed in an ``__all__``.
    A method counts as referenced only through an attribute, never
    through a bare name such as a local variable of the same name.
    Dunder methods, called by the language, are skipped."""

    def references(node):
        names, attrs = Counter(), Counter()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                names[sub.id] += 1
            elif isinstance(sub, ast.Attribute):
                attrs[sub.attr] += 1
        return names, attrs

    trees = {name: ast.parse(text, filename=name) for name, text in sources.items()}
    names, attrs = Counter(), Counter()
    exported = set()
    for tree in trees.values():
        tree_names, tree_attrs = references(tree)
        names.update(tree_names)
        attrs.update(tree_attrs)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported.update(ast.literal_eval(node.value))
    found = []
    for filename, tree in trees.items():
        methods = {
            id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in exported:
                continue
            own_names, own_attrs = references(node)
            used = attrs[name] - own_attrs[name]
            if id(node) not in methods:
                used += names[name] - own_names[name]
            if not used:
                found.append((filename, node.lineno, name))
    return sorted(found)


def test_every_src_definition_is_called():
    # a function that only the tests call is a second path to keep in
    # step with the first
    planted = {
        "a.py": (
            "__all__ = ['exported']\n"
            "def exported(): pass\n"
            "def used(): return helper()\n"
            "def helper(): return 1\n"
            "def recursive(k): return recursive(k - 1)\n"
            "class Box:\n"
            "    def __len__(self): return 0\n"
            "    def method(self): return 1\n"
            "    @property\n"
            "    def prop(self): return 2\n"
            "    def shadowed(self): return 3\n"
        ),
        "b.py": "x = used()\ny = Box().method()\nshadowed = x\nz = shadowed\n",
    }
    assert _uncalled_definitions(planted) == [
        ("a.py", 5, "recursive"), ("a.py", 10, "prop"), ("a.py", 11, "shadowed"),
    ]
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    found = _uncalled_definitions(sources)
    assert [f"{f}:{line} {name}" for f, line, name in found if name not in UNCALLED_ALLOWED] == []
    # and the allowlist holds only names that are still uncalled
    assert {name for _, _, name in found} == set(UNCALLED_ALLOWED)


# function-level imports, each kept on purpose: (file, function) -> reason.
# None is left: a module's dependencies are read at its head, so a new
# import cycle fails here instead of hiding in a function body.
LOCAL_IMPORTS_ALLOWED = {}


def _function_level_imports(sources):
    """(file, function, line) of every import statement inside a
    function body in ``sources`` (file name -> source text)."""
    found = []
    for filename, text in sources.items():
        for node in ast.walk(ast.parse(text, filename=filename)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in ast.walk(node):
                    if isinstance(sub, (ast.Import, ast.ImportFrom)):
                        found.append((filename, node.name, sub.lineno))
    return sorted(set(found))


def test_no_function_level_imports_in_src():
    # a module's dependencies are read at its head; an import cycle is
    # broken by moving code, not by importing inside a function
    planted = {
        "a.py": (
            "import os\n"
            "def f():\n"
            "    from . import b\n"
            "    def g():\n"
            "        import sys\n"
            "    return g\n"
        ),
    }
    assert _function_level_imports(planted) == [
        ("a.py", "f", 3), ("a.py", "f", 5), ("a.py", "g", 5),
    ]
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    found = _function_level_imports(sources)
    allowed = LOCAL_IMPORTS_ALLOWED
    assert [f"{f}:{line} {name}" for f, name, line in found if (f, name) not in allowed] == []
    # and the allowlist holds only imports that are still there
    assert {(f, name) for f, name, _ in found} == set(LOCAL_IMPORTS_ALLOWED)
