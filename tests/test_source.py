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
