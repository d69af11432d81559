"""Structural checks on the package source."""

import ast
from pathlib import Path

import privglm

SRC = Path(privglm.__file__).parent


def test_no_module_imports_a_private_name_of_another():
    # a name with a leading underscore belongs to its own module; a sibling
    # that needs it should get a public name instead
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules under {SRC}"
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [
                    f"{path.name}:{node.lineno} imports {alias.name} from "
                    f"{'.' * node.level}{node.module or ''}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not found, "\n".join(found)
