"""Every function, class and method defined in `src/httool` is used somewhere.

A name that occurs only once as a whole word across the package, the tests,
the benchmark and `pyproject.toml` occurs only in its own definition, so
nothing calls it.  Dunder methods are called by the interpreter and are not
checked.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "httool"
SEARCHED = [
    *sorted(PACKAGE.glob("*.py")),
    *sorted((ROOT / "tests").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "pyproject.toml",
]


def _defined_names(path: pathlib.Path) -> list[str]:
    names = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names.extend(
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (item.name.startswith("__") and item.name.endswith("__"))
            )
    return names


def test_every_definition_is_used():
    text = "\n".join(path.read_text(encoding="utf-8") for path in SEARCHED)
    unused = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _defined_names(path)
        if len(re.findall(rf"\b{re.escape(name)}\b", text)) <= 1
    ]
    assert unused == []
