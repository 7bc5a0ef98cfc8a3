"""Every function, class, method and module-level name defined in
`src/httool` is used somewhere.

References are the NAME tokens of the Python code in the package, the tests
and the benchmark, plus the entry points that `pyproject.toml` names; words
in comments, docstrings and other strings do not count.  A name that occurs
only once occurs only in its own definition, so nothing reads it.  Dunder
methods are called by the interpreter, and a method overriding one of a base
class (such as `argparse.ArgumentParser.error`) is called by the base class;
neither is checked.
"""

import ast
import collections
import importlib
import pathlib
import re
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "httool"
SEARCHED = [
    *sorted(PACKAGE.glob("*.py")),
    *sorted((ROOT / "tests").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _defined_names(path: pathlib.Path) -> list[str]:
    names = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name) and not _is_dunder(t.id))
        if isinstance(node, ast.ClassDef):
            bases = getattr(importlib.import_module(f"httool.{path.stem}"), node.name).__mro__[1:]
            names.extend(
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not _is_dunder(item.name)
                and not any(hasattr(base, item.name) for base in bases)
            )
    return names


def _references() -> collections.Counter:
    counts: collections.Counter = collections.Counter()
    for path in SEARCHED:
        with tokenize.open(path) as source:
            tokens = tokenize.generate_tokens(source.readline)
            counts.update(tok.string for tok in tokens if tok.type == tokenize.NAME)
    entry_points = re.findall(r'"[\w.]+:(\w+)"', (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    counts.update(entry_points)
    return counts


def test_every_definition_is_used():
    counts = _references()
    unused = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _defined_names(path)
        if counts[name] <= 1
    ]
    assert unused == []
