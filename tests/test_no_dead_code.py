"""Every function, class, method and module-level name defined in
`src/httool` is used by the program.

Uses are read from the syntax trees of the package and of the benchmark
(`perfbench/`), plus the entry points that `pyproject.toml` names; the
tests do not count, so code that only tests call is dead.  A use is
resolved to the definition it reaches:

- a bare name in a module reaches that module's own definition, or the one
  that a `from ... import` in the file binds to it;
- `m.name`, with `m` bound to a module of the package by an import, reaches
  `name` in that module, so `_gfp.f` and `exactpoly.f` are told apart;
- `x.name` on anything else reaches every method called `name`, except
  `args.name` in `cli`, an option read from argparse's Namespace.

A definition's uses inside its own body (recursion) do not count.  Words in
comments, docstrings and other strings do not count either.  Dunder methods
are called by the interpreter, and a method overriding one of a base class
(such as `argparse.ArgumentParser.error`) is called by the base class;
neither is checked.
"""

import ast
import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "httool"
USERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _module_of(path: pathlib.Path) -> str | None:
    return f"httool.{path.stem}" if path.parent == PACKAGE else None


def _definitions() -> tuple[set[tuple[str, str]], dict[str, set[tuple[str, str]]]]:
    """(module, name) for every module-level definition, and method name ->
    the (module, Class.method) pairs defining it."""
    top: set[tuple[str, str]] = set()
    methods: dict[str, set[tuple[str, str]]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = _module_of(path)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                top.add((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                top.update((module, t.id) for t in targets if isinstance(t, ast.Name) and not _is_dunder(t.id))
            if isinstance(node, ast.ClassDef):
                bases = getattr(importlib.import_module(module), node.name).__mro__[1:]
                for item in node.body:
                    if (
                        isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not _is_dunder(item.name)
                        and not any(hasattr(base, item.name) for base in bases)
                    ):
                        methods.setdefault(item.name, set()).add((module, f"{node.name}.{item.name}"))
    return top, methods


def _absolute(module: str | None, node: ast.ImportFrom) -> str:
    """The module an ImportFrom names, resolving relative imports."""
    if node.level == 0:
        return node.module or ""
    parts = (module or "").split(".")[: -node.level]
    return ".".join(parts + ([node.module] if node.module else []))


class _Uses(ast.NodeVisitor):
    """The definitions one file reaches, skipping each definition's own body
    for uses of itself."""

    def __init__(self, module: str | None, modules: set[str], methods):
        self.module = module
        self.modules = modules
        self.methods = methods
        self.bound: dict[str, tuple[str, str | None]] = {}  # local -> (module, name or None)
        self.enclosing: list[tuple[str, str]] = []
        self.classes: list[str] = []
        self.uses: set[tuple[str, str]] = set()

    def bind_imports(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.bound[alias.asname] = (alias.name, None)
                    else:
                        root = alias.name.split(".")[0]
                        self.bound[root] = (root, None)
            elif isinstance(node, ast.ImportFrom):
                source = _absolute(self.module, node)
                for alias in node.names:
                    local = alias.asname or alias.name
                    full = f"{source}.{alias.name}"
                    self.bound[local] = (full, None) if full in self.modules else (source, alias.name)

    def _use(self, target: tuple[str, str]) -> None:
        if target not in self.enclosing:
            self.uses.add(target)

    def _scoped(self, node, name: str) -> None:
        self.enclosing.append((self.module, name))
        self.generic_visit(node)
        self.enclosing.pop()

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        self._scoped(node, node.name)
        self.classes.pop()

    def visit_FunctionDef(self, node):
        # a method is named Class.method, as in `_definitions`
        in_class = self.classes and self.enclosing[-1][1] == self.classes[-1]
        self._scoped(node, f"{self.classes[-1]}.{node.name}" if in_class else node.name)

    visit_AsyncFunctionDef = visit_FunctionDef

    def _resolve(self, node) -> tuple[str, str | None] | None:
        """(module, name or None) that an expression denotes, when it is a
        bound or module-level name, or an attribute chain on one."""
        if isinstance(node, ast.Name):
            if node.id in self.bound:
                return self.bound[node.id]
            return (self.module, node.id) if self.module else None
        if isinstance(node, ast.Attribute):
            base = self._resolve(node.value)
            if base is not None and base[1] is None:
                full = f"{base[0]}.{node.attr}"
                return (full, None) if full in self.modules else (base[0], node.attr)
        return None

    def visit_Name(self, node):
        target = self._resolve(node)
        if isinstance(node.ctx, ast.Load) and target is not None and target[1] is not None:
            self._use(target)

    def visit_Attribute(self, node):
        target = self._resolve(node)
        namespace = self.module == "httool.cli" and isinstance(node.value, ast.Name) and node.value.id == "args"
        if isinstance(node.ctx, ast.Load) and not namespace:
            if target is None:
                for method in self.methods.get(node.attr, ()):
                    self._use(method)
            elif target[1] is not None:
                self._use(target)
        self.visit(node.value)


def used_definitions() -> set[tuple[str, str]]:
    _top, methods = _definitions()
    modules = {"httool"} | {_module_of(path) for path in PACKAGE.glob("*.py")}
    uses: set[tuple[str, str]] = set()
    for path in USERS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visitor = _Uses(_module_of(path), modules, methods)
        visitor.bind_imports(tree)
        visitor.visit(tree)
        uses |= visitor.uses
    entry_points = re.findall(r'"([\w.]+):(\w+)"', (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    uses.update(entry_points)
    return uses


def test_every_definition_is_used():
    top, methods = _definitions()
    uses = used_definitions()
    defined = top | {pair for pairs in methods.values() for pair in pairs}
    unused = sorted(f"{module.removeprefix('httool.')}.{name}" for module, name in defined - uses)
    assert unused == []
