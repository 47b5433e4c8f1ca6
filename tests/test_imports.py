"""The package's import graph: acyclic, with every import at module level,
and every imported name read from the module that defines it; and its
import budget: what a fresh CLI process loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import topobelief

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "topobelief"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _trees():
    paths = sorted(PACKAGE.glob("*.py"))
    return {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in paths}


def _targets(node) -> set[str]:
    """The package modules one relative import reads, at any depth."""
    if not isinstance(node, ast.ImportFrom) or node.level != 1:
        return set()
    if node.module:
        return {node.module.split(".")[0]}
    # "from . import x": x is a module, or else a name read from __init__
    return {a.name if a.name in MODULES else "__init__" for a in node.names}


def import_graph() -> dict[str, set[str]]:
    return {
        name: set().union(*(_targets(node) for node in ast.walk(tree)))
        for name, tree in _trees().items()
    }


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of the graph as a closed path [a, b, ..., a], or None."""
    state: dict[str, str] = {}

    def visit(path: list[str]) -> list[str] | None:
        state[path[-1]] = "open"
        for nxt in sorted(graph.get(path[-1], ())):
            if state.get(nxt) == "open":
                return path[path.index(nxt) :] + [nxt]
            if nxt not in state and (found := visit(path + [nxt])):
                return found
        state[path[-1]] = "done"
        return None

    for node in sorted(graph):
        if node not in state and (found := visit([node])):
            return found
    return None


def test_cycle_finder_names_the_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None


def test_graph_reads_imports_inside_functions():
    tree = ast.parse("def f():\n    from .model import dump\n    from . import cli\n")
    assert set().union(*(_targets(n) for n in ast.walk(tree))) == {"model", "cli"}


def test_package_import_graph_is_acyclic():
    graph = import_graph()
    assert {"model", "relational", "semantics"} <= set(graph)
    cycle = find_cycle(graph)
    assert cycle is None, "import cycle: " + " -> ".join(cycle)


def test_no_import_inside_a_function():
    for name, tree in _trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [
                    n.lineno for n in ast.walk(fn) if isinstance(n, (ast.Import, ast.ImportFrom))
                ]
                assert not inner, f"{name}.py: import inside {fn.name} at lines {inner}"


def _imported_modules(tree) -> set[str]:
    """The top-level names of the absolute imports in one module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            out.add(node.module.split(".")[0])
    return out


def test_no_module_imports_dataclasses():
    """The package's frozen classes are records (record.py): importing
    dataclasses pulls in inspect, dis, ast and tokenize, and compiles each
    class's methods, in every fresh CLI process."""
    importers = sorted(n for n, tree in _trees().items() if "dataclasses" in _imported_modules(tree))
    assert importers == []


def test_cli_import_loads_no_dataclasses_or_inspect():
    probe = "import sys, topobelief.cli; print(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    loaded = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "topobelief.cli" in loaded
    assert not {"dataclasses", "inspect"} & set(loaded)


def _bound_names(node) -> list[str]:
    """The names one import statement binds in its module."""
    return [(a.asname or a.name).split(".")[0] for a in node.names]


def test_every_module_import_is_read():
    """No stale import: every name a module-level import binds is read
    somewhere in its module (the package's re-exports excepted)."""
    for name, tree in _trees().items():
        if name == "__init__":
            continue
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unread = [bound for bound in _bound_names(node) if bound not in read]
                assert not unread, f"{name}.py: unread import {unread} at line {node.lineno}"


def _defined(tree) -> set[str]:
    """The names a module defines itself: its module-level defs, classes
    and assignment targets."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return out


def foreign_imports(trees: dict[str, ast.Module]) -> list[str]:
    """Each `from .m import name` whose name m does not define itself."""
    defined = {name: _defined(tree) for name, tree in trees.items()}
    return [
        f"{name}.py line {node.lineno}: {a.name} is not defined in {node.module}.py"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for a in node.names
        if a.name not in defined[node.module]
    ]


def test_owner_finder_names_a_name_read_through_another_module():
    trees = {
        "a": ast.parse("from .b import f, X, Y\n"),
        "b": ast.parse("from .c import X\nY: int = 1\ndef f():\n    return X\n"),
        "c": ast.parse("class X:\n    pass\n"),
    }
    assert foreign_imports(trees) == ["a.py line 1: X is not defined in b.py"]


def test_every_name_is_imported_from_its_owner():
    """A relative import names something its module defines, not something
    that module imported, so each name has one import path."""
    assert foreign_imports(_trees()) == []


def _read(trees: dict[str, ast.Module]) -> set[str]:
    """Every name the trees read: Name loads, attribute names, and names
    imported from the package (relatively, or from topobelief)."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (
                node.level == 1 or (node.module or "").split(".")[0] == "topobelief"
            ):
                read.update(a.name for a in node.names)
    return read


def unread_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """Each module-level private name of a module (def, class or assigned
    constant) that nothing in the package reads: no Name load, no
    attribute of that name, and no import of it from another module."""
    read = _read(trees)
    return [
        f"{name}.py: {defined} is read nowhere in the package"
        for name, tree in trees.items()
        for defined in sorted(_defined(tree))
        if defined.startswith("_") and not defined.startswith("__") and defined not in read
    ]


def test_unread_finder_names_each_private_name_nothing_reads():
    trees = {
        "a": ast.parse("from .b import _used\n_CONST = 1\ndef _orphan():\n    return _used\n"),
        "b": ast.parse("def _used():\n    return b._attr\n_attr = 2\n"),
    }
    assert unread_private_names(trees) == [
        "a.py: _CONST is read nowhere in the package",
        "a.py: _orphan is read nowhere in the package",
    ]


def test_every_private_name_is_read_in_the_package():
    """Code that only the tests read belongs with the tests: every private
    name a module defines at module level is read somewhere in src/."""
    assert unread_private_names(_trees()) == []


def _traced_by_name(outside: dict[str, ast.Module]) -> set[str]:
    """The names in a `calls` table of the outside trees: perfbench's
    spans.install looks each one up with getattr to wrap it, a read by name
    that no Name or attribute node shows.  Other string constants do not
    count."""
    return {
        node.value
        for tree in outside.values()
        for assign in ast.walk(tree)
        if isinstance(assign, ast.Assign) and isinstance(assign.value, ast.Dict)
        and any(isinstance(t, ast.Name) and t.id == "calls" for t in assign.targets)
        for names in assign.value.values
        for node in ast.walk(names)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def unread_public_names(
    trees: dict[str, ast.Module], exported: set[str], outside: dict[str, ast.Module]
) -> list[str]:
    """Each public module-level def or class of the package that is not
    read in the package (counted as for private names), not exported in
    topobelief.__all__, and not read in the outside trees (counted the same
    way, plus the names their spans table traces, see _traced_by_name)."""
    read = _read(trees) | exported | _read(outside) | _traced_by_name(outside)
    return [
        f"{name}.py: {node.name} is read nowhere in the package, the demos or the benchmark"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read
    ]


def test_public_finder_names_each_public_name_nothing_reads():
    trees = {
        "a": ast.parse("from .b import used\ndef orphan():\n    pass\nclass Shown:\n    pass\n"),
        "b": ast.parse(
            "def used():\n    pass\ndef demo_only():\n    pass\ndef traced():\n    pass\n"
            "def counted():\n    pass\nX = 1\n"
        ),
    }
    outside = {
        "demo": ast.parse("from topobelief.b import demo_only\n"),
        "bench": ast.parse("calls = {b: ('traced',)}\nCOUNTERS = ('counted',)\n"),
    }
    assert unread_public_names(trees, {"Shown"}, outside) == [
        "a.py: orphan is read nowhere in the package, the demos or the benchmark",
        "b.py: counted is read nowhere in the package, the demos or the benchmark",
    ]


def _outside() -> dict[str, ast.Module]:
    """The demos and the benchmark, the package's readers outside src/."""
    root = PACKAGE.parents[1]
    paths = sorted((root / "demos").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    return {str(p): ast.parse(p.read_text(), filename=str(p)) for p in paths}


def test_every_public_name_is_read_exported_or_used_outside():
    """Code that only the tests read belongs with the tests: every public
    def or class is read in src/, exported from the package, or read by a
    demo or the benchmark."""
    assert unread_public_names(_trees(), set(topobelief.__all__), _outside()) == []


def unread_public_methods(
    trees: dict[str, ast.Module], outside: dict[str, ast.Module]
) -> list[str]:
    """Each public method, classmethod or property of a module-level class
    of the package that is read nowhere in the package or the outside trees
    (counted as for public names); dunders are exempt."""
    read = _read(trees) | _read(outside)
    return [
        f"{name}.py: {cls.name}.{node.name} is read nowhere in the package, the demos"
        " or the benchmark"
        for name, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in read
    ]


def test_method_finder_names_each_public_method_nothing_reads():
    trees = {
        "a": ast.parse(
            "class C:\n"
            "    def used(self):\n        return self.shown\n"
            "    @property\n    def shown(self):\n        pass\n"
            "    @classmethod\n    def orphan(cls):\n        pass\n"
            "    def __eq__(self, other):\n        pass\n"
            "    def _private(self):\n        pass\n"
            "C().used()\n"
        ),
        "b": ast.parse("class D:\n    def demo_only(self):\n        pass\n"),
    }
    outside = {"demo": ast.parse("from topobelief.b import D\nD().demo_only()\n")}
    assert unread_public_methods(trees, outside) == [
        "a.py: C.orphan is read nowhere in the package, the demos or the benchmark"
    ]


def test_every_public_method_is_read_in_the_package_or_outside():
    """Code that only the tests read belongs with the tests: every public
    method, classmethod or property of a package class is read in src/, or
    by a demo or the benchmark."""
    assert unread_public_methods(_trees(), _outside()) == []
