"""No function in the package calls itself, directly or through others.

Every walk over a formula is a loop over postorder(f) or an explicit
stack, so it works at any depth.  The one exception is the
recursive-descent parser, which parse bounds by formula.MAX_DEPTH.
"""

import ast
import copy
import pickle
from pathlib import Path

from topobelief.formula import Atom, Bel, Not

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "topobelief"

# the functions allowed on a cycle of calls, as module.qualified_name
ALLOWED = {
    "formula._Parser.formula",
    "formula._Parser.unary",
    "formula._Parser.atom",
}


def _trees():
    return {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def call_graph(trees: dict[str, ast.Module]) -> dict[str, set[str]]:
    """Each function's callees among the functions of the modules.

    A call is read when it names a function in scope (nested, then module
    level, then from-imported), calls self.name or cls.name in a method of
    the same class, or calls alias.name on a package module imported as
    alias; other calls (on instances, on classes) are not followed.
    """
    defs: dict[str, tuple[ast.AST, str, list[str], str | None]] = {}

    def collect(module, body, prefix, scopes, cls):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + node.name
                defs[f"{module}.{name}"] = (node, module, scopes, cls)
                collect(module, node.body, name + ".", scopes + [name], None)
            elif isinstance(node, ast.ClassDef):
                collect(module, node.body, prefix + node.name + ".", scopes, prefix + node.name)

    imported: dict[str, dict[str, str]] = {}
    aliases: dict[str, dict[str, str]] = {}
    for module, tree in trees.items():
        collect(module, tree.body, "", [], None)
        imported[module], aliases[module] = {}, {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    bound = a.asname or a.name
                    if node.module:
                        imported[module][bound] = f"{node.module}.{a.name}"
                    else:
                        aliases[module][bound] = a.name

    def resolve(call, module, scopes, cls):
        fn = call.func
        if isinstance(fn, ast.Name):
            for scope in reversed(scopes):
                if f"{module}.{scope}.{fn.id}" in defs:
                    return f"{module}.{scope}.{fn.id}"
            if f"{module}.{fn.id}" in defs:
                return f"{module}.{fn.id}"
            return imported[module].get(fn.id)
        if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name):
            if cls is not None and fn.value.id in ("self", "cls"):
                return f"{module}.{cls}.{fn.attr}"
            if fn.value.id in aliases[module]:
                return f"{aliases[module][fn.value.id]}.{fn.attr}"
        return None

    graph = {}
    for qualname, (node, module, scopes, cls) in defs.items():
        inner = scopes + [qualname.split(".", 1)[1]]
        calls = (n for n in ast.walk(node) if isinstance(n, ast.Call))
        graph[qualname] = {c for c in (resolve(n, module, inner, cls) for n in calls) if c in defs}
    return graph


def on_cycles(graph: dict[str, set[str]]) -> set[str]:
    """The functions that can reach themselves through calls."""
    out = set()
    for start in graph:
        seen, stack = set(), list(graph[start])
        while stack:
            f = stack.pop()
            if f == start:
                out.add(start)
                break
            if f not in seen:
                seen.add(f)
                stack.extend(graph[f])
    return out


def test_finder_sees_direct_mutual_and_method_recursion():
    source = """
from . import other as o
def fact(n):
    return n * fact(n - 1)
def even(n):
    return odd(n - 1)
def odd(n):
    return even(n - 1)
def outer():
    def inner(k):
        return inner(k - 1)
    return inner(3) + o.helper()
def loop(f):
    return [f for f in range(3)]
class Walker:
    def walk(self, f):
        return [self.walk(g) for g in f]
"""
    other = "from .main import loop\ndef helper():\n    return loop(1)\n"
    graph = call_graph({"main": ast.parse(source), "other": ast.parse(other)})
    assert graph["main.outer"] == {"main.outer.inner", "other.helper"}
    assert graph["other.helper"] == {"main.loop"}
    assert on_cycles(graph) == {
        "main.fact",
        "main.even",
        "main.odd",
        "main.outer.inner",
        "main.Walker.walk",
    }


def test_only_the_parser_and_the_small_enumerators_recurse():
    assert on_cycles(call_graph(_trees())) == ALLOWED


def test_pickle_and_copy_of_a_deep_chain_give_the_same_node():
    """Formula.__reduce__ hands the standard library one flat list of
    nodes, so pickle and copy do not recurse per level either."""
    f = Atom("p")
    for _ in range(5_000):
        f = Bel(Not(f))
    assert pickle.loads(pickle.dumps(f)) is f
    assert copy.deepcopy(f) is f
    assert copy.copy(f) is f
