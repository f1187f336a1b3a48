"""Package structure: the modules of ``pfa`` import one another without a cycle,
and every name a module imports is used."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pfa"


def _import_targets(node) -> list:
    """Absolute dotted names an import statement loads."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    base = node.module or ""
    if node.level:  # the package is flat: a relative import names pfa itself
        base = f"pfa.{base}" if base else "pfa"
    if base == "pfa":  # from pfa import name: a submodule or a name of __init__
        return [f"pfa.{a.name}" for a in node.names]
    return [base]


def _imported_modules(path: Path, modules: set) -> set:
    """Modules of the package that one module imports, at any depth in its code."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        for target in _import_targets(node):
            parts = target.split(".")
            if parts[0] == "pfa":
                found.add(parts[1] if len(parts) > 1 and parts[1] in modules else "__init__")
    return found


def unused_imports(path: Path) -> list:
    """Names bound by a module's top-level imports that its code never reads.

    A name counts as read wherever it appears as an expression, attribute
    bases included. An import whose lines carry ``# noqa: F401`` is exempt.
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read:
                unused.append(name)
    return unused


def import_graph() -> dict:
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    return {m: _imported_modules(PACKAGE / f"{m}.py", modules) for m in modules}


def find_cycle(graph: dict):
    """One import cycle as a list of modules, or None."""
    state = {}  # module -> "open" while on the DFS stack, "done" after

    def visit(module, stack):
        state[module] = "open"
        for dep in sorted(graph[module]):
            if state.get(dep) == "open":
                return stack[stack.index(dep):] + [dep]
            if dep not in state:
                cycle = visit(dep, stack + [dep])
                if cycle:
                    return cycle
        state[module] = "done"
        return None

    for module in sorted(graph):
        if module not in state:
            cycle = visit(module, [module])
            if cycle:
                return cycle
    return None


def test_graph_sees_the_package():
    graph = import_graph()
    assert {"refine", "raster", "seeds"} <= graph["pipeline"]
    assert "pipeline" in graph["cli"] and "refine" in graph["__init__"]


def test_no_import_cycle():
    cycle = find_cycle(import_graph())
    assert cycle is None, " -> ".join(cycle)


def test_cycle_detector_finds_a_lazy_import_cycle():
    graph = {"flow": {"seeds"}, "pipeline": {"flow"}, "seeds": set()}
    assert find_cycle(graph) is None
    graph["flow"].add("pipeline")
    assert find_cycle(graph) == ["flow", "pipeline", "flow"]


def test_no_unused_imports():
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py" and (names := unused_imports(path))
    }
    assert not found, found


def test_unused_import_check_reads_the_module(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "import sys  # noqa: F401\n"
        "from json import (\n    dumps,\n    loads,\n)\n"
        "x = np.zeros(1)\n"
        "y = dumps(x)\n",
        encoding="utf-8",
    )
    assert unused_imports(path) == ["os", "loads"]
