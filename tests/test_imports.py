"""Package structure: the modules of ``pfa`` import one another without a cycle."""

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
