"""Package structure: the modules of ``pfa`` import one another without a cycle,
every name a module or a test imports is used, ``pfa/__init__.py`` holds only
its docstring, and every function the package defines is read somewhere in
it, unless something outside the package pins it."""

import ast
import functools
import importlib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pfa"
TESTS = ROOT / "tests"
BENCH = ROOT / "bench"
ACCEPTANCE = TESTS / "test_acceptance.py"

# names that only an acceptance criterion calls -> the criterion's number
CRITERION_PINS = {
    "crops.align_intrinsics": 8,
    "crops.lift_to_image": 8,
    "crops.CropTransform.apply": 8,
    "crops.CropTransform.identity": 8,
    "geometry.RigidPose.identity": 6,
    "exemplars.mean_query_distance": 4,
    "exemplars.ExemplarSet.prefix": 4,
    "pnp.reprojection_jacobian": 7,
}

# names that only the benchmark or the packaging reads -> the file that reads them
OUTSIDE_READS = {
    "mesh.save_obj": "bench/workloads.py",  # writes the benchmark's mesh file
    "refine.PoseEstimate.inlier_count": "bench/layers.py",  # counts the consensus
    "cli.main_entry": "pyproject.toml",  # the pfa console script
}


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
    assert "pipeline" in graph["cli"] and {"pnp", "correspond"} <= graph["refine"]


def test_package_init_holds_only_its_docstring():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    extra = [type(node).__name__ for node in tree.body[1:]]
    assert ast.get_docstring(tree) and not extra, f"import from the modules, not pfa: {extra}"


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
        str(path.relative_to(ROOT)): names
        for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
        if (names := unused_imports(path))
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


def _reads(tree) -> set:
    """Names read under an AST node: ``name`` for a bare name, and both
    ``name`` and ``.name`` for an attribute, so that a method or property,
    whose key is ``.name``, is read only through attribute access."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read |= {node.attr, f".{node.attr}"}
    return read


def file_reads(path: Path) -> set:
    """Names a Python file reads; for any other file, its words."""
    text = path.read_text(encoding="utf-8")
    return _reads(ast.parse(text)) if path.suffix == ".py" else set(re.findall(r"\w+", text))


def definitions(path: Path) -> dict:
    """``module.function`` -> ``function`` and ``module.Class.method`` ->
    ``.method``, the keys ``_reads`` gives their reads, for the top-level
    functions of a module and the methods and properties of its top-level
    classes; dunder methods, which Python calls, are left out."""
    out = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        members = [(node, "")]
        if isinstance(node, ast.ClassDef):
            members = [(item, f"{node.name}.") for item in node.body]
        for item, owner in members:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                owner and item.name.startswith("__") and item.name.endswith("__")
            ):
                out[f"{path.stem}.{owner}{item.name}"] = f".{item.name}" if owner else item.name
    return out


def package_modules() -> list:
    return [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]


def package_definitions() -> dict:
    return {q: name for path in package_modules() for q, name in definitions(path).items()}


def package_reads() -> set:
    return set().union(*(file_reads(path) for path in package_modules()))


def criterion_reads() -> dict:
    """Acceptance criterion number -> the names its test reads."""
    tree = ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))
    return {
        int(node.name.split("_")[2]): _reads(node)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_criterion_")
    }


@functools.cache
def bench_patches() -> list:
    """Every ``Patch`` of the benchmark's tracer, from ``bench/layers.py`` itself."""
    sys.path.insert(0, str(BENCH))
    try:
        layers = importlib.import_module("layers")
    finally:
        sys.path.remove(str(BENCH))
    return layers.layer_patches() + layers.flow_timer_patches()


def unread_definitions() -> list:
    """Functions, methods and properties that no module of the package reads
    and that nothing outside it pins: a bench patch or an allow-list entry."""
    read = package_reads().union(*({p.attr, f".{p.attr}"} for p in bench_patches()))
    pinned = CRITERION_PINS.keys() | OUTSIDE_READS.keys()
    return sorted(
        q for q, name in package_definitions().items() if name not in read and q not in pinned
    )


def stale_pins() -> list:
    """Allow-list entries that name no definition, that the package reads
    itself, or that their criterion or outside reader no longer reads."""
    defined, read, criteria = package_definitions(), package_reads(), criterion_reads()
    readers = {q: criteria.get(number, set()) for q, number in CRITERION_PINS.items()}
    readers.update({q: file_reads(ROOT / where) for q, where in OUTSIDE_READS.items()})
    return sorted(
        q for q, names in readers.items()
        if q not in defined or defined[q] in read or defined[q] not in names
    )


def test_every_definition_is_read_or_pinned():
    unread = unread_definitions()
    assert not unread, f"nothing in src/pfa reads {unread}: delete them, or pin them here"


def test_allow_list_is_current():
    assert not stale_pins()


def test_stale_allow_list_entries_fail(monkeypatch, tmp_path):
    bare = tmp_path / "bare.py"
    bare.write_text("inlier_count = 3\n", encoding="utf-8")
    monkeypatch.setitem(CRITERION_PINS, "crops.CropTransform.gone", 8)  # no such method
    monkeypatch.setitem(CRITERION_PINS, "crops.compute_crop", 8)  # the package reads it
    monkeypatch.setitem(OUTSIDE_READS, "refine.PoseEstimate.inlier_count", str(bare))
    assert stale_pins() == [
        "crops.CropTransform.gone", "crops.compute_crop", "refine.PoseEstimate.inlier_count",
    ]


def test_definitions_cover_functions_methods_and_properties(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "def f():\n    def inner(): pass\n"
        "class C:\n    def __init__(self): pass\n    def m(self): pass\n"
        "    @property\n    def p(self): return 1\n"
        "x = C().m\np = 2\ny = p\n",  # a bare p is not the property
        encoding="utf-8",
    )
    assert definitions(path) == {"m.f": "f", "m.C.m": ".m", "m.C.p": ".p"}
    assert {"C", ".m", "p"} <= file_reads(path) and ".p" not in file_reads(path)


def test_bench_patch_table_names_real_attributes():
    patches = bench_patches()
    missing = [f"{patch.owner.__name__}.{patch.attr}" for patch in patches
               if patch.attr not in vars(patch.owner)]
    assert patches and not missing, f"bench/layers.py patches missing attributes {missing}"
