"""The package's modules form one layered stack: imports only at module level, no cycles.

Lazy imports of third-party modules (``scipy``) inside functions stay
allowed; they keep start-up cheap.  A lazy import of a package module would
hide a cycle, so it is rejected.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ssdp"
CONFIGS = PACKAGE.parents[1] / "configs"
MODULES = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}


def package_targets(node):
    """Package modules that an import statement names (empty for third-party imports)."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            if node.module is None or node.module.split(".")[0] != "ssdp":
                return set()
            parts = node.module.split(".")[1:]
        else:
            parts = node.module.split(".") if node.module else []
        if parts:
            return {parts[0]}
        return {a.name if a.name in MODULES else "__init__" for a in node.names}
    if isinstance(node, ast.Import):
        return {
            (a.name.split(".") + ["__init__"])[1]
            for a in node.names
            if a.name.split(".")[0] == "ssdp"
        }
    return set()


def import_graph():
    return {
        name: set().union(*(package_targets(node) for node in tree.body)) - {name}
        for name, tree in MODULES.items()
    }


def top_level_names(tree):
    """Names a module binds at top level: defs, classes, assignments and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_package_modules_found():
    assert {"model", "dp", "policy", "average", "cli"} <= set(MODULES)


def test_no_package_import_below_module_level():
    lazy = []
    for name, tree in MODULES.items():
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top:
                if package_targets(node):
                    lazy.append(f"{name}.py:{node.lineno}")
    assert not lazy, f"package imports inside a function or block: {lazy}"


def test_module_import_graph_is_acyclic():
    graph = import_graph()
    state = {}  # name -> "open" while on the DFS stack, "done" after

    def visit(name, path):
        state[name] = "open"
        for dep in sorted(graph.get(name, ())):
            if state.get(dep) == "open":
                cycle = path[path.index(dep):] + [dep]
                raise AssertionError("import cycle: " + " -> ".join(cycle))
            if dep not in state:
                visit(dep, path + [dep])
        state[name] = "done"

    for name in sorted(graph):
        if name not in state:
            visit(name, [name])


def test_threshold_layers_in_order():
    # model -> dp -> policy -> average -> cli, each importing the layers below
    graph = import_graph()
    assert "model" in graph["dp"]
    assert "dp" in graph["policy"]
    assert {"dp", "policy"} <= graph["average"]
    assert {"policy", "average"} <= graph["cli"]


def test_loading_shipped_configs_imports_no_scipy_stats_or_special():
    # scipy.stats costs ~1.2 s of a fresh process; the demand atoms are closed-form,
    # and scipy.special is needed only for gamma demand, which no shipped config uses
    code = (
        "import sys, ssdp.cli\n"
        "from ssdp.config import load_model\n"
        "for path in sys.argv[1:]:\n"
        "    load_model(path)\n"
        "print(sorted(m for m in ('scipy.stats', 'scipy.special') if m in sys.modules))\n"
    )
    configs = sorted(str(p) for p in CONFIGS.glob("*.json"))
    assert len(configs) >= 3
    r = subprocess.run(
        [sys.executable, "-c", code, *configs], capture_output=True, text=True, check=True
    )
    assert r.stdout.strip() == "[]"


def test_sweep_imports_no_sparse_linalg(tmp_path):
    # the exact w(s,S) comes from the cycle tables, so no sparse solver is loaded
    code = (
        "import sys, ssdp.cli\n"
        "assert ssdp.cli.main(['sweep', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "print('scipy.sparse.linalg' in sys.modules)\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", code, str(CONFIGS / "exponential_demand.json"), str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert r.stdout.splitlines()[-1] == "False"


def test_every_name_in_all_resolves():
    # a name deleted from a module but left in its __all__ breaks `from ssdp.x import *`
    for name in sorted(MODULES):
        module = importlib.import_module("ssdp" if name == "__init__" else f"ssdp.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ names undefined {missing}"


def test_package_init_imports_only_defined_names():
    # read from the source, so the offending name is reported even when `import ssdp` fails
    missing = [
        f"{node.module}.{a.name}"
        for node in MODULES["__init__"].body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for a in node.names
        if a.name not in top_level_names(MODULES[node.module])
    ]
    assert not missing, f"ssdp/__init__.py imports undefined names {missing}"
