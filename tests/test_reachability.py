"""Every top-level definition in ``src/`` is reached by the package itself.

An AST scan collects each module-level function, class and constant of
``src/hurwitztau`` and each method of a module-level class.  Reached are the
definitions whose name the entry point ``cli.main`` or module-level code
reads (a ``Name`` that is loaded, or an attribute access; not an import or an
``__all__`` entry), then those whose name a reached definition reads outside
itself, and so on.  A definition left over is one that only ``tests/`` or
``perfbench/`` use, or nothing: it belongs in ``tests/oracles.py``, or in
``ALLOWED`` with a reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hurwitztau"

# definition -> why it stays in src/ although the package does not use it
ALLOWED = {
    "isomon.parameter_derivatives": "perfbench/tracer.py wraps it by name",
    "isomon._bundle_arrays": "the helper of parameter_derivatives, which the tracer wraps",
    "isomon.FD_STEP": "the step of parameter_derivatives, which the tracer wraps",
    "poly.CPoly.eval_derivatives": "perfbench/tracer.py wraps it by name",
    "poly.resultant": "perfbench/tracer.py wraps it by name; exported library API",
    "samples.random_covering1": "documented library API: the genus-1 sampler",
}


def _definitions(tree: ast.Module, module: str) -> dict[str, ast.AST]:
    """Qualified name -> node of each top-level definition and each method of a top-level class."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[f"{module}.{node.name}"] = node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    out[f"{module}.{node.name}.{item.name}"] = item
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                out[f"{module}.{target.id}"] = node
    return out


def _read_names(nodes, skip: set[int]) -> set[str]:
    """Names loaded and attributes accessed in ``nodes``, outside the nodes with ids in ``skip``."""
    used = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if id(node) in skip or isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return used


def _unreached() -> set[str]:
    """The definitions the entry point and module-level code do not reach."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}
    defs = {name: node for module, tree in trees.items()
            for name, node in _definitions(tree, module).items()}
    owned = {id(node) for node in defs.values()}
    # a class reads what its body reads outside its methods, which are definitions of their own
    reads = {name: _read_names([node], owned - {id(node)}) for name, node in defs.items()}
    module_level = [stmt for tree in trees.values() for stmt in tree.body]
    frontier = {"main"} | _read_names(module_level, owned)
    seen: set[str] = set()
    while frontier - seen:
        seen |= frontier
        frontier = set().union(*(reads[name] for name in defs
                                 if name.rsplit(".", 1)[1] in seen)) | seen
    return {name for name in defs if name.rsplit(".", 1)[1] not in seen}


def _users(name: str) -> str:
    """The test and benchmark files that read the definition's name."""
    short = name.rsplit(".", 1)[1]
    files = [path.relative_to(ROOT).as_posix()
             for folder in ("tests", "perfbench") for path in sorted((ROOT / folder).glob("*.py"))
             if short in _read_names([ast.parse(path.read_text())], set())
             or f'"{short}"' in path.read_text()]
    return ", ".join(files) or "nothing"


def test_src_holds_only_what_the_package_reaches():
    stray = {name: _users(name) for name in sorted(_unreached() - set(ALLOWED))}
    assert stray == {}, f"read only by (or by nothing but): {stray}"


def test_every_allowed_name_is_still_unreached():
    assert sorted(set(ALLOWED) - _unreached()) == []
