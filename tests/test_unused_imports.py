"""Every name a module of the package, or the tests' ``theory`` helper,
imports must be used in that module; no module of the package but the CLI
names ``print``; and every top-level definition of the package, and every
method, property and dataclass field of its classes, must be read outside
the tests. A member counts as read only through an attribute
or a string passed to a call (as an attribute name is to ``getattr``), not
through a bare name that merely shares its spelling; ``self.x`` inside class
C, and ``C.x`` for a class C of the package, read only C's member.

No linter ships with the toolchain, so this walks each module's syntax tree:
a name bound by an import counts as used when it appears as a name anywhere
else in the module, string annotations included. ``__init__.py`` re-exports
names on purpose and is skipped.
"""

import ast
from pathlib import Path
from typing import Optional

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mccsma"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
THEORY = Path(__file__).resolve().parent / "theory.py"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of each import, ``from __future__`` aside."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                # a quoted annotation such as "Schedule"
                expr = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", MODULES + [THEORY], ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_only_the_cli_prints(path):
    """The library reports through return values, exceptions and logging;
    only the command line writes to the terminal."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "print"]
    assert not lines, f"{path.name}: print at lines {lines}"


# Top-level definitions that no runner reads yet, each kept on purpose.
UNREAD_ALLOWED = {
    # writes a scenario back out as YAML, the inverse of load_scenario_text
    "dump_scenario",
    # the constructor helper for networks with one graph on every channel
    "replicate_graph",
}
# Class members that no runner reads yet, each kept on purpose.
UNREAD_MEMBERS_ALLOWED = {
    # the constructor helpers for attempt rates given as ratios alpha and for
    # traffic given per class or as one value for every class
    "CsmaParams.from_alpha",
    "TrafficSpec.of",
    # the time of a run's truncation, for the run telemetry of ROADMAP item 7
    "Trajectory.abort_time",
    # the public view of the stationary weights, which the tests check
    # against independent references
    "PolicyEvaluator.log_weights",
}
READERS = sorted((PACKAGE.parent.parent / "perfbench").glob("*.py"))


def _definitions(tree: ast.Module):
    """(name, node) for each function, class and assigned name at the top
    level of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _members(tree: ast.Module):
    """(Class.name, name, node) for each method, property and dataclass
    field of a class at the top level of a module. Dunder methods are left
    out: the language calls them."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id
            else:
                continue
            yield f"{cls.name}.{name}", name, node


def _reads(tree: ast.Module, classes: set[str]
           ) -> list[tuple[str, int, bool, Optional[str]]]:
    """(name, line, bare, owner) of each read by name: a bare name or an
    attribute that is loaded, or a string passed to a call, such as an
    attribute name passed to ``getattr``; ``bare`` marks the bare names.
    ``owner`` is the class whose member an attribute read must be: C for
    ``C.x`` where C is one of ``classes``, and the enclosing class for
    ``self.x``; it is None for every other read. A keyword argument or a
    store is not a read."""
    out = []

    def visit(node: ast.AST, cls: Optional[str]) -> None:
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno, True, None))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = getattr(node.value, "id", None)
            owner = cls if owner == "self" else owner if owner in classes else None
            out.append((node.attr, node.lineno, False, owner))
        elif isinstance(node, ast.Call):
            out.extend((arg.value, arg.lineno, False, None) for arg in node.args
                       if isinstance(arg, ast.Constant) and isinstance(arg.value, str))
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(tree, None)
    return out


def test_every_definition_is_read_outside_the_tests():
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in MODULES + READERS}
    classes = {node.name for p in MODULES for node in trees[p].body
               if isinstance(node, ast.ClassDef)}
    reads = {p: _reads(tree, classes) for p, tree in trees.items()}
    # an allow-list entry must name something the package still defines
    stale = (UNREAD_ALLOWED - {name for p in MODULES for name, _ in _definitions(trees[p])}
             | UNREAD_MEMBERS_ALLOWED - {label for p in MODULES
                                         for label, _, _ in _members(trees[p])})
    assert not stale, f"allow-list entries that name no definition: {sorted(stale)}"
    unread = []
    for path in MODULES:
        if path.name == "oracles.py":      # the independent brute-force duplicate
            continue
        tree = trees[path]
        # a top-level definition is read by any read of its name that no
        # class owns; a member of class C through an attribute or a string,
        # never as a bare name (a local variable of the same name does not
        # read it), and only by the reads that C or no class owns
        checked = [(name, name, node, None) for name, node in _definitions(tree)
                   if name not in UNREAD_ALLOWED]
        checked += [(label, name, node, label.split(".")[0])
                    for label, name, node in _members(tree)
                    if label not in UNREAD_MEMBERS_ALLOWED]
        for label, name, node, cls in checked:
            own = range(node.lineno, node.end_lineno + 1)
            if not any(n == name and owner in (None, cls) and (cls is None or not bare)
                       and (p != path or line not in own)
                       for p, found in reads.items() for n, line, bare, owner in found):
                unread.append(f"{path.name}:{node.lineno} {label}")
    assert not unread, f"read only by the tests, or by nothing: {unread}"


def test_capacity_imports_only_schedule_and_topology():
    """The LP layer stays off the simulator, and through it off scipy."""
    tree = ast.parse((PACKAGE / "capacity.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:     # from .x import y
            imported |= ({node.module.split(".")[0]} if node.module
                         else {alias.name for alias in node.names})
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([node.module] if isinstance(node, ast.ImportFrom)
                     else [alias.name for alias in node.names])
            imported |= {n for n in names if n.split(".")[0] == "mccsma"}
    assert imported <= {"schedule", "topology"}, sorted(imported)
