"""src/ keeps only what the system runs.

Every public top-level function and class of src/frullani, and every
public method or property of such a class, must be live: referred to from
a module's import-time code, from the function the console script runs,
or from a live definition, other than from inside its own body.  A name
that only a dead definition refers to is dead with it.  The one exception
is the list in README's "Python API" section: names kept on purpose with
no caller in the package.

Names are matched by identifier, a Name or an attribute anywhere in the
package, so two definitions that share an identifier live or die together.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "frullani"


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _refs(node: ast.AST) -> set[str]:
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
    return names


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(modules):
    """(import-time statements, {identifier: the nodes its definitions
    hold}, the public definitions as (module, name) pairs).  A class holds
    all but its public methods, which are definitions of their own."""
    statements, units, public = [], {}, []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                statements.append(node)
                continue
            held = [node]
            if isinstance(node, ast.ClassDef):
                held = [*node.bases, *node.keywords, *node.decorator_list]
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        units.setdefault(item.name, []).append(item)
                        public.append((module, f"{node.name}.{item.name}"))
                    else:
                        held.append(item)
            units.setdefault(node.name, []).extend(held)
            if _public(node.name):
                public.append((module, node.name))
    return statements, units, public


def _entry_point() -> str:
    """The function [project.scripts] runs: frullani = "frullani.cli:<name>"."""
    text = (ROOT / "pyproject.toml").read_text()
    found = re.search(r'^frullani = "frullani\.cli:(\w+)"$', text, re.M)
    assert found, "pyproject.toml declares no frullani console script"
    return found.group(1)


def _readme_api() -> list[tuple[str, str]]:
    """The (module, name) pairs README's "Python API" section lists."""
    text = (ROOT / "README.md").read_text()
    section = re.search(r"^## Python API\n(.*?)(?=^## )", text, re.M | re.S)
    assert section, 'README has no "## Python API" section'
    return re.findall(r"^- `(\w+)\.(\w+)`", section.group(1), re.M)


def _live(statements, units, roots) -> set[str]:
    live: set[str] = set()
    todo = list(roots)
    for node in statements:
        todo.extend(_refs(node))
    while todo:
        name = todo.pop()
        if name in live:
            continue
        live.add(name)
        for node in units.get(name, ()):
            todo.extend(_refs(node) - {name})
    return live


def test_every_public_name_is_run_by_the_system():
    statements, units, public = _definitions(_modules())
    kept = {name for _, name in _readme_api()}
    live = _live(statements, units, {_entry_point(), *kept})
    dead = [f"{module}.{name}" for module, name in public if name.rpartition(".")[2] not in live]
    assert dead == [], (
        f"public names nothing in src/ runs: {dead}; delete them, or list "
        "them in README's Python API section if they are kept on purpose"
    )


def test_the_readme_list_names_public_definitions():
    _, _, public = _definitions(_modules())
    listed = _readme_api()
    assert listed, "README's Python API section lists no names"
    missing = [f"{module}.{name}" for module, name in listed if (module, name) not in public]
    assert missing == [], f"README's Python API section lists names src/ does not define: {missing}"
