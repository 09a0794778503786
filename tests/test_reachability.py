"""Static reachability of the package: no public name that nothing uses, no
unused import.

A public top-level name of a module under `src/cubalex` must be used
outside its own definition: elsewhere in its module, by another module of
the package, by the benchmark (`perfbench/`), or by the acceptance or CLI
tests.  A name that only unit tests reach is code that no criterion,
command or benchmark operation needs.  Names are matched by identifier, so
a use is a name, an attribute or an imported name, not a mention in a
comment or a string."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cubalex"
USERS = [*sorted((ROOT / "perfbench").glob("*.py")),
         ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "test_cli.py"]

# Unreached on purpose, with the reason; an entry that is reached fails too.
ALLOWED = {
    # the round-trip oracle of molecule_from_json in the unit tests
    ("refinement", "molecule_to_json"),
}

PUBLIC = re.compile(r"^[A-Za-z]\w*$")


def module_name(path):
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


def tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def defined(mod):
    """Public names bound at the top level of a module."""
    out = set()
    for node in mod.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in out if PUBLIC.match(n)}


def used(mod):
    """Every identifier a module uses: names, attributes, imported names."""
    out = set()
    for node in ast.walk(mod):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
    return out


MODULES = {module_name(p): tree(p) for p in sorted(SRC.rglob("*.py"))}


def uses_outside(mod, name):
    """Identifiers a module uses outside the definition of `name`, so that a
    function calling itself is not reached by that call."""
    return set().union(*(used(node) for node in mod.body
                         if name not in defined(ast.Module([node], []))))


def test_every_public_name_is_reached():
    outside = set().union(*(used(tree(p)) for p in USERS))
    unreached = set()
    for name, mod in MODULES.items():
        others = set().union(*(used(m) for n, m in MODULES.items()
                               if n != name))
        unreached |= {(name, d) for d in defined(mod)
                      if d not in others | outside | uses_outside(mod, d)}
    assert unreached == ALLOWED


def imported(node):
    """(bound name, line) of each name an import statement binds."""
    for alias in node.names:
        bound = alias.asname or alias.name.split(".")[0]
        if bound != "*" and not (isinstance(node, ast.ImportFrom)
                                 and node.module == "__future__"):
            yield bound, node.lineno


def test_no_unused_imports():
    unused = []
    for name, mod in MODULES.items():
        if name == "__init__" or name.endswith(".__init__"):
            continue  # a package's imports are its exports
        names = {n.id for n in ast.walk(mod) if isinstance(n, ast.Name)}
        for node in ast.walk(mod):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [(name, bound, line) for bound, line in imported(node)
                           if bound not in names]
    assert unused == []
