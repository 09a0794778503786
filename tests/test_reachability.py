"""Static reachability of the package: no public name or method that
nothing uses, no unused import, no parameter that its function never reads,
no default that no caller overrides.

A public top-level name of a module under `src/cubalex`, and a public
method of a public class, must be used outside its own definition:
elsewhere in its module, by another module of the package, by the benchmark
(`perfbench/`), or by the acceptance or CLI tests.  A package `__init__`
that re-exports a name does not use it; a use through the package, as
`nk.X`, does.  A name that only unit tests reach is code that no criterion,
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
    # the coordinate formula that the unit tests check PSI against
    ("necklace.transforms", "psi"),
    # one collapse on its own, which the unit tests compare with a rebuild;
    # the driver collapses its own state in place (`_collapse`)
    ("alexander", "collapse_at"),
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


def is_init(name):
    return name == "__init__" or name.endswith(".__init__")


def public_methods(mod):
    """(class, method) of each public method of a public class of a module;
    a property is a method too."""
    return [(cls, meth) for cls in mod.body
            if isinstance(cls, ast.ClassDef) and PUBLIC.match(cls.name)
            for meth in cls.body
            if isinstance(meth, ast.FunctionDef) and PUBLIC.match(meth.name)]


def test_every_public_name_is_reached():
    """Public names, and public methods as `Class.method`."""
    outside = set().union(*(used(tree(p)) for p in USERS))
    unreached = set()
    for name, mod in MODULES.items():
        reached = outside.union(*(used(m) for n, m in MODULES.items()
                                  if n != name and not is_init(n)))
        unreached |= {(name, d) for d in defined(mod)
                      if d not in reached | uses_outside(mod, d)}
        for cls, meth in public_methods(mod):
            rest = [n for n in mod.body if n is not cls] + [
                n for n in cls.body if n is not meth]
            if meth.name not in reached.union(*map(used, rest)):
                unreached.add((name, f"{cls.name}.{meth.name}"))
    assert unreached == ALLOWED


def test_every_parameter_is_read():
    """Each parameter of a function or method under `src/`, `self`
    included, is read in its body, nested definitions counted; lambdas are
    exempt."""
    unread = []
    for name, mod in MODULES.items():
        for node in ast.walk(mod):
            if not isinstance(node, ast.FunctionDef):
                continue
            a = node.args
            params = [p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg] if p is not None]
            read = {n.id for s in node.body for n in ast.walk(s)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [(name, node.name, p) for p in params if p not in read]
    assert unread == []


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
        if is_init(name):
            continue  # a package's imports are its exports
        names = {n.id for n in ast.walk(mod) if isinstance(n, ast.Name)}
        for node in ast.walk(mod):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [(name, bound, line) for bound, line in imported(node)
                           if bound not in names]
    assert unused == []



# Defaulted parameters and fields that no caller sets, kept on purpose, with
# the reason; an entry that some caller sets fails too.
ALLOWED_DEFAULTS = {
    # perfbench reads these two defaults through `inspect` to count the
    # containment samples, so they go only with a change to the benchmark
    ("necklace.verify", "verify_containment", "n_phi"),
    ("necklace.verify", "verify_containment", "n_theta"),
}


def function_defaults(node, skip):
    """(position at a call, name) of each defaulted parameter, after `skip`
    leading parameters that a call does not pass (self); keyword-only
    parameters have no position."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(i - skip, a.arg) for i, a in enumerate(positional) if i >= first]
    return out + [(None, a.arg) for a, d in zip(args.kwonlyargs,
                                                args.kw_defaults)
                  if d is not None]


def settable_defaults():
    """(module, callee name, parameter, position, definition) of every
    defaulted parameter of a public function or of a public method or
    constructor of a public class, and of every defaulted init field of a
    public dataclass."""
    out = []
    for name, mod in MODULES.items():
        for node in mod.body:
            if isinstance(node, ast.FunctionDef) and PUBLIC.match(node.name):
                out += [(name, node.name, p, i, node)
                        for i, p in function_defaults(node, 0)]
            if not (isinstance(node, ast.ClassDef) and PUBLIC.match(node.name)):
                continue
            if any(ast.unparse(d).startswith("dataclass")
                   for d in node.decorator_list):
                fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                          and "init=False" not in ast.unparse(s)]
                out += [(name, node.name, s.target.id, i, node)
                        for i, s in enumerate(fields) if s.value is not None]
            for s in node.body:
                if isinstance(s, ast.FunctionDef) and (
                        s.name == "__init__" or PUBLIC.match(s.name)):
                    callee = node.name if s.name == "__init__" else s.name
                    out += [(name, callee, p, i, s)
                            for i, p in function_defaults(s, 1)]
    return out


def calls(mod):
    """(callee name, call, ids of the enclosing definitions) of each call."""
    out = []

    def walk(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {id(node)}
        if isinstance(node, ast.Call):
            f = node.func
            out.append((getattr(f, "id", None) or getattr(f, "attr", None),
                        node, inside))
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    walk(mod, frozenset())
    return out


def sets(callee, call, owner, param, position):
    """Does the call set the parameter: a call of its owner that passes it
    by keyword, by position or through * or **, or a `dataclasses.replace`
    that names it?"""
    if callee == "replace":
        return any(k.arg == param for k in call.keywords)
    return callee == owner and (
        any(k.arg in (param, None) for k in call.keywords)
        or any(isinstance(a, ast.Starred) for a in call.args)
        or (position is not None and len(call.args) > position))


def test_every_default_is_set_by_a_caller():
    """A defaulted parameter or field that no call in the package, the
    benchmark or the acceptance and CLI tests sets has one value in use: it
    is a constant, not an option.  Calls are matched by callee name, and a
    call inside the definition itself (a recursion) does not count."""
    every = [c for m in [*MODULES.values(), *map(tree, USERS)]
             for c in calls(m)]
    unset = {(mod, owner, param)
             for mod, owner, param, position, node in settable_defaults()
             if not any(sets(callee, call, owner, param, position)
                        for callee, call, inside in every
                        if id(node) not in inside)}
    assert unset == ALLOWED_DEFAULTS
