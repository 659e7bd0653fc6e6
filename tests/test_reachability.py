"""Every public top-level function and class of the package is reached by
something other than its own module's unit tests: the CLI, another package
module, the acceptance gates, the benchmark harness or another test module.
A name that only its own tests call is a candidate for deletion; the few
kept on purpose are listed in ALLOWED, each with its reason.

Every field of a dataclass or NamedTuple of the package is read, as an
attribute load, by some file (its own module and tests included).  A
field nothing reads restates what its maker was given and is a candidate
for deletion too; ALLOWED names such fields as `module.Class.field`.

The count is by name, so a local variable elsewhere that happens to share
a name counts as a use, and so does each part of a dotted string such as
the benchmark's "cycle_machine.program_word.calls"; any `.name` load counts
as reading every field called `name`: the scan errs toward calling a name
reached.

Every name README's module map puts in backticks exists, so the map
cannot name a deleted function.

The helpers that advance a family and read its drifts have one caller,
the pair engine of `dynamics_analysis`, so no probe grows its own loop.
"""

import ast
import builtins
import functools
import importlib
import inspect
import pathlib
import re

THIS = pathlib.Path(__file__).resolve()
ROOT = THIS.parents[1]
PACKAGE = ROOT / "src" / "expansive_lab"

ALLOWED = {
    "arrow_bracket.admissible": "the admissibility oracle the configuration tests check against",
    "cycle_machine.sim_params_to_json": "writes the parameter files the reader tests parse",
    "cycle_machine.token_for_t": "inverse of t_for_token; the clock and tampered-decode tests build tokens with it",
    "dynamics_analysis.direction_probe": "the paper's expansiveness probe along a direction",
    "shift_core.rules_equal": "the behavioural rule equality the composition and serialization tests check with",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def _identifiers(node) -> set:
    """Every name a piece of code uses: bare names, attributes, imports and
    the parts of dotted strings."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if _DOTTED.fullmatch(sub.value):
                names.update(sub.value.split("."))
    return names


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _attribute_loads(tree) -> set:
    """The attribute names a piece of code reads, as in `x.name`."""
    return {sub.attr for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}


def unread_fields(module, loads) -> list:
    """`Class.field` for each field of a dataclass or NamedTuple of
    `module` whose name `loads` lacks."""
    found = []
    for cls in _parse(module).body:
        if not isinstance(cls, ast.ClassDef) or not (
            "dataclass" in set().union(*map(_identifiers, cls.decorator_list))
            or "NamedTuple" in set().union(*map(_identifiers, cls.bases))
        ):
            continue
        found += [f"{cls.name}.{stmt.target.id}" for stmt in cls.body
                  if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                  and stmt.target.id not in loads]
    return found


def unreached(module, used_elsewhere) -> list:
    """Public top-level names of `module` that `used_elsewhere` lacks and
    that no code of `module` reaches: its top-level statements, or the body
    of one of its names that is itself reached."""
    tree = _parse(module)
    bodies = {node.name: _identifiers(node) for node in tree.body if isinstance(node, _DEFS)}
    top = set().union(*(_identifiers(n) for n in tree.body if not isinstance(n, _DEFS)))
    live = bodies.keys() & (used_elsewhere | top)
    while more := set().union(*(bodies[n] for n in live)) & bodies.keys() - live:
        live |= more
    return sorted(n for n in bodies.keys() - live if not n.startswith("_"))


def _unreached_in_package(allowed) -> list:
    """Dotted names of `unreached` and `unread_fields` over every package
    module, with the names in `allowed` taken as reached (this file's own
    list is no use)."""
    tests = ROOT / "tests"
    modules = sorted(PACKAGE.glob("*.py"))
    files = modules + sorted(tests.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    files.remove(THIS)
    trees = {path: _parse(path) for path in files}
    used = {path: _identifiers(tree) for path, tree in trees.items()}
    loads = set().union(*map(_attribute_loads, trees.values()))
    found = []
    for module in modules:
        own_tests = tests / f"test_{module.stem}.py"
        elsewhere = set().union(*(v for p, v in used.items() if p not in (module, own_tests)))
        kept = {n.partition(".")[2] for n in allowed if n.startswith(f"{module.stem}.")}
        found += [f"{module.stem}.{name}" for name in unreached(module, elsewhere | kept)]
        found += [f"{module.stem}.{name}" for name in unread_fields(module, loads)
                  if name not in kept]
    return found


def test_every_public_name_is_reached_beyond_its_own_tests():
    assert _unreached_in_package(ALLOWED) == []
    # an allowed name that gained a caller leaves the list
    assert sorted(ALLOWED.keys() - set(_unreached_in_package(()))) == []


def test_the_scan_follows_calls_inside_a_module(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "LIMIT = helper\n"
        "def helper(): return 1\n"
        "def used(): return _private()\n"
        "def _private(): return inner()\n"
        "def inner(): return 2\n"
        "def dead(): return dead_too()\n"
        "def dead_too(): return dead()\n"
        "class Unused: pass\n"
    )
    assert unreached(module, {"used"}) == ["Unused", "dead", "dead_too"]


def test_the_field_scan_reads_attribute_loads(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "from dataclasses import dataclass, field\n"
        "from typing import NamedTuple\n"
        "@dataclass(frozen=True)\n"
        "class Report:\n"
        "    kept: int\n"
        "    echoed: int\n"
        "    derived: int = field(init=False)\n"
        "class Pair(NamedTuple):\n"
        "    left: int\n"
        "    right: int\n"
        "class Plain:\n"
        "    note: int\n"
        "def use(r, p):\n"
        "    r.echoed = p.right\n"
        "    return r.kept, r.derived\n"
    )
    loads = _attribute_loads(_parse(module))
    assert loads == {"right", "kept", "derived"}
    assert unread_fields(module, loads) == ["Report.echoed", "Pair.left"]


# a backticked span that is a name: an identifier, maybe dotted
_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _module_map_rows() -> list:
    """(module, contents) for each row of README's module map."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^\| `(\w+)` \| (.*) \|$", text.split("## Module map", 1)[1], re.M)


def test_the_module_map_names_only_what_exists():
    """Each name of a row resolves as an attribute of the row's module, of
    another package module or the package, of a public package class, or
    of builtins (each further dotted part an attribute of the one before),
    or else as a def in tests/."""
    package = importlib.import_module("expansive_lab")
    modules = {path.stem: importlib.import_module(f"expansive_lab.{path.stem}")
               for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    classes = [obj for module in modules.values() for name, obj in vars(module).items()
               if inspect.isclass(obj) and obj.__module__ == module.__name__
               and not name.startswith("_")]
    test_defs = {node.name for path in THIS.parent.glob("*.py")
                 for node in ast.walk(_parse(path)) if isinstance(node, ast.FunctionDef)}

    def resolves(name, owners) -> bool:
        for owner in owners:
            try:
                functools.reduce(getattr, name.split("."), owner)
                return True
            except AttributeError:
                pass
        return name in test_defs

    rows = _module_map_rows()
    assert sorted(module for module, _ in rows) == sorted(modules)
    unresolved = [
        f"{module}: {name}"
        for module, contents in rows
        for name in dict.fromkeys(re.findall(r"`([^`]+)`", contents))
        if _NAME.fullmatch(name) and not resolves(
            name, [modules[module], *modules.values(), package, *classes, builtins])
    ]
    assert unresolved == []


def _own_calls(node) -> set:
    """The bare names a function's own body calls, its lambdas included,
    leaving out the bodies of the functions and classes defined inside it."""
    names = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _DEFS):
            continue
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
            names.add(child.func.id)
        names |= _own_calls(child)
    return names


def callers(paths, name) -> list:
    """`module.function` for each function of the files whose own body
    calls `name`."""
    return sorted(
        f"{path.stem}.{node.name}"
        for path in paths
        for node in ast.walk(_parse(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and name in _own_calls(node)
    )


def test_the_caller_scan_reads_each_function_body_once(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "def engine(): return helper()\n"
        "def outer():\n"
        "    def inner(): return helper()\n"
        "    return inner\n"
        "def other(): return engine() or (lambda: helper())\n"
    )
    assert callers([module], "helper") == ["probe.engine", "probe.inner", "probe.other"]


def test_one_engine_advances_a_family_and_reads_its_drifts():
    modules = sorted(PACKAGE.glob("*.py"))
    for name in ("_lockstep", "_common_drift"):
        assert callers(modules, name) == ["dynamics_analysis._pair_scan"], name
