"""Every private name in the package is used somewhere in the package, and
each shared concept has one home.

Scans ``src/coppit`` with ``ast``: each private (single leading underscore)
module-level function, class or assignment, and each private method, must
be loaded by name or as an attribute somewhere besides its definition, and
each attribute stored on ``self`` must be read somewhere in ``src``,
``tests`` or ``bench``.  A name nothing calls, or a field nothing reads,
should be deleted rather than kept.  ``io`` is the only module that
imports ``csv``, ``json`` or ``orjson`` and the only one that defines the
forecast descriptor functions; no class serializes itself, and no function
body imports a package module.  The cone parser and the quadrant table are
each defined once.  Kendall functions live in ``kendall``: it alone defines
a class with an ``eval`` method and calls ``searchsorted``.  No module
imports ``scipy.stats`` at import time: it is most of the package's import
cost, and only the on-access KS p-value needs it.  No module imports
``scipy.optimize`` at all: the tau solve is the package's own.  No draw
count defaults to None: every sampler takes its count and returns that many
draws, so it has no second, single-draw return type.  No library function
casts its own parameter with ``int()``: a count, dimension, index, seed or
key goes through ``samplers._check_int``, which rejects a float instead of
truncating it; ``cli`` is exempt, as its argparse converters parse text.
Likewise no ``raise`` outside ``samplers`` says a value "must lie in [0, 1]"
or "must be finite": probabilities, samples, parameters and outcomes go
through ``_check_unit``, ``_check_sample`` and ``_check_finite``; ``io``
is exempt, as its readers report line numbers.  The cli's commands return
their results: only ``cli._write`` and ``cli.main`` name an io writer.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "coppit"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _definitions(tree):
    """(module-level name or Class.method, bare name) for each private definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _private(node.name):
            yield node.name, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and _private(target.id):
                    yield target.id, target.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _private(item.name):
                    yield f"{node.name}.{item.name}", item.name


def _loads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def test_no_unreferenced_private_names():
    trees = _trees()
    used = {name for tree in trees.values() for name in _loads(tree)}
    unused = [f"{module}: {qual}" for module, tree in sorted(trees.items())
              for qual, name in _definitions(tree) if name not in used]
    assert trees and not unused, unused


def _self_stores(tree):
    """(line, name) of each attribute assigned on ``self``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            yield node.lineno, node.attr


def test_no_write_only_attributes():
    readers = [ast.parse(path.read_text(encoding="utf-8"))
               for folder in (SRC, ROOT / "tests", ROOT / "bench") for path in folder.glob("*.py")]
    # attribute reads only: a local variable named like a field reads nothing
    loaded = {node.attr for tree in readers for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{module}:{line}: self.{name}" for module, tree in sorted(_trees().items())
              for line, name in _self_stores(tree) if name not in loaded]
    assert readers and not unread, unread


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def _quadrant_tables(tree):
    """Constant literals that list all four quadrant names, as dict keys or elements."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Dict, ast.Tuple, ast.List, ast.Set)):
            try:
                value = ast.literal_eval(node)
            except ValueError:
                continue
            if {"sw", "se", "ne", "nw"} <= {x for x in value if isinstance(x, str)}:
                yield node


def _imports_package(node):
    """Whether an import node imports a module of this package."""
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "coppit"
    return isinstance(node, ast.Import) and any(a.name.split(".")[0] == "coppit" for a in node.names)


def test_one_home_per_concept():
    trees = _trees()
    for fmt in ("csv", "json", "orjson"):
        assert [m for m, tree in sorted(trees.items()) if fmt in set(_imports(tree))] == ["io.py"], fmt
    descriptors = [m for m, tree in trees.items() for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)
                   and node.name in ("forecast_from_dict", "forecast_to_dict")]
    assert sorted(descriptors) == ["io.py", "io.py"]
    serializers = [f"{m}: {node.name}.{item.name}" for m, tree in sorted(trees.items())
                   for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for item in node.body
                   if isinstance(item, ast.FunctionDef) and item.name in ("to_dict", "from_dict")]
    assert not serializers, serializers
    deferred = [f"{m}:{inner.lineno}" for m, tree in sorted(trees.items())
                for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                for inner in ast.walk(node) if _imports_package(inner)]
    assert not deferred, deferred
    parsers = [m for m, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "cone_signs"]
    assert parsers == ["forecasts.py"]
    tables = [m for m, tree in trees.items() for _ in _quadrant_tables(tree)]
    assert tables == ["forecasts.py"]
    evaluators = {m for m, tree in trees.items() for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) and any(
                      isinstance(item, ast.FunctionDef) and item.name == "eval" for item in node.body)}
    assert evaluators == {"kendall.py"}
    step_counts = {m for m, tree in trees.items() for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "searchsorted"}
    assert step_counts == {"kendall.py"}
    builders = {m for m, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None))
                in ("KendallFn", "_Empirical")}
    assert builders == {"kendall.py"}


def _import_time_nodes(tree):
    """Nodes that run when the module is imported: everything outside function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _imports_scipy(node, sub):
    """Whether an import node imports ``scipy.<sub>`` or something inside it."""
    full = f"scipy.{sub}"
    if isinstance(node, ast.Import):
        return any(a.name == full or a.name.startswith(full + ".") for a in node.names)
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        return (node.module == full or node.module.startswith(full + ".")
                or node.module == "scipy" and any(a.name == sub for a in node.names))
    return False


def test_scipy_stats_not_imported_at_module_level():
    trees = _trees()
    eager = [f"{m}:{node.lineno}" for m, tree in sorted(trees.items())
             for node in _import_time_nodes(tree) if _imports_scipy(node, "stats")]
    lazy = [m for m, tree in trees.items() for node in ast.walk(tree) if _imports_scipy(node, "stats")]
    assert trees and lazy and not eager, eager


def test_scipy_optimize_not_imported():
    trees = _trees()
    found = [f"{m}:{node.lineno}" for m, tree in sorted(trees.items())
             for node in ast.walk(tree) if _imports_scipy(node, "optimize")]
    assert trees and not found, found


def _none_counts(tree):
    """Name of each function with a parameter ``n`` or ``size`` that defaults to None."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaults = [*zip(positional[len(positional) - len(args.defaults):], args.defaults),
                        *zip(args.kwonlyargs, args.kw_defaults)]
            if any(arg.arg in ("n", "size") and isinstance(d, ast.Constant) and d.value is None
                   for arg, d in defaults):
                yield getattr(node, "name", "<lambda>")


def test_no_draw_count_defaults_to_none():
    trees = _trees()
    found = [f"{m}: {name}" for m, tree in sorted(trees.items()) for name in _none_counts(tree)]
    assert trees and not found, found


def _own_int_casts(tree):
    """``function: int(p)`` for each ``int`` call on a parameter p of the
    function it sits in, outside the one integer check."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name != "_check_int":
            args = node.args
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            for call in ast.walk(node):
                if (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "int"
                        and len(call.args) == 1 and getattr(call.args[0], "id", None) in params):
                    yield f"{node.name}: int({call.args[0].id})"


def test_no_int_cast_of_own_parameter():
    trees = _trees()
    found = [f"{m}: {cast}" for m, tree in sorted(trees.items()) if m != "cli.py"
             for cast in _own_int_casts(tree)]
    assert trees and not found, found


def _value_check_raises(tree):
    """Line of each ``raise`` whose message says a value must lie in [0, 1]
    or be finite."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            text = "".join(c.value for c in ast.walk(node)
                           if isinstance(c, ast.Constant) and isinstance(c.value, str))
            if "must lie in [0, 1]" in text or "must be finite" in text:
                yield node.lineno


def test_one_check_per_value_kind():
    trees = _trees()
    found = [f"{m}:{line}" for m, tree in sorted(trees.items()) if m not in ("samplers.py", "io.py")
             for line in _value_check_raises(tree)]
    assert trees and not found, found


def test_one_writer():
    """Commands return their results and write nothing: ``_write`` writes
    them and ``main`` the manifest, and only render writes its own SVG."""
    tree = _trees()["cli.py"]
    writers = {"write_records", "write_ranks", "write_histogram", "write_curve",
               "write_manifest", "render_svg"}
    found = {}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            names = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)} & writers
            if names:
                found[fn.name] = names
    assert found == {"_write": writers - {"write_manifest"}, "main": {"write_manifest"},
                     "_cmd_render": {"render_svg"}}
    commands = [fn for fn in tree.body
                if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_cmd_")]
    assert len(commands) == 7
    assert not [fn.name for fn in commands if "argv" in {a.arg for a in fn.args.args}]
