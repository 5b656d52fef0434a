"""Every public name of hsob backs a command, a demo or the benchmark.

A name in ``hsob.__all__`` is reached when ``cli.py``, a ``bench/*.py`` file
or a ``demos/*.py`` script uses it, directly or through the functions,
classes and module constants of ``src/hsob`` that those use, followed
transitively.  Read from the source, without importing it: a use is a
bare-name load, a ``from ... import name``, or ``module.name`` where
``module`` is bound to an hsob module by an import.  So
``np.polynomial.legendre`` and ``report.h2_norm`` use nothing.  A public name
that only the tests reach belongs in ``tests/`` as an oracle, or nowhere.

The public methods of the public classes are held to a looser rule: some
module of ``src/hsob``, ``bench/*.py`` or ``demos/*.py`` must name the method
as an attribute (``x.method``).  Matching by name alone can only over-count
uses, so a method this flags has no caller outside the tests.
"""

import ast
from pathlib import Path

import hsob

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hsob"

#: the partition table of the higher chain rule: an input of the
#: composition-operator norm bracket's upper bound (ROADMAP direction 1), which
#: no command reports yet; the bracket's derivative suprema are classify's nbc
AWAITING_NORM_BRACKET = {"bell_partitions", "BellPartitionTable"}

PACKAGE = ""  # the key of hsob/__init__.py


class _Source:
    """The parsed modules of src/hsob: definitions and import bindings."""

    def __init__(self):
        self.trees = {(PACKAGE if p.stem == "__init__" else p.stem): ast.parse(p.read_text())
                      for p in SRC.glob("*.py")}
        self.defs = {key: _definitions(tree) for key, tree in self.trees.items()}
        # names that __init__ imports from a module: hsob.cayley is the
        # function, which shadows the module of that name
        self.package_names = {alias.asname or alias.name
                              for node in self.trees[PACKAGE].body
                              if isinstance(node, ast.ImportFrom) and node.module
                              for alias in node.names}
        self.bindings = {key: self.imports(tree) for key, tree in self.trees.items()}

    def imports(self, tree: ast.AST) -> dict:
        """Local name -> ("module", key) or ("name", (key, attr)) for every hsob
        import in ``tree``; relative imports occur only inside the package."""
        out = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                out.update({alias.asname or "hsob": ("module", PACKAGE)
                            for alias in node.names if alias.name == "hsob"})
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                source = node.module or PACKAGE
            elif node.module == "hsob" or node.module.startswith("hsob."):
                source = node.module.removeprefix("hsob").removeprefix(".")
            else:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if (source == PACKAGE and alias.name in self.trees
                        and alias.name not in self.package_names):
                    out[local] = ("module", alias.name)
                else:
                    out[local] = ("name", (source, alias.name))
        return out

    def resolve(self, key: str | None, name: str, bindings: dict):
        """What a name in module ``key`` (None outside the package) is bound
        to: ("name", (module, name)) for a definition, ("module", key), or None."""
        if key is not None and name in self.defs[key]:
            return ("name", (key, name))
        bound = bindings.get(name)
        if bound and bound[0] == "name":
            source, attr = bound[1]
            return self.resolve(source, attr, self.bindings[source])
        return bound

    def uses(self, node: ast.AST, key: str | None, bindings: dict) -> set:
        """The definitions that ``node`` uses."""
        targets = []
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                targets.append(self.resolve(key, sub.id, bindings))
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                owner = self.resolve(key, sub.value.id, bindings)
                if owner and owner[0] == "module":
                    targets.append(self.resolve(owner[1], sub.attr, self.bindings[owner[1]]))
        imported = self.imports(node)  # an imported name is used
        targets += [self.resolve(None, name, imported) for name in imported]
        return {target[1] for target in targets if target and target[0] == "name"}


def _definitions(tree: ast.Module) -> dict:
    """Top-level functions, classes and assigned names -> their nodes."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id != "__all__":
                    out[target.id] = node
    return out


def _reached(src: _Source) -> set:
    """Definitions reached from the CLI, the benchmark and the demos."""
    todo = set(src.uses(src.trees["cli"], "cli", src.bindings["cli"]))
    for path in [*ROOT.glob("bench/*.py"), *ROOT.glob("demos/*.py")]:
        tree = ast.parse(path.read_text())
        todo |= src.uses(tree, None, src.imports(tree))
    reached = set()
    while todo:
        key, name = todo.pop()
        if (key, name) in reached:
            continue
        reached.add((key, name))
        todo |= src.uses(src.defs[key][name], key, src.bindings[key])
    return reached


def _unreached() -> set:
    src = _Source()
    reached = _reached(src)
    return {name for name in hsob.__all__
            if src.resolve(PACKAGE, name, src.bindings[PACKAGE])[1] not in reached}


def test_every_public_name_is_reached():
    unreached = _unreached() - AWAITING_NORM_BRACKET
    assert not unreached, f"public names only the tests reach: {sorted(unreached)}"


def test_norm_bracket_names_still_await_a_caller():
    # once the norm bracket calls them, they leave AWAITING_NORM_BRACKET
    assert AWAITING_NORM_BRACKET <= _unreached()


def _public_methods() -> set:
    """(class, method) for each public method of a class in hsob.__all__."""
    src = _Source()
    out = set()
    for name in hsob.__all__:
        key, attr = src.resolve(PACKAGE, name, src.bindings[PACKAGE])[1]
        node = src.defs[key][attr]
        if isinstance(node, ast.ClassDef):
            out |= {(name, item.name) for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")}
    return out


def _attribute_names() -> set:
    """Every name that src/hsob, bench/*.py or demos/*.py takes as an attribute."""
    paths = [*SRC.glob("*.py"), *ROOT.glob("bench/*.py"), *ROOT.glob("demos/*.py")]
    return {node.attr for path in paths for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}


def test_every_public_method_is_named():
    named = _attribute_names()
    unnamed = sorted(f"{cls}.{method}" for cls, method in _public_methods() if method not in named)
    assert not unnamed, f"public methods only the tests name: {unnamed}"
