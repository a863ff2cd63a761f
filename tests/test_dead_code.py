"""Every module-level function, class and method of the package is used,
by the package itself unless it is allowed below, every defaulted
parameter is set by some call, and no module uses the private names of
another.

A name counts as used when it appears, as a whole word, somewhere in the
package or the tests other than its own definition and the package's
re-export list in ``__init__.py``; it counts as used by the package when
it so appears in the package.  A method must also be read as an
attribute (``obj.name``) by some module of the package, since a bare
word such as ``graph`` or ``coeff`` occurs everywhere, and a method that
only the tests read is test code.  A
defaulted parameter counts as set when some call in the package of a
function or method of that name passes it, by keyword or by position, so
no parameter exists only for the tests; the parameters of ``__init__``
are checked against the calls of the class.  Dunder methods are called
by the interpreter, so they are not checked.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ffsolve"

# package definitions that no code of the package names, and why they stay
TEST_ONLY_ALLOWED = {
    "h5_model": "documented model: the five-term three-qubit example",
    "h6_model": "documented model, and the README library sketch builds it",
    "back_to_back_model": "documented model: the non-example with claws and even holes",
}

# defaulted parameters that only a caller outside the package sets, and who
ENTRY_POINT_PARAMETERS = {("main", "argv"): "the console script calls main() with none"}


def _definitions(path):
    """(name, line) of module-level functions and classes and of their methods."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            defs += [(item.name, item.lineno) for item in node.body
                     if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and not (item.name.startswith("__") and item.name.endswith("__"))]
    return defs


def test_no_unused_definitions():
    sources = [p for d in ("src", "tests") for p in sorted((ROOT / d).rglob("*.py"))
               if p != PACKAGE / "__init__.py"]
    texts = [p.read_text() for p in sources]
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, line in _definitions(path):
            word = re.compile(rf"\b{re.escape(name)}\b")
            # the definition itself is one occurrence
            if sum(len(word.findall(text)) for text in texts) <= 1:
                unused.append(f"{path.name}:{line} {name}")
    assert not unused, "defined but never used: " + ", ".join(unused)


def test_no_definition_only_the_tests_name():
    """Code that only the tests call belongs in the tests: a paper lemma
    that no command checks moves there, and a wrapper gives way to what
    it wraps."""
    texts = [p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p != PACKAGE / "__init__.py"]
    defined, test_only, stale = set(), [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, line in _definitions(path):
            defined.add(name)
            word = re.compile(rf"\b{re.escape(name)}\b")
            only_tests = sum(len(word.findall(t)) for t in texts) <= 1
            if name not in TEST_ONLY_ALLOWED and only_tests:
                test_only.append(f"{path.name}:{line} {name}")
            if name in TEST_ONLY_ALLOWED and not only_tests:
                stale.append(f"{path.name}:{line} {name}")
    assert not test_only, "named only in the tests: " + ", ".join(test_only)
    assert not stale, "allowed but named in the package: " + ", ".join(stale)
    assert set(TEST_ONLY_ALLOWED) <= defined, "allowed but not defined"


def _functions(tree):
    """(class name or None, node) of the module-level functions and of the
    methods of module-level classes."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append((None, node))
        if isinstance(node, ast.ClassDef):
            out += [(node.name, item) for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return out


def _trees(paths):
    return [(p, ast.parse(p.read_text(), filename=str(p))) for p in paths]


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_method_is_read_as_an_attribute():
    trees = _trees(sorted(PACKAGE.glob("*.py")))
    read = {node.attr for _, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unused = [f"{path.name}:{fn.lineno} {owner}.{fn.name}"
              for path, tree in trees
              for owner, fn in _functions(tree)
              if owner and not _is_dunder(fn.name) and fn.name not in read]
    assert not unused, "methods the package never reads as an attribute: " + ", ".join(unused)


def _calls():
    """Called name -> [(positional argument count, keyword names)] over the
    calls in the package; a starred argument passes every position, and
    ``**`` (keyword None) every keyword."""
    calls = {}
    for _, tree in _trees(sorted(PACKAGE.glob("*.py"))):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                count = float("inf") if starred else len(node.args)
                calls.setdefault(name, []).append((count, {k.arg for k in node.keywords}))
    return calls


def _defaulted(fn, is_method):
    """(index among the positional arguments of a call, or None for a
    keyword-only parameter, name) of every parameter with a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in fn.decorator_list)
    bound = 1 if is_method and not static else 0  # self or cls
    first = len(positional) - len(args.defaults)
    out = [(i - bound, positional[i].arg) for i in range(first, len(positional))]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def test_every_defaulted_parameter_is_set():
    calls = _calls()
    unset = []
    for path, tree in _trees(sorted(PACKAGE.glob("*.py"))):
        for owner, fn in _functions(tree):
            if _is_dunder(fn.name) and fn.name != "__init__":
                continue
            sites = calls.get(owner if fn.name == "__init__" else fn.name, [])
            for index, name in _defaulted(fn, owner is not None):
                if owner is None and (fn.name, name) in ENTRY_POINT_PARAMETERS:
                    continue
                if not any(name in keywords or None in keywords
                           or index is not None and count > index
                           for count, keywords in sites):
                    where = f"{owner}.{fn.name}" if owner else fn.name
                    unset.append(f"{path.name}:{fn.lineno} {where}({name})")
    assert not unset, "defaulted parameters no call sets: " + ", ".join(unset)


def test_no_private_name_crosses_modules():
    """No module of the package imports a ``_private`` name of another one,
    or reads one as an attribute of an imported module, so private helpers
    such as the Pauli phase rule stay behind their module's functions."""
    crossing = []
    for path, tree in _trees(sorted(PACKAGE.glob("*.py"))):
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "ffsolve"
                                                     or node.module.startswith("ffsolve.")):
                for alias in node.names:
                    if alias.name.startswith("_") and not _is_dunder(alias.name):
                        crossing.append(f"{path.name}:{node.lineno} {alias.name}")
                    if not node.module or node.module == "ffsolve":
                        modules.add(alias.asname or alias.name)  # a module of the package
        crossing += [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id in modules and node.attr.startswith("_")
                     and not _is_dunder(node.attr)]
    assert not crossing, "private names used across modules: " + ", ".join(crossing)
