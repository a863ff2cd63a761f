"""Every module-level function, class and method of the package is used.

A name counts as used when it appears, as a whole word, somewhere in the
package or the tests other than its own definition and the package's
re-export list in ``__init__.py``.  Dunder methods are called by the
interpreter, so they are not checked.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ffsolve"


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
