"""Unreferenced-definition check: fail on library code that nothing names.

Flags every module-level function or class in ``src/trivec`` that no code
in ``src``, ``tests``, ``bench`` or ``tools`` names (as a name, an
attribute, an import or an identifier string such as a table entry), and
every method of such a class that no code reads as an attribute.  Dunder
methods are exempt: the language calls them.

    python3 tools/unreferenced.py

Prints one ``path:line: name`` per finding and exits 1 when there is any.
Standard library only.
"""

import ast
import os
import sys

SCANNED = ("src", "tests", "bench", "tools")


def _trees(root, dirs):
    for top in dirs:
        for base, _, files in os.walk(os.path.join(root, top)):
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(base, name)
                    with open(path) as fh:
                        yield path, ast.parse(fh.read(), path)


def references(root):
    """(every name the scanned code names, the attributes it reads)."""
    names, reads = set(), set()
    for _, tree in _trees(root, SCANNED):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    reads.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.isidentifier()):
                names.add(node.value)
    return names, reads


def unreferenced(root):
    """[(path, line, dotted name)] of the definitions nothing refers to."""
    names, reads = references(root)
    out = []
    for path, tree in _trees(root, ("src/trivec",)):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in names:
                out.append((path, node.lineno, node.name))
            if not isinstance(node, ast.ClassDef):
                continue
            for meth in node.body:
                if (isinstance(meth, ast.FunctionDef) and meth.name not in reads
                        and not (meth.name.startswith("__")
                                 and meth.name.endswith("__"))):
                    out.append((path, meth.lineno, f"{node.name}.{meth.name}"))
    return out


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    found = unreferenced(root)
    for path, line, name in found:
        print(f"{os.path.relpath(path, root)}:{line}: {name} is never referenced")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
