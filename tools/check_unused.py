#!/usr/bin/env python3
"""No library name or import is left without a use.

    python3 tools/check_unused.py

A public top-level name of src/tpc/*.py (__init__.py, which only
re-exports, left out), and a public method or annotated field of a public
class there, must be used by other code in src/tpc, by bench/ or by the
README's code (its fenced blocks and inline code spans, not its prose); a
name used only by tests is test code living in the library.
Docstrings do not count as a use, and neither does a keyword argument,
which writes a field but never reads it.  A method or field is used only
where it is read as an attribute, so a local variable of the same name
does not count.  A private top-level name there must be used by another
statement of src/tpc, and every name a module there imports must be used
by that module.

Prints one line per unused name and one per KEPT name that has a use
now, and exits 1 if an unused name is not in KEPT or a KEPT name has a
use, 0 otherwise: a stale exemption would let the name fall out of use
again unreported.  It only reads ASTs, so it runs in well under a second.
"""

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

KEPT = {
    "Region.raw": "the conditions before subsumption, which the acceptance report checks",
    "DecisionProcedure.traces": "the reduction traces that tests/fingerprint.txt pins",
}


def uses(node):
    docstrings = {id(n.value) for n in ast.walk(node) if isinstance(n, ast.Expr)}
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rpartition(".")[2])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in docstrings:
            out.update(re.findall(r"\w+", n.value))
    return out


def reads(node):
    """The attributes *node* reads: the only use of a method or field, so
    that a local variable of the same name does not count as one."""
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def readme_code(text):
    """The fenced blocks and inline code spans of the markdown *text*: a
    name the README shows as code is used there, one it only mentions in
    prose is not."""
    return re.findall(r"^```.*?^```|`[^`\n]+`", text, re.M | re.S)


def defines(node, members=False):
    """The names a statement defines: a def or a class, an assignment at top
    level, an annotated field in a class body."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or not members and isinstance(node, ast.ClassDef):
        return [node.name]
    if isinstance(node, ast.AnnAssign) or not members and isinstance(node, ast.Assign):
        targets = [node.target] if isinstance(node, ast.AnnAssign) else node.targets
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def unused_names():
    """What is reported, the file and why, for every name without a use."""
    src = sorted((ROOT / "src/tpc").glob("*.py"))
    readme = set(re.findall(r"\w+", " ".join(readme_code((ROOT / "README.md").read_text()))))
    # a use site is a top-level statement, or a statement of a class body or
    # the class's bases and decorators, so that a member is not its own use
    sites = []  # (file, top-level statement, statement, names it uses, attributes it reads)
    defs = []  # (file, what is reported, name, top-level statement, member statement or None)
    for path in src + sorted((ROOT / "bench").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                sites.append((path, node, node, uses(node), reads(node)))
                parts = []
            else:
                heads = node.bases + node.decorator_list
                sites.append((path, node, node, set().union(*map(uses, heads)), set().union(*map(reads, heads))))
                sites += [(path, node, part, uses(part), reads(part)) for part in node.body]
                parts = [] if node.name.startswith("_") else node.body
            if path in src:
                defs += [(path, name, name, node, None) for name in defines(node)]
                defs += [(path, f"{node.name}.{name}", name, node, part) for part in parts for name in defines(part, True)]
    unused = {}  # what is reported: (file, why)
    for path, what, name, node, member in defs:
        if name.startswith("__") or member and name.startswith("_"):
            continue
        if name.startswith("_"):
            if not any(name in used for p, top, stmt, used, _ in sites if p in src and top is not node):
                unused[what] = (path, "no use in src/tpc")
        elif name not in readme:
            if member:
                found = any(name in read for p, top, stmt, _, read in sites if stmt is not member)
            else:
                found = any(name in used for p, top, stmt, used, _ in sites if top is not node)
            if not found:
                unused[what] = (path, "no caller outside tests")
    for path in src:
        if path.name == "__init__.py":
            continue
        body = ast.parse(path.read_text()).body
        imports = [n for n in body if isinstance(n, (ast.Import, ast.ImportFrom)) and getattr(n, "module", None) != "__future__"]
        used = set().union(*(uses(n) for n in body if n not in imports))
        for n in imports:
            for alias in n.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used:
                    unused[f"import {name}"] = (path, "imported, never used")
    return unused


def main():
    unused = unused_names()
    for what, (path, why) in unused.items():
        print(f"{path.relative_to(ROOT)}: {what}:", f"kept, {KEPT[what]}" if what in KEPT else why)
    stale = sorted(KEPT.keys() - unused.keys())
    for what in stale:
        print(f"KEPT: {what}: has a use, so it needs no exemption")
    return 1 if unused.keys() - KEPT.keys() or stale else 0


if __name__ == "__main__":
    sys.exit(main())
