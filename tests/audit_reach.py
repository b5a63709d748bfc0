"""Reachability audit of src/polyorbit: the functions no command runs.

Run by hand from the root of the checkout (tier-1 does not collect it):

    python tests/audit_reach.py

It records every call into src/polyorbit with sys.setprofile (and
threading.setprofile, for the worker threads of --jobs 2) while it runs

the runs of tests/snapshot_outputs.py at seeds 1 and 2: every job of the
three benchmark workloads, and its ten commands on every fixture under
tests/fixtures except santos.ext.

It then prints each function or method of src/polyorbit that was never
called, with its line count, by module.  A function nested in one never
called is not listed on its own.  "span" marks a name that a span of
polybench/spans.py traces, and "library" a name on the README's library
list.  "caller" marks a name that some function of src/polyorbit refers to
and whose every such caller was reached, is marked "span" or "library", or
is itself marked "caller": it runs, or stays, with its callers.  A caller
is found statically: a bare name resolves to its module's own function or
to the one it imports, and an attribute to every method of that name.  The
summary counts the names that carry no mark, which still await a decision:
the library list, or tests/shapes.py.
"""
from __future__ import annotations

import ast
import re
import sys
import threading
from pathlib import Path

from snapshot_outputs import ROOT, run_one, runs

PACKAGE = ROOT / "src" / "polyorbit"
SEEDS = (1, 2)


def functions(source: Path) -> list:
    """(qualified name, first line as the code object counts it, line count,
    qualified name of the enclosing function or None) of every function and
    method defined in source."""
    out = []

    def visit(node, prefix: str, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out.append((name, first, child.end_lineno - first + 1, enclosing))
                visit(child, name + ".", name)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", enclosing)
            else:
                visit(child, prefix, enclosing)

    visit(ast.parse(source.read_text()), "", None)
    return out


def references(source: Path, module: str, defs: set) -> dict:
    """(module, qualified name) of every function of src/polyorbit that a
    function of source refers to -> the qualified names of those referring
    functions (None for module level).  A bare name resolves to the
    module's own top-level function or to the one it imports from the
    package; an attribute resolves to every method of that name."""
    tree = ast.parse(source.read_text())
    imported = {a.asname or a.name: (node.module, a.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1 for a in node.names}
    methods: dict = {}
    for mod, name in defs:
        if "." in name:
            methods.setdefault(name.rsplit(".", 1)[1], set()).add((mod, name))
    out: dict = {}

    def visit(node, prefix: str, current):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, prefix + child.name + ".", prefix + child.name)
                continue
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", current)
                continue
            targets = set()
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                if (module, child.id) in defs:
                    targets.add((module, child.id))
                elif imported.get(child.id) in defs:
                    targets.add(imported[child.id])
            elif isinstance(child, ast.Attribute):
                targets = methods.get(child.attr, set())
            for target in targets:
                out.setdefault(target, set()).add(current)
            visit(child, prefix, current)

    visit(tree, "", None)
    return out


def span_targets() -> set:
    """(module, qualified name) of every target of polybench/spans.py."""
    from polybench import spans
    return {target for targets, _ in spans.ENTRY_POINTS.values() for target in targets}


def library_names() -> set:
    """(module, qualified name) of each entry of the README's library list:
    the first `module.name` of every bullet under its "## Library" heading."""
    text = (ROOT / "README.md").read_text()
    found = re.search(r"^## Library\n(.*?)(?=^## )", text, re.M | re.S)
    names = set()
    for line in (found.group(1) if found else "").splitlines():
        entry = re.match(r"- `(\w+)\.([\w.]+)`", line)
        if entry:
            names.add(entry.groups())
    return names


def main() -> int:
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        import polyorbit.cli  # noqa: F401  (calls made on import count)
        records = [run_one(argv, dot, workdir) for _, argv, dot, workdir in runs(SEEDS)]
    finally:
        sys.setprofile(None)
        threading.setprofile(None)

    reached = {(Path(code.co_filename).resolve(), code.co_firstlineno) for code in called}
    spans, library = span_targets(), library_names()
    sources = sorted(PACKAGE.glob("*.py"))
    found = {source.stem: functions(source) for source in sources}
    defs = {(module, name) for module, fns in found.items() for name, *_ in fns}
    callers: dict = {}
    for source in sources:
        for target, refs in references(source, source.stem, defs).items():
            callers.setdefault(target, set()).update((source.stem, ref) for ref in refs)
    # a module-level reference runs on import
    kept = {(source.stem, name) for source in sources for name, first, *_ in found[source.stem]
            if (source, first) in reached} | {(m, None) for m in found}
    kept |= spans | library
    covered: set = set()
    grew = True
    while grew:
        grew = False
        for key in defs - kept - covered:
            if callers.get(key) and callers[key] <= kept | covered:
                covered.add(key)
                grew = True
    total = count = waiting = waiting_lines = 0
    for source in sources:
        module = source.stem
        missed = [(name, lines, enclosing) for name, first, lines, enclosing
                  in found[module] if (source, first) not in reached]
        outer = {name for name, _, _ in missed}
        rows = [(name, lines) for name, lines, enclosing in missed if enclosing not in outer]
        if not rows:
            continue
        print(f"{source.name}: {sum(lines for _, lines in rows)} lines")
        for name, lines in rows:
            marks = [mark for mark, names in (("span", spans), ("library", library),
                                              ("caller", covered)) if (module, name) in names]
            print(f"  {lines:4d}  {name:40s} {' '.join(marks)}".rstrip())
            total += lines
            count += 1
            waiting += not marks
            waiting_lines += 0 if marks else lines
    print(f"awaiting a decision: {waiting} functions, {waiting_lines} lines, with no span, "
          f"library or caller mark (unreached: {count} functions, {total} lines)")
    crashed = [r for r in records if r["code"] == "raised"]
    for r in crashed:
        print(f"raised: {r['argv']}: {r['stderr']}")
    return 1 if crashed else 0


if __name__ == "__main__":
    sys.exit(main())
