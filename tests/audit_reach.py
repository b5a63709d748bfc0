"""Reachability audit of src/polyorbit: the functions no command runs.

Run by hand from the root of the checkout (tier-1 does not collect it):

    python tests/audit_reach.py

It records every call into src/polyorbit with sys.setprofile (and
threading.setprofile, for the worker threads of --jobs 2) while it runs

- every job of the three benchmark workloads at seeds 1 and 2, built by
  polybench.workloads at BENCHMARK.json's 10 run seconds into a temporary
  directory, and
- nine commands on every fixture under tests/fixtures except santos.ext:
  automorphisms; convert plain, with --adjacencies and with
  --idm-adm-level 1 1; count, and count --symmetric; ehrhart; volume; ilp.

It then prints each function or method of src/polyorbit that was never
called, with its line count, by module.  A function nested in one never
called is not listed on its own.  "span" marks a name that a span of
polybench/spans.py traces, and "library" a name on the README's library
list; the summary counts the lines named by neither.
"""
from __future__ import annotations

import ast
import contextlib
import io
import re
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polyorbit"
COMMANDS = (["automorphisms"], ["convert"], ["convert", "--adjacencies"],
            ["convert", "--idm-adm-level", "1", "1"], ["count"], ["count", "--symmetric"],
            ["ehrhart"], ["volume"], ["ilp"])
SKIPPED_FIXTURES = {"santos.ext"}
SEEDS = (1, 2)
SECONDS = 10.0


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


def run(argvs: list) -> list:
    """Run each argv through cli.main, output discarded; the argvs that
    raised."""
    from polyorbit import cli
    crashed = []
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.main(list(argv))
            except SystemExit:
                pass
            except Exception as exc:
                crashed.append(f"{' '.join(argv)}: {type(exc).__name__}: {exc}")
    return crashed


def main() -> int:
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from polybench import workloads

    fixtures = sorted(p for p in (ROOT / "tests" / "fixtures").iterdir()
                      if p.name not in SKIPPED_FIXTURES)
    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        import polyorbit.cli  # noqa: F401  (calls made on import count)
        crashed = []
        with tempfile.TemporaryDirectory() as workdir:
            for name in workloads.SETTINGS:
                for seed in SEEDS:
                    where = Path(workdir, f"{name}-{seed}")
                    where.mkdir()
                    jobs = workloads.build(name, seed, SECONDS, str(where))
                    crashed += run([job.argv for job in jobs])
        crashed += run([[cmd[0], str(path)] + cmd[1:] for path in fixtures for cmd in COMMANDS])
    finally:
        sys.setprofile(None)
        threading.setprofile(None)

    reached = {(Path(code.co_filename).resolve(), code.co_firstlineno) for code in called}
    spans, library = span_targets(), library_names()
    total = unmarked = unnamed = count = 0
    for source in sorted(PACKAGE.glob("*.py")):
        module = source.stem
        missed = [(name, lines, enclosing) for name, first, lines, enclosing
                  in functions(source) if (source, first) not in reached]
        outer = {name for name, _, _ in missed}
        rows = [(name, lines) for name, lines, enclosing in missed if enclosing not in outer]
        if not rows:
            continue
        print(f"{source.name}: {sum(lines for _, lines in rows)} lines")
        for name, lines in rows:
            marks = [mark for mark, names in (("span", spans), ("library", library))
                     if (module, name) in names]
            print(f"  {lines:4d}  {name:40s} {' '.join(marks)}".rstrip())
            total += lines
            count += 1
            unnamed += 0 if "span" in marks else lines
            unmarked += 0 if marks else lines
    print(f"unreached: {count} functions, {total} lines; {unnamed} lines named by no span, "
          f"{unmarked} of them not on the library list")
    for line in crashed:
        print(f"raised: {line}")
    return 1 if crashed else 0


if __name__ == "__main__":
    sys.exit(main())
