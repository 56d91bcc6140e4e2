"""Print three size figures of the library: AST nodes per module, the
function lines that the test suite never executes, and the imported names
that no code in their file reads.

    python tools/code_report.py

The AST count of a module is the number of nodes ast.walk yields on its
source; the total sums the modules of src/chandisc.

The line list runs each tests/test_*.py in its own pytest process under a
line tracer (sys.settrace, and threading.settrace for threads the tests
start), which records the lines executed in src/chandisc.  A line is listed
when it belongs to the compiled code of a function, lambda, comprehension or
class body and no test file executed it; module-level lines are excluded.
A single process for the whole session stopped tracing partway through, so
each file runs in its own, and the tracer is installed again before each
test.  Test failures do not stop the report; a process
that ends in another way than pass or fail is named on stderr.

The import list scans src/chandisc/*.py and tests/*.py with ast: a name
that an import binds is listed when no Name node of its file reads it.
__future__ imports and import lines marked "# noqa: F401" (re-exports) are
skipped.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "chandisc"


def ast_counts() -> dict[str, int]:
    return {p.stem: sum(1 for _ in ast.walk(ast.parse(p.read_text()))) for p in sorted(PACKAGE.glob("*.py"))}


def function_lines(path: Path) -> set[int]:
    """The lines of every code object compiled inside the module's own."""
    stack = list(compile(path.read_text(), str(path), "exec").co_consts)
    lines = set()
    while stack:
        c = stack.pop()
        if isinstance(c, types.CodeType):
            lines.update(line for _, _, line in c.co_lines() if line is not None)
            stack.extend(c.co_consts)
    return lines


def trace_test_file(test_file: str, out: str) -> None:
    """Run one test file under the line tracer; write the executed
    (file, line) pairs of the package to out as JSON."""
    sys.path.insert(0, str(SRC))
    prefix = str(PACKAGE) + os.sep
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    import pytest

    class Rearm:
        """Installs the tracer again before each test: a hypothesis test
        leaves another trace function, or none, behind it."""

        def pytest_runtest_setup(self, item):
            sys.settrace(on_call)

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main([test_file, "-q", "-p", "no:cacheprovider"], plugins=[Rearm()])
    finally:
        sys.settrace(None)
    Path(out).write_text(json.dumps(sorted(hits)))
    sys.exit(int(code))


def never_executed() -> dict[str, list[int]]:
    hits: set[tuple[str, int]] = set()
    with tempfile.TemporaryDirectory() as tmp:
        for i, test_file in enumerate(sorted((ROOT / "tests").glob("test_*.py"))):
            out = Path(tmp) / f"{i}.json"
            proc = subprocess.run(
                [sys.executable, __file__, "--trace-one", str(test_file), str(out)],
                cwd=ROOT,
                stdout=subprocess.DEVNULL,
            )
            if proc.returncode not in (0, 1) or not out.exists():
                print(f"{test_file.name}: pytest exited {proc.returncode}", file=sys.stderr)
                continue
            hits.update((f, line) for f, line in json.loads(out.read_text()))
    return {
        p.stem: sorted(function_lines(p) - {line for f, line in hits if f == str(p)})
        for p in sorted(PACKAGE.glob("*.py"))
    }


def unused_imports() -> dict[str, list[str]]:
    """For each scanned file, relative to the repo root, the imported names
    that its code never reads, sorted."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = [
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if "# noqa: F401" not in lines[alias.lineno - 1]
        ]
        unused = sorted(name for name in unused if name not in read)
        if unused:
            out[str(path.relative_to(ROOT))] = unused
    return out


def ranges(lines: list[int]) -> str:
    """1, 2, 3, 5 -> "1-3, 5"."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-one", nargs=2, metavar=("TEST_FILE", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.trace_one:
        trace_test_file(*args.trace_one)
    counts = ast_counts()
    print("AST nodes (ast.walk) per module of src/chandisc:")
    for name, n in counts.items():
        print(f"  {name:<12} {n:>7,}")
    print(f"  {'total':<12} {sum(counts.values()):>7,}")
    print("Function lines no test file executes:")
    for name, lines in never_executed().items():
        if lines:
            print(f"  {name}: {ranges(lines)}")
    print("Imported names no code in their file reads:")
    for name, unused in unused_imports().items():
        print(f"  {name}: {', '.join(unused)}")


if __name__ == "__main__":
    main()
