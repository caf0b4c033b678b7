"""List the statements of cpflow that none of its commands executes.

    python3 tools/reach.py

Installs a line tracer (sys.settrace), imports cpflow from this
checkout's ``src``, runs each command of ``cli.COMMANDS`` at its default
config through ``cli.main`` (seed 2024, each in its own temporary output
directory) and restores the previous tracer.  Prints, per module, the
statements no run executed, by the function or class that holds them,
and their total; exits 1 if a command exited nonzero.  A reader that
closes the pipe early (``| head``) ends the listing quietly.  A
statement is an ``ast`` statement but a def, class, import or
docstring; it is executed when a line of its own (not of a statement
nested in it) ran.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "cpflow"
SEED = 2024
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def trace_commands() -> tuple[dict[str, set[int]], dict[str, int]]:
    """The lines run per cpflow file, and each command's exit code."""
    executed = defaultdict(set)
    prefix = str(PACKAGE) + os.sep

    def line(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(prefix) else None

    codes = {}
    sys.path.insert(0, str(SRC))
    previous = sys.gettrace()
    sys.settrace(call)
    try:
        from cpflow import cli
        for command in cli.COMMANDS:
            with tempfile.TemporaryDirectory() as out, \
                    contextlib.redirect_stdout(io.StringIO()):
                codes[command] = cli.main(
                    [command, "--seed", str(SEED), "--out", out])
    finally:
        sys.settrace(previous)
    return executed, codes


def statements(tree: ast.Module) -> list[tuple[int, set[int], str]]:
    """(first line, own lines, enclosing def or class) per statement."""
    out = []

    def visit(body, scope, named):
        for i, node in enumerate(body):
            if (i == 0 and named and isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue  # docstring
            children = list(_blocks(node))
            if isinstance(node, SCOPES):
                inner = node.name if scope == "<module>" else (
                    "%s.%s" % (scope, node.name))
                visit(children, inner, True)
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                own = set(range(node.lineno, node.end_lineno + 1))
                for child in children:
                    own -= set(range(child.lineno, child.end_lineno + 1))
                out.append((node.lineno, own, scope))
            visit(children, scope, False)

    visit(tree.body, "<module>", True)
    return out


def _blocks(node: ast.stmt):
    """The statements directly inside node, those of its except handlers
    and match cases included."""
    for field in ("body", "orelse", "finalbody", "handlers", "cases"):
        for child in getattr(node, field, ()):
            if isinstance(child, ast.stmt):
                yield child
            else:
                yield from child.body


def unexecuted(executed: dict[str, set[int]]) -> dict[str, dict[str, list[int]]]:
    """Per module file name, per scope, the first lines never executed."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        ran = executed.get(str(path), set())
        missed = defaultdict(list)
        for lineno, own, scope in statements(ast.parse(path.read_text())):
            if not own & ran:
                missed[scope].append(lineno)
        if missed:
            out[path.name] = dict(missed)
    return out


def main() -> int:
    executed, codes = trace_commands()
    for command, code in codes.items():
        if code:
            print("%s exited with %s" % (command, code), file=sys.stderr)
    total = 0
    try:
        for module, scopes in unexecuted(executed).items():
            count = sum(len(lines) for lines in scopes.values())
            total += count
            print("%s: %d statements" % (module, count))
            for scope, lines in scopes.items():
                print("  %s %s" % (scope, " ".join(map(str, lines))))
        print("total: %d statements never executed" % total)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone (as in `| head`): the listing ends there, and
        # stdout points at devnull so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1 if any(codes.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
