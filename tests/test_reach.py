"""tools/reach.py: what the commands of cli.COMMANDS never execute."""

import ast
import importlib.util
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from cpflow import cli

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "reach.py"
PACKAGE = ROOT / "src" / "cpflow"
_spec = importlib.util.spec_from_file_location("reach", TOOL)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def listed(output):
    """{module: {scope: set of first lines}} from the tool's output."""
    modules = {}
    for line in output.splitlines():
        if line.startswith("  "):
            scope, *lines = line.split()
            scopes[scope] = {int(n) for n in lines}
        elif not line.startswith("total:"):
            scopes = modules.setdefault(line.split(":")[0], {})
    return modules


def body(module, name):
    """The statements of a module-level function, its docstring left out."""
    tree = ast.parse((PACKAGE / module).read_text())
    node = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)
    return node.body[1:] if ast.get_docstring(node) else node.body


PERFBENCH = "pinned by perfbench/ (tracer, metrics or workloads)"
GAMMA = "gamma_grid's closed-form oracle; ROADMAP item 10 decides Gamma"
FALLBACK = "certificate fallback the default corner does not take"
ERROR = "constructor of an error no default config raises"

UNENTERED = {
    "halfline.gamma_grid": PERFBENCH,
    "weights.omega_z": PERFBENCH,
    "weights._infer_width": PERFBENCH,
    "cornercheck.WeightMatrix.boundary_rep": PERFBENCH,
    "halfline.gamma_element": GAMMA,
    "halfline._weighted": GAMMA,
    "cornercheck._folded_rep": FALLBACK,
    "opbasis.ChoiFactors.__add__": FALLBACK,
    "opbasis.BoundaryRep.gap": FALLBACK,
    "cornercheck.NonCompletelyPositiveInputError.__init__": ERROR,
    "opbasis.NonInvertibleSystemError.__init__": ERROR,
    "weights.NonConvergenceError.__init__": ERROR,
    "weights.PreconditionViolationError.__init__": ERROR,
    "tensorspace.has_rate": "validates a custom lambda list, which no "
                            "default config has",
}
"""Each function no command enters at its default config, and why it
stays in src; a function only tests call belongs in tests/."""


@pytest.fixture(scope="module")
def run():
    """One run of the tool, shared by the tests that read its output."""
    return subprocess.run([sys.executable, str(TOOL)], capture_output=True,
                          text=True, timeout=300, check=True)


def test_lists_what_no_command_runs(run):
    assert run.stderr == ""  # every command exited 0
    modules = listed(run.stdout)
    # no command evaluates Gamma in closed form: its whole body is listed
    gamma = {node.lineno for stmt in body("halfline.py", "gamma_element")
             for node in ast.walk(stmt) if isinstance(node, ast.stmt)}
    assert gamma <= modules["halfline.py"]["gamma_element"]
    # the delta command pairs through tensorspace: at most its
    # error raise is listed, never a statement of its body
    missed = modules["tensorspace.py"].get("pairing", set())
    assert not missed & {stmt.lineno
                         for stmt in body("tensorspace.py", "pairing")}
    total = sum(len(lines) for scopes in modules.values()
                for lines in scopes.values())
    assert run.stdout.splitlines()[-1] == (
        "total: %d statements never executed" % total)


def test_traces_every_command_of_the_cli(monkeypatch):
    ran = []

    def main(args):
        ran.append(args[0])
        return 0

    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(cli, "main", main)
    codes = reach.trace_commands()[1]
    assert ran == list(cli.COMMANDS)
    assert codes == dict.fromkeys(cli.COMMANDS, 0)


def test_exits_nonzero_when_a_command_fails(monkeypatch, capsys):
    codes = dict.fromkeys(cli.COMMANDS, 0)
    codes["corner"] = 1
    monkeypatch.setattr(reach, "trace_commands", lambda: ({}, codes))
    assert reach.main() == 1
    assert capsys.readouterr().err == "corner exited with 1\n"


# with no line read, the reader is gone before the tool's first write
@pytest.mark.parametrize("lines", [0, 1])
def test_a_closed_pipe_ends_the_listing_quietly(lines):
    with subprocess.Popen([sys.executable, str(TOOL)], text=True,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        for _ in range(lines):
            proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=300) == 0
    assert stderr == ""


def test_functions_no_command_enters_are_named(run):
    # a scope counts when the tool lists every statement the AST gives it
    modules = listed(run.stdout)
    whole = set()
    for path in PACKAGE.glob("*.py"):
        lines = defaultdict(set)
        for lineno, _, scope in reach.statements(ast.parse(path.read_text())):
            lines[scope].add(lineno)
        missed = modules.get(path.name, {})
        whole |= {"%s.%s" % (path.stem, scope)
                  for scope, first in lines.items()
                  if first <= missed.get(scope, set())}
    assert whole == set(UNENTERED)
