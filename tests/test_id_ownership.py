"""Ids belong to the simulation, not the process.

A seeded figure must depend only on its seed.  An id counter held at
module or class level is shared by every simulation in the interpreter,
so an id's value — and through its width a frame's size and a delivery
time — would depend on what ran earlier.  Simulated components draw ids
from :meth:`repro.sim.kernel.Simulator.ids`; wall-clock runtimes keep
theirs per node.  This test keeps shared counters from coming back.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def _is_counter(node: ast.AST) -> bool:
    """``itertools.count(...)`` or ``iter(range(...))``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if (isinstance(func, ast.Attribute) and func.attr == "count"
            and isinstance(func.value, ast.Name) and func.value.id == "itertools"):
        return True
    return (isinstance(func, ast.Name) and func.id == "iter" and node.args
            and isinstance(node.args[0], ast.Call)
            and isinstance(node.args[0].func, ast.Name)
            and node.args[0].func.id == "range")


def _shared_assignments(body):
    """Assignments that run once per process: module and class bodies,
    including their ``if``/``try``/``with`` blocks, but not functions."""
    for stmt in body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            yield stmt
        elif isinstance(stmt, ast.ClassDef):
            yield from _shared_assignments(stmt.body)
        elif not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _shared_assignments(getattr(stmt, field, []))


def test_no_module_or_class_level_id_counters():
    offenders = [
        f"{path.relative_to(SRC.parent)}:{stmt.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for stmt in _shared_assignments(ast.parse(path.read_text()).body)
        if any(_is_counter(node) for node in ast.walk(stmt))
    ]
    assert not offenders, (
        "process-wide id counters (draw from Simulator.ids, or keep the "
        "counter on the owning object): " + ", ".join(offenders))
