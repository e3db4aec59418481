"""What differs between NER, RE and QA is written in two tables only:
heads.TASKS and metrics.METRICS. Every other line of the package treats a
task name as opaque."""

import ast
from pathlib import Path

from adaptlm.heads import TASKS
from adaptlm.metrics import METRICS

SRC = Path(__file__).resolve().parents[1] / "src" / "adaptlm"
TABLES = ("TASKS", "METRICS")


def _task_name_comparisons(tree: ast.Module, module: str) -> list[str]:
    """module:line of each comparison whose operands hold a task-name
    literal, outside the assignments of the two tables."""
    tables = {id(node) for stmt in ast.walk(tree) if isinstance(stmt, ast.Assign)
              and any(getattr(t, "id", None) in TABLES for t in stmt.targets)
              for node in ast.walk(stmt.value)}
    return [f"{module}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Compare) and id(node) not in tables
            and any(isinstance(leaf, ast.Constant) and leaf.value in TASKS
                    for operand in (node.left, *node.comparators)
                    for leaf in ast.walk(operand))]


def test_no_task_name_is_compared_outside_the_task_tables():
    hits = []
    for path in sorted(SRC.glob("*.py")):
        hits += _task_name_comparisons(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert hits == []


def test_the_guard_sees_a_task_branch():
    tree = ast.parse('if task == "qa" and intermediate:\n    pass\n'
                     'names = ["x" for t in ts if t in ("ner", "re")]\n'
                     'TASKS = {"ner": lambda t: t == "ner"}\n')
    assert _task_name_comparisons(tree, "m.py") == ["m.py:1", "m.py:3"]


def test_both_tables_hold_the_same_tasks():
    assert list(TASKS) == list(METRICS) == ["ner", "re", "qa"]
