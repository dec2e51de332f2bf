"""The one budget rule: errors.over_budget, the only maker of a BudgetError in
the package, and the README's table of the caps it is called with. Also the
one home of the Cantor digit arithmetic, measures."""
import ast
import importlib
import math
import re
from pathlib import Path

import pytest

from fractalab.errors import BudgetError, over_budget

SRC = Path(__file__).resolve().parents[1] / "src" / "fractalab"
README = Path(__file__).resolve().parents[1] / "README.md"


class TestOverBudget:
    @pytest.mark.parametrize("cap, shown", [(1 << 24, "2**24"), (200, "200"), (400_000_000, "4e+08"),
                                            ((1 << 53) - 1, "9.01e+15"), (1, "1")])
    def test_need_at_the_cap_passes_and_past_it_is_refused(self, cap, shown):
        over_budget("x", cap, cap, "lower t")
        for need in (cap + 1, math.inf, math.nan):
            with pytest.raises(BudgetError) as info:
                over_budget(f"{need} things", need, cap, "lower t")
            assert str(info.value) == f"{need} things, past its {shown} budget; lower t"


def _calls(name):
    """(module, call node) of every call of `name` in the package's modules."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name:
                yield path.stem, node


def test_only_errors_builds_a_budget_error():
    assert {module for module, _ in _calls("BudgetError")} == {"errors"}


def _readme_budgets():
    """(cap, module constant) of each row of the README's Budgets table."""
    section = README.read_text(encoding="utf-8").split("\n## Budgets\n", 1)[1].split("\n## ", 1)[0]
    rows = [re.split(r"(?<!\\)\|", line)[1:-1] for line in section.splitlines() if line.startswith("| ")]
    header, rows = rows[0], rows[1:]
    assert [c.strip() for c in header] == ["guard", "what it counts", "cap", "module constant",
                                           "remedy", "exit 3"]
    return [(row[2].strip().strip("`"), row[3].strip().strip("`")) for row in rows]


def test_readme_budget_table_matches_the_constants():
    budgets = _readme_budgets()
    assert len(budgets) == 12
    for cap, constant in budgets:
        module, name = constant.split(".")
        value = getattr(importlib.import_module(f"fractalab.{module}"), name)
        base, _, exponent = cap.partition("**")
        assert (int(base) ** int(exponent) if exponent else float(cap)) == value, (cap, constant)
    # every module-level cap an over_budget call names is in the table
    named = {f"{module}.{node.args[2].id}" for module, node in _calls("over_budget")
             if isinstance(node.args[2], ast.Name) and node.args[2].id != "pair_budget"}
    assert named == {constant for _, constant in budgets} - {"geometry.DEFAULT_PAIR_BUDGET"}


def test_digit_arithmetic_is_defined_only_in_measures():
    names = {"_digit_pmf", "_digit_expansion_pmf"}
    defined, spectrum = set(), None
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name in names:
                defined.add((path.stem, node.name))
            if isinstance(node, ast.FunctionDef) and node.name == "power_spectrum":
                spectrum = node
    assert defined == {("measures", name) for name in names}
    # the Riesz product reads the D - D digit pmf and counts no digit pairs itself
    called = {n.func.id if isinstance(n.func, ast.Name) else n.func.attr
              for n in ast.walk(spectrum) if isinstance(n, ast.Call)}
    assert "_digit_pmf" in called and not called & {"bincount", "outer"}
